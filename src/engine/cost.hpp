// The cost-model interface the engine charges supersteps through.
//
// The engine is model-agnostic: it executes a superstep, gathers the
// quantities every model in the paper is defined over (w, s_i, r_i, the
// per-slot injection counts m_t, the QSM contention kappa, ...) into a
// SuperstepStats, and asks a CostModel for the charge.  The four concrete
// models of the paper live in src/core/model.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/types.hpp"

namespace pbw::engine {

/// Everything a bulk-synchronous cost model may charge for in one
/// superstep.  Message quantities are counted in flits so that long
/// messages consume bandwidth proportional to their length (Section 2).
struct SuperstepStats {
  /// max_i w_i: maximum local work performed by any processor.
  double max_work = 0.0;

  // --- message passing (BSP-style programs) ---
  /// max_i s_i: maximum flits sent by any one processor.
  std::uint64_t max_sent = 0;
  /// max_i r_i: maximum flits received by any one processor.
  std::uint64_t max_received = 0;
  /// Total flits injected by all processors (the n of Section 6).
  std::uint64_t total_flits = 0;

  // --- shared memory (QSM-style programs) ---
  /// max_i r_i: maximum shared-memory reads issued by any one processor.
  std::uint64_t max_reads = 0;
  /// max_i w_i: maximum shared-memory writes issued by any one processor.
  std::uint64_t max_writes = 0;
  /// Maximum per-location contention (readers of a location, or writers of
  /// a location, whichever is larger over all locations).
  std::uint64_t kappa = 0;
  /// Total shared-memory requests (reads + writes).
  std::uint64_t total_requests = 0;

  /// m_t for t = 1..tau: number of injections (flits or memory requests)
  /// in each slot of the superstep.  slot_counts[t-1] is slot t.
  std::vector<std::uint64_t> slot_counts;

  /// Number of occupied communication slots == slot_counts.size().
  [[nodiscard]] std::uint64_t slots() const noexcept {
    return static_cast<std::uint64_t>(slot_counts.size());
  }
};

/// The terms of a model's superstep max, individually.  Field names are
/// the normative cost-component taxonomy (docs/MODELS.md) and double as
/// the trace field names emitted by the observability layer; a component
/// the model does not charge stays 0.  For every model,
/// max over the fields == superstep_cost of the same stats.
struct CostComponents {
  double w = 0.0;      ///< max_i w_i, local work
  double gh = 0.0;     ///< g*h, locally-limited models
  double h = 0.0;      ///< plain h, globally-limited models
  double cm = 0.0;     ///< aggregate charge c_m (n/m for self-scheduling)
  double kappa = 0.0;  ///< per-location contention, QSM models
  double L = 0.0;      ///< latency / periodicity floor

  /// Field names in declaration order, which is also max_term()'s order.
  static constexpr const char* kNames[6] = {"w", "gh", "h", "cm", "kappa", "L"};

  /// The fields in declaration order.
  [[nodiscard]] std::array<double, 6> terms() const noexcept {
    return {w, gh, h, cm, kappa, L};
  }

  /// Max over the fields.  NaN-safe: a NaN term poisons the charge (the
  /// first NaN in field order is returned) instead of being silently
  /// dropped by the `>` comparisons.  For NaN-free components this is the
  /// plain running-max comparison chain, which the non-virtual charge
  /// functors (core/model/charge.hpp) replicate bit for bit.
  [[nodiscard]] double max_term() const noexcept {
    const std::array<double, 6> t = terms();
    double v = t[0];
    if (std::isnan(v)) return v;
    for (int i = 1; i < 6; ++i) {
      if (std::isnan(t[i])) return t[i];
      if (t[i] > v) v = t[i];
    }
    return v;
  }

  /// Index into kNames of the dominant (maximal) term.  Ties go to the
  /// earlier field in declaration order — w, gh, h, cm, kappa, L — the
  /// order of kNames and of every trace's fields.  A NaN field is
  /// dominant (it is what max_term() returns): without the explicit isnan
  /// scan every `>=` below would be false and the `w` fallthrough would lie.
  [[nodiscard]] std::size_t dominant_index() const noexcept {
    const std::array<double, 6> t = terms();
    for (std::size_t i = 0; i < 6; ++i) {
      if (std::isnan(t[i])) return i;
    }
    const double v = max_term();
    for (std::size_t i = 0; i < 6; ++i) {
      if (t[i] >= v) return i;
    }
    return 5;  // unreachable: v is one of the terms
  }

  /// Field name of the dominant term (dominant_index()'s rules).
  [[nodiscard]] const char* dominant() const noexcept {
    return kNames[dominant_index()];
  }
};

/// Per-term totals of a run: add() puts each superstep's whole charge,
/// its max_term(), into the field of `by_term` its dominant() term names,
/// so the shares answer "which term did the time go to".  The one
/// attribution: replay::term_totals accumulates through it, and the
/// planner's dominant block reads that.
struct TermTotals {
  CostComponents by_term;       ///< per-term sums, each in superstep order
  double total = 0.0;           ///< sum of every charge, in superstep order
  std::uint64_t supersteps = 0;

  void add(const CostComponents& step) noexcept {
    double* const fields[6] = {&by_term.w,  &by_term.gh,    &by_term.h,
                               &by_term.cm, &by_term.kappa, &by_term.L};
    const double charge = step.max_term();
    *fields[step.dominant_index()] += charge;
    total += charge;
    ++supersteps;
  }
};

/// Abstract bulk-synchronous cost model.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Charge for one superstep with the given statistics.
  [[nodiscard]] virtual SimTime superstep_cost(const SuperstepStats& stats) const = 0;

  /// The charge split into its max terms, for cost attribution.  The
  /// default places the whole charge in `w`; models with real structure
  /// override it and must keep max_term() == superstep_cost().
  [[nodiscard]] virtual CostComponents cost_components(
      const SuperstepStats& stats) const {
    CostComponents components;
    components.w = superstep_cost(stats);
    return components;
  }

  /// Human-readable name, e.g. "BSP(g=4,L=16)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of processors the model is parameterized for.
  [[nodiscard]] virtual std::uint32_t processors() const = 0;

  /// A copy of this model.  A captured StatsTape keeps one, so a trace can
  /// be derived from the tape after the machine that charged it is gone.
  [[nodiscard]] virtual std::unique_ptr<CostModel> clone() const = 0;
};

}  // namespace pbw::engine
