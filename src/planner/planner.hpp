// Bandwidth planner: what-if cost optimization over a recorded tape.
//
// The paper's central question — what does bandwidth restriction (local g
// vs. global m) cost a given computation? — is a planning query: given the
// model-independent record of one execution (a replay::StatsTape) and a
// hardware envelope (which model families are on the table, and which
// g/L/m/penalty values), find the configuration that charges least and
// explain it.  ROADMAP item 5; the design follows Kremlin's BWPlanner
// (SNIPPETS.md): profile once, then answer hardware what-ifs from the
// profile alone.
//
// solve() charges the envelope's cost grid (Envelope::grid(), a view of
// its axes) in ONE replay::recost_batch tape pass (the
// planner.tape_passes metric counts those passes — a 20k-point query is
// still one traversal), then reports:
//   - the cheapest configuration (argmin; ties go to the lowest grid
//     index, so the result is deterministic),
//   - the frontier of configurations within frontier_percent of optimal,
//   - the dominant cost term at the optimum (replay::term_totals: each
//     superstep's charge attributed to engine::CostComponents'
//     w/gh/h/cm/kappa/L taxonomy) and the bound verdict it implies,
//   - the marginal value of more bandwidth: dcost/dg and dcost/dm at the
//     optimum, finite-differenced on the envelope's own grid.
// Only the best and frontier points are turned back into CostPointSpecs,
// from their grid index; the grid itself is never materialized.
//
// Everything here is pure computation over (tape, envelope); the HTTP
// endpoint, scenario recording and caching live in planner/service.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/model/models.hpp"
#include "core/model/penalty.hpp"
#include "engine/cost.hpp"
#include "replay/batch.hpp"
#include "replay/tape.hpp"

namespace pbw::planner {

/// The hardware envelope of one planning query: the model families in
/// play and the candidate values of every cost parameter.  Each family
/// crosses only the axes it reads (replay::CostGrid): BSP(g) is g x L,
/// BSP(m) is L x m x penalty, QSM(g) is g, QSM(m) is m x penalty,
/// SS-BSP(m) is L x m — so no two grid points charge the same model twice
/// and grid_size() is the honest query cost.
struct Envelope {
  std::vector<replay::ModelFamily> families = {
      replay::ModelFamily::kBspG, replay::ModelFamily::kBspM,
      replay::ModelFamily::kQsmG, replay::ModelFamily::kQsmM,
      replay::ModelFamily::kSelfSchedulingBspM};
  std::vector<double> g = {1.0};        ///< gap axis (>= 1, increasing)
  std::vector<double> L = {1.0};        ///< latency axis (>= 1, increasing)
  std::vector<std::uint32_t> m = {1};   ///< bandwidth axis (>= 1, increasing)
  std::vector<core::Penalty> penalties = {core::Penalty::kExponential};
  double frontier_percent = 10.0;  ///< frontier = cost <= best * (1 + X/100)
  std::size_t max_frontier = 32;   ///< frontier points returned (cap)

  /// Most values one axis may hold.  The wire decoder checks it before it
  /// expands a {min, max, steps} range, so a short body cannot ask for an
  /// axis that exhausts memory.
  static constexpr std::size_t kMaxAxisValues = std::size_t{1} << 20;
  /// Most grid points one query may charge; check() enforces it before
  /// anything is charged or enumerated.
  static constexpr std::size_t kMaxGridPoints = std::size_t{1} << 22;

  /// Validates the envelope: non-empty axes, no duplicate families or
  /// penalties, every axis strictly increasing (which is also what makes
  /// the finite differences meaningful), g/L >= 1, m >= 1,
  /// frontier_percent >= 0, at most kMaxGridPoints grid points (counted
  /// without overflow).  Throws std::invalid_argument.
  void check() const;

  /// The envelope as the cost grid solve() charges: a view of the axes,
  /// valid while the envelope lives and is unchanged.
  [[nodiscard]] replay::CostGrid grid() const noexcept;

  /// Grid points solve() will charge (sum of per-family axis crossings).
  [[nodiscard]] std::size_t grid_size() const noexcept;

  /// The grid's points in its canonical order (replay::CostGrid): families
  /// in declaration order; within a family the read axes cross with g
  /// outermost, then L, then m, then penalty innermost.  Axes a family
  /// does not read stay at the CostPointSpec defaults.  solve() never
  /// calls it; tests and benchmarks compare against it.
  [[nodiscard]] std::vector<replay::CostPointSpec> enumerate() const;

  /// Stable text form ("families=...;g=...;...").  The service keys
  /// plans on the raw axis bits instead; ledger/probe still keys its own
  /// plan map on this.
  [[nodiscard]] std::string canonical_key() const;
};

/// One charged grid point.
struct PlannedPoint {
  replay::CostPointSpec spec;
  engine::SimTime cost = 0.0;
  std::size_t index = 0;  ///< position in the grid's point order
};

/// A finite-differenced derivative at the optimum.  Undefined when the
/// best point's family does not read the axis or the envelope holds fewer
/// than two values of it.
struct Marginal {
  bool defined = false;
  double value = 0.0;
};

struct PlanResult {
  PlannedPoint best;
  /// Points with cost <= best * (1 + frontier_percent/100), cheapest
  /// first (ties by grid index), best itself included, capped at
  /// max_frontier.  frontier_total is the uncapped count.
  std::vector<PlannedPoint> frontier;
  std::size_t frontier_total = 0;

  /// Per-term sums of the optimum's per-superstep max charges: superstep
  /// s contributes its whole charge to the term that bound it (the
  /// CostComponents::dominant() bucket), so the shares answer "which term
  /// did the time actually go to".
  engine::CostComponents term_totals;
  std::string dominant_term;    ///< w | gh | h | cm | kappa | L
  double dominant_share = 0.0;  ///< dominant bucket / total charge
  std::string verdict;          ///< e.g. "local-bandwidth-bound"

  Marginal dcost_dg;  ///< dcost/dg at the optimum (>0: more local bw helps)
  Marginal dcost_dm;  ///< dcost/dm at the optimum (<0: more global bw helps)

  std::size_t grid_points = 0;
  std::size_t supersteps = 0;
  std::uint64_t tape_fingerprint = 0;

  /// How the batch pass executed (replay::BatchInfo): the SIMD kernel
  /// path name and the thread count it tiled across.  Attribution only —
  /// the numbers above are identical on every path and thread count.
  std::string simd_path = "scalar";
  std::size_t batch_threads = 1;
};

/// Charges the envelope's grid against the tape in one recost_batch pass
/// and derives the report above.  Deterministic: same (tape, envelope) in,
/// bit-identical PlanResult out (pool or not, any SIMD path), and
/// best.cost is bit-equal to the scalar recost() of the winning
/// configuration.  A non-null `pool` lets the batch pass tile across idle
/// host threads.  `tape_fingerprint` is the caller's
/// fingerprint_tape(tape), copied into the result; a caller that has none
/// omits it and solve() hashes the tape itself.  Throws
/// std::invalid_argument on an invalid envelope.
[[nodiscard]] PlanResult solve(
    const replay::StatsTape& tape, const Envelope& envelope,
    util::ThreadPool* pool = nullptr,
    std::optional<std::uint64_t> tape_fingerprint = std::nullopt);

/// tape.fingerprint(), with the bytes it read added to the
/// planner.tape_bytes_hashed counter.  The service calls it once per
/// recorded or parsed tape.
[[nodiscard]] std::uint64_t fingerprint_tape(const replay::StatsTape& tape);

/// The concrete core:: model a CostPointSpec describes, parameterized for
/// p processors (used for dominant-term attribution and by the brute-force
/// equivalence tests).
[[nodiscard]] std::unique_ptr<core::ModelBase> make_model(
    std::uint32_t p, const replay::CostPointSpec& spec);

// ---- wire spellings (shared with grid.pattern's model axis) ---------------

[[nodiscard]] const char* family_name(replay::ModelFamily family) noexcept;
[[nodiscard]] std::optional<replay::ModelFamily> family_from_name(
    std::string_view name) noexcept;
// Penalties render via core::penalty_name ("linear" / "exp"); this is
// core::parse_penalty with nullopt in place of its throw.
[[nodiscard]] std::optional<core::Penalty> penalty_from_name(
    std::string_view name);

/// The bound verdict a dominant term implies: w -> "compute-bound",
/// gh/h -> "local-bandwidth-bound" (both are the largest per-processor
/// communication volume, charged at gap g resp. gap 1),
/// cm -> "global-bandwidth-bound" (the aggregate m-limit's overload
/// charge), kappa -> "contention-bound", L -> "latency-bound".
[[nodiscard]] const char* verdict_for_term(std::string_view term) noexcept;

}  // namespace pbw::planner
