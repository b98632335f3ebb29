// Cost-term attribution for traced runs.
//
// Every model of the paper charges a superstep max(...) over a handful of
// terms (work, g*h or h, c_m, kappa, L).  When tuning an algorithm it
// matters *which* term bound each superstep: a c_m-bound superstep needs
// better staggering, an h-bound one needs load balancing, an L-bound one
// is latency floor.  analyze_trace() classifies every superstep of a
// run's stats tape and aggregates time per dominant term.
#pragma once

#include <cstdint>
#include <string>

#include "engine/cost.hpp"
#include "replay/tape.hpp"

namespace pbw::core {

enum class CostTerm { kWork, kGap, kAggregate, kContention, kLatency };

[[nodiscard]] std::string cost_term_name(CostTerm term);

struct CostBreakdown {
  double work = 0.0;        ///< time in supersteps bound by local work
  double gap = 0.0;         ///< ... by g*h (local models) or h (global)
  double aggregate = 0.0;   ///< ... by c_m (or n/m for self-scheduling)
  double contention = 0.0;  ///< ... by kappa (QSM models)
  double latency = 0.0;     ///< ... by L
  std::uint64_t supersteps = 0;
  double total = 0.0;

  /// Fraction of total time attributed to `term`.
  [[nodiscard]] double fraction(CostTerm term) const;
  /// Multi-line human-readable report.
  [[nodiscard]] std::string render() const;
};

/// Attributes each superstep's charge on `tape` under `model` to its
/// dominant term, asking the model's own cost_components()
/// (engine::TermTotals, the attribution the planner uses too), so it
/// cannot disagree with what the run was charged.  Ties go to the earlier
/// term in the CostTerm order; the gh and h components both map to
/// CostTerm::kGap (gap = gh + h).
[[nodiscard]] CostBreakdown analyze_trace(const replay::StatsTape& tape,
                                          const engine::CostModel& model);

}  // namespace pbw::core
