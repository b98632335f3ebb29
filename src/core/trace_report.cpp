#include "core/trace_report.hpp"

#include <array>
#include <cstdio>
#include <sstream>

namespace pbw::core {

std::string cost_term_name(CostTerm term) {
  switch (term) {
    case CostTerm::kWork: return "work (w)";
    case CostTerm::kGap: return "per-proc comm (h / g*h)";
    case CostTerm::kAggregate: return "aggregate bandwidth (c_m, n/m)";
    case CostTerm::kContention: return "contention (kappa)";
    case CostTerm::kLatency: return "latency (L)";
  }
  return "?";
}

double CostBreakdown::fraction(CostTerm term) const {
  if (total <= 0.0) return 0.0;
  switch (term) {
    case CostTerm::kWork: return work / total;
    case CostTerm::kGap: return gap / total;
    case CostTerm::kAggregate: return aggregate / total;
    case CostTerm::kContention: return contention / total;
    case CostTerm::kLatency: return latency / total;
  }
  return 0.0;
}

std::string CostBreakdown::render() const {
  std::ostringstream out;
  out << "cost breakdown over " << supersteps << " supersteps (total " << total
      << "):\n";
  const std::array<std::pair<CostTerm, double>, 5> rows{
      {{CostTerm::kWork, work},
       {CostTerm::kGap, gap},
       {CostTerm::kAggregate, aggregate},
       {CostTerm::kContention, contention},
       {CostTerm::kLatency, latency}}};
  for (const auto& [term, value] : rows) {
    if (value <= 0.0) continue;
    char line[128];
    std::snprintf(line, sizeof line, "  %-32s %12.4g  (%5.1f%%)\n",
                  cost_term_name(term).c_str(), value,
                  100.0 * (total > 0 ? value / total : 0.0));
    out << line;
  }
  return out.str();
}

CostBreakdown analyze_trace(const replay::StatsTape& tape,
                            const engine::CostModel& model) {
  engine::TermTotals totals;
  for (const engine::CostComponents& step :
       replay::recost_components(tape, model)) {
    totals.add(step);
  }
  CostBreakdown breakdown;
  breakdown.work = totals.by_term.w;
  breakdown.gap = totals.by_term.gh + totals.by_term.h;
  breakdown.aggregate = totals.by_term.cm;
  breakdown.contention = totals.by_term.kappa;
  breakdown.latency = totals.by_term.L;
  breakdown.supersteps = totals.supersteps;
  breakdown.total = totals.total;
  return breakdown;
}

}  // namespace pbw::core
