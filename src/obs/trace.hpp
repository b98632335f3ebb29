// Cost-attribution trace records: what the exporters write.
//
// Every model of the paper charges a superstep max(...) over a handful of
// terms — w, g*h, h, c_m, kappa, L (Section 2) — and every separation in
// Table 1 comes down to which term dominates.  A trace run holds, for each
// superstep of one Machine::run(), the value of every component of that
// max, which one dominated, and the engine phase wall-clock times, so the
// simulator's verdicts can cite the mechanism instead of only the total.
//
// The engine records nothing here: it captures one StatsTape per run, and
// replay::trace_run derives a TraceRun from (tape, model) after the run
// (replay/tape.hpp).  The campaign's --trace file and --trace-dir streams
// are written from those runs (campaign/trace_files.hpp).
//
// Exporters for the runs (JSON Lines, Chrome trace_event) live in
// obs/export.hpp; the metrics registry in obs/metrics.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pbw::obs {

/// Identity of one traced Machine::run().
struct RunInfo {
  std::string model;      ///< CostModel::name()
  std::uint32_t p = 0;    ///< processors
  std::uint64_t seed = 0; ///< MachineOptions::seed
};

struct RunSummary {
  std::uint64_t supersteps = 0;
  double total_time = 0.0;
};

/// One superstep's cost attribution.  Field names are the normative
/// component taxonomy (docs/MODELS.md) and are emitted verbatim by the
/// JSONL exporter; a component a model does not charge is 0.
struct SuperstepTraceRecord {
  std::uint64_t superstep = 0;
  double cost = 0.0;   ///< the model's superstep charge (max of the terms)
  double w = 0.0;      ///< local work term
  double gh = 0.0;     ///< g*h, locally-limited models
  double h = 0.0;      ///< plain h, globally-limited models
  double cm = 0.0;     ///< aggregate charge c_m (n/m for self-scheduling)
  double kappa = 0.0;  ///< contention, QSM models
  double L = 0.0;      ///< latency / periodicity floor
  const char* dominant = "w";  ///< field name of the winning term
  std::uint64_t step_ns = 0;   ///< step-phase wall clock (profile mode, else 0)
  std::uint64_t merge_ns = 0;  ///< merge-phase wall clock (profile mode, else 0)
};

/// One traced run.  Ids number the runs of one file, in order, from 0.
struct TraceRun {
  std::uint64_t id = 0;
  RunInfo info;
  std::vector<SuperstepTraceRecord> records;
  RunSummary summary;
};

}  // namespace pbw::obs
