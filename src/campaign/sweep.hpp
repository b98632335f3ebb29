// Declarative sweep specs and their expansion into runnable jobs.
//
// A spec file is a sequence of sweep blocks.  Each block names a scenario
// and assigns each parameter a comma-separated value list; the block
// expands to the cartesian product of its axes, times the seed list.
//
//   # Table 1 broadcast row across machine sizes
//   [sweep]
//   scenario = table1.broadcast
//   trials   = 3
//   seeds    = 1, 2
//   p        = 256, 1024, 4096
//   g        = 8, 16
//
// `scenario`, `trials` and `seeds` are reserved keys; every other key must
// appear in the scenario's parameter schema (unset parameters take their
// schema defaults).  A leading `[sweep]` for the first block is optional.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/param_set.hpp"
#include "campaign/scenario.hpp"

namespace pbw::campaign {

struct SweepSpec {
  std::string scenario;
  int trials = 1;
  std::vector<std::uint64_t> seeds = {1};
  /// Axes in declaration order: (param name, value list).
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
};

/// One expanded grid point: a fully-populated ParamSet for one scenario
/// and one seed.  `trials` repetitions run inside the job.
struct Job {
  const Scenario* scenario = nullptr;
  ParamSet params;
  std::uint64_t seed = 1;
  int trials = 1;

  /// Manifest key sans git version: "scenario|params|seed=N".
  [[nodiscard]] std::string base_key() const;

  /// The value the per-trial RNG stream is keyed by: base_key() with the
  /// cost-only parameters dropped.  Jobs differing only in cost-only axes
  /// draw identical streams and hence execute identical supersteps, which
  /// is what makes a replayed point bit-equal to simulating it fresh.  For
  /// non-replayable scenarios no parameter is dropped, so this equals
  /// base_key() and streams match pre-replay campaigns exactly.
  [[nodiscard]] std::string rng_key() const;

  /// Grouping key for trace-replay: rng_key() plus the trial count — jobs
  /// sharing it execute the exact same set of trials, so one simulation's
  /// tapes serve the whole group.
  [[nodiscard]] std::string structural_key() const;
};

/// A concrete point's axes split into structural and cost-only names (in
/// schema order).  Exposed for tests and `pbw-campaign list --axes`.
struct AxisSplit {
  std::vector<std::string> structural;
  std::vector<std::string> cost_only;
};

[[nodiscard]] AxisSplit split_axes(const Scenario& scenario,
                                   const ParamSet& params);

/// Parses a spec file's text into sweep blocks.  Throws std::invalid_argument
/// with a line number on malformed input.
[[nodiscard]] std::vector<SweepSpec> parse_spec(const std::string& text);

/// Expands one sweep against the registry: validates the scenario name and
/// every axis against the schema, fills defaults, and emits the cartesian
/// grid times the seed list (axes vary in declaration order, last axis
/// fastest, then seeds).  Throws std::invalid_argument, naming the axis,
/// when an axis or the seed list repeats a value; values that both parse
/// as numbers compare as numbers, so `4` and `4.0` are one value.
[[nodiscard]] std::vector<Job> expand(const SweepSpec& spec,
                                      const Registry& registry);

/// expand() over every block of a spec file, concatenated.  Throws
/// std::invalid_argument when two blocks expand to one point (same
/// scenario, seed and parameter values, compared as expand() compares
/// them): one point must not be recorded twice.
[[nodiscard]] std::vector<Job> expand_all(const std::vector<SweepSpec>& specs,
                                          const Registry& registry);

}  // namespace pbw::campaign
