// Scenario registry: named, schema-checked experiment drivers.
//
// A Scenario wraps one of the repo's algorithm drivers behind a uniform
// interface: a parameter schema (names + defaults, so sweeps can be
// validated before any job runs) and a run function mapping a concrete
// ParamSet plus a per-trial RNG stream to a row of named metrics.  The
// registry is the campaign CLI's menu and the sweep expander's oracle.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/param_set.hpp"
#include "engine/cost.hpp"
#include "replay/cache.hpp"
#include "util/rng.hpp"

namespace pbw::util {
class ThreadPool;
}  // namespace pbw::util

namespace pbw::campaign {

/// One metric row: (name, value) pairs in emission order, one per trial.
using MetricRow = std::vector<std::pair<std::string, double>>;

struct ParamSpec {
  std::string name;
  std::string default_value;
  std::string doc;
  /// True when the parameter only changes how supersteps are *charged*,
  /// never which supersteps execute.  Grid points differing only in
  /// cost-only axes share one simulation: the executor records the
  /// representative's StatsTape stream and recosts it at every other
  /// point (src/replay).  Conservative default: structural, so a scenario
  /// that never opts in is never wrongly replayed.
  bool cost_only = false;
};

struct Scenario {
  std::string name;         ///< dotted, e.g. "table1.broadcast"
  std::string description;  ///< one line for `pbw-campaign list`
  std::vector<ParamSpec> params;
  /// Runs one trial.  `rng` is the deterministic per-(job, trial) stream;
  /// scenarios must draw all randomness from it.  The aqt.* scenarios are
  /// the one exception: the aqt simulators keep their own fixed seed, so
  /// E10's rows are the same at every campaign seed and trial.
  std::function<MetricRow(const ParamSet&, util::Xoshiro256&)> run;
  /// Recosts one captured trial at `params` — a grid point differing from
  /// the captured one only in cost-only axes.  Must reproduce run()'s row
  /// bit-for-bit (the --replay-check gate enforces it).  Null: the
  /// scenario never replays and every axis is treated as structural.
  std::function<MetricRow(const ParamSet&, const replay::CapturedTrial&)>
      replay = nullptr;
  /// Optional mass-recost hook: recosts ONE captured trial at many grid
  /// points in a single tape traversal (replay::recost_batch), returning
  /// one row per point in input order.  Each row must be bit-identical to
  /// what replay() would return for the same point — the executor
  /// substitutes this for the per-point replay loop whenever a structural
  /// group has several cost-only members, and --replay-check still
  /// verifies rows against fresh simulations.  The ThreadPool (nullable)
  /// lets the hook tile its batch across idle host threads; using or
  /// ignoring it must not change a single bit of the rows.  Null hook:
  /// the executor recosts point by point through replay().
  std::function<std::vector<MetricRow>(const std::vector<const ParamSet*>&,
                                       const replay::CapturedTrial&,
                                       util::ThreadPool*)>
      replay_batch = nullptr;
  /// The models a trial's machine runs are charged under at `params`, in
  /// run order: tape i of a captured trial is charged under element i.
  /// The executor derives a recosted job's --trace-dir and --trace runs
  /// from its group's tapes through this hook, so declare it whenever
  /// replay() charges the tapes under models other than their own.  Null:
  /// every tape is traced under the model that charged its capture.
  std::function<std::vector<std::shared_ptr<const engine::CostModel>>(
      const ParamSet&)>
      models = nullptr;
  /// Point-dependent refinement of ParamSpec::cost_only, consulted instead
  /// of the static flag when set.  Lets e.g. table1 mark `g` cost-only for
  /// the bsp family only (the qsm programs derive m = p/g from it, so
  /// there it changes the execution).
  std::function<bool(const ParamSet&, const std::string&)> cost_only_at =
      nullptr;

  [[nodiscard]] const ParamSpec* find_param(const std::string& name) const;

  /// Is `param` a cost-only axis at this concrete grid point?
  [[nodiscard]] bool is_cost_only(const ParamSet& params,
                                  const std::string& param) const;

  /// Scenarios without a replay function never group or recost.
  [[nodiscard]] bool replayable() const { return replay != nullptr; }
};

class Registry {
 public:
  /// The process-wide registry, with all built-in scenarios registered.
  [[nodiscard]] static Registry& instance();

  void add(Scenario scenario);
  [[nodiscard]] const Scenario* find(const std::string& name) const;
  /// All scenarios sorted by name.
  [[nodiscard]] std::vector<const Scenario*> all() const;

 private:
  std::vector<Scenario> scenarios_;
};

// Built-in scenario packs; each scenarios_*.cpp defines one.  Called once
// by Registry::instance() — explicit calls instead of static-initializer
// tricks so a static-library link never drops a pack.
void register_table1_scenarios(Registry& registry);
void register_bench_scenarios(Registry& registry);
void register_grid_scenarios(Registry& registry);
void register_contour_scenarios(Registry& registry);
void register_sched_scenarios(Registry& registry);
void register_pram_scenarios(Registry& registry);
void register_aqt_scenarios(Registry& registry);

}  // namespace pbw::campaign
