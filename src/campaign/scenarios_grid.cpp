// Fixed-pattern cost grids: the trace-replay workhorse.
//
// Each scenario runs a communication pattern whose execution depends only
// on (pattern, p, h, rounds, seed) — every model parameter is a pure
// charging knob.  A dense model/g/L/m/penalty grid over a fixed pattern
// therefore collapses to ONE simulation per (structural point, seed), with
// every other grid point recosted from the captured StatsTape; this is the
// shape of campaign the replay subsystem exists for (docs/CAMPAIGN.md).
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "campaign/patterns.hpp"
#include "campaign/scenario.hpp"
#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "replay/batch.hpp"
#include "replay/tape.hpp"
#include "util/thread_pool.hpp"

namespace pbw::campaign {

namespace {

/// All five models by name; every parameter, the model choice included,
/// only changes charging.
std::unique_ptr<core::ModelBase> grid_model(const ParamSet& params) {
  core::ModelParams prm;
  prm.p = static_cast<std::uint32_t>(params.get_int("p"));
  prm.g = params.get_double("g");
  prm.L = params.get_double("L");
  prm.m = static_cast<std::uint32_t>(params.get_int("m"));
  const core::Penalty penalty = core::parse_penalty(params.get("penalty"));
  const std::string& name = params.get("model");
  if (name == "bsp-g") return std::make_unique<core::BspG>(prm);
  if (name == "bsp-m") return std::make_unique<core::BspM>(prm, penalty);
  if (name == "qsm-g") return std::make_unique<core::QsmG>(prm);
  if (name == "qsm-m") return std::make_unique<core::QsmM>(prm, penalty);
  if (name == "ss-bsp-m") return std::make_unique<core::SelfSchedulingBspM>(prm);
  throw std::invalid_argument("grid.pattern: unknown model '" + name + "'");
}

MetricRow grid_row(const engine::RunResult& run) {
  return {
      {"time", run.total_time},
      {"supersteps", static_cast<double>(run.supersteps)},
      {"total_messages", static_cast<double>(run.total_messages)},
      {"total_flits", static_cast<double>(run.total_flits)},
      {"total_reads", static_cast<double>(run.total_reads)},
      {"total_writes", static_cast<double>(run.total_writes)},
  };
}

MetricRow run_grid(const ParamSet& params, util::Xoshiro256& rng) {
  const auto model = grid_model(params);
  PatternProgram program(parse_pattern(params.get("pattern"), "grid.pattern"),
                         static_cast<std::uint32_t>(params.get_int("h")),
                         static_cast<std::uint64_t>(params.get_int("rounds")));
  engine::MachineOptions options;
  options.seed = rng();
  engine::Machine machine(*model, options);
  return grid_row(machine.run(program));
}

MetricRow replay_grid(const ParamSet& params,
                      const replay::CapturedTrial& trial) {
  return grid_row(replay::recost_run(trial.tapes.at(0), *grid_model(params)));
}

/// The models hook: a trial is one run, charged under the point's model.
std::vector<std::shared_ptr<const engine::CostModel>> grid_models(
    const ParamSet& params) {
  return {grid_model(params)};
}

/// The same (model, g, L, m, penalty) mapping as grid_model, as a batch
/// cost point.
replay::CostPointSpec grid_cost_point(const ParamSet& params) {
  replay::CostPointSpec spec;
  spec.g = params.get_double("g");
  spec.L = params.get_double("L");
  spec.m = static_cast<std::uint32_t>(params.get_int("m"));
  spec.penalty = core::parse_penalty(params.get("penalty"));
  const std::string& name = params.get("model");
  if (name == "bsp-g") {
    spec.family = replay::ModelFamily::kBspG;
  } else if (name == "bsp-m") {
    spec.family = replay::ModelFamily::kBspM;
  } else if (name == "qsm-g") {
    spec.family = replay::ModelFamily::kQsmG;
  } else if (name == "qsm-m") {
    spec.family = replay::ModelFamily::kQsmM;
  } else if (name == "ss-bsp-m") {
    spec.family = replay::ModelFamily::kSelfSchedulingBspM;
  } else {
    throw std::invalid_argument("grid.pattern: unknown model '" + name + "'");
  }
  return spec;
}

/// The axis values a point's model reads, as bits: two points with equal
/// keys charge the same model (BSP(g) ignores m and the penalty, say).
std::array<std::uint64_t, 5> charge_key(const replay::CostPointSpec& spec) {
  const replay::ModelFamily f = spec.family;
  return {static_cast<std::uint64_t>(f),
          replay::reads_g(f) ? std::bit_cast<std::uint64_t>(spec.g) : 0,
          replay::reads_L(f) ? std::bit_cast<std::uint64_t>(spec.L) : 0,
          replay::reads_m(f) ? spec.m : 0,
          replay::reads_penalty(f) ? static_cast<std::uint64_t>(spec.penalty)
                                   : 0};
}

std::vector<MetricRow> replay_grid_batch(
    const std::vector<const ParamSet*>& points,
    const replay::CapturedTrial& trial, util::ThreadPool* pool) {
  const auto& tape = trial.tapes.at(0);
  // One one-point grid per distinct charge; each job reads its charge's
  // total.
  std::vector<replay::CostPointSpec> specs;
  std::map<std::array<std::uint64_t, 5>, std::size_t> charge_of;
  std::vector<std::size_t> job_charge;
  job_charge.reserve(points.size());
  for (const ParamSet* point : points) {
    const replay::CostPointSpec spec = grid_cost_point(*point);
    const auto [it, fresh] =
        charge_of.try_emplace(charge_key(spec), specs.size());
    if (fresh) specs.push_back(spec);
    job_charge.push_back(it->second);
  }
  std::vector<replay::CostGrid> grids;
  grids.reserve(specs.size());
  for (const replay::CostPointSpec& spec : specs) {
    grids.push_back(replay::CostGrid::point(spec));
  }
  const std::vector<engine::SimTime> totals =
      replay::recost_batch(tape, grids, pool);
  // Every non-time column is model-independent (it comes off the tape), so
  // the rows differ only in the batched charge — exactly what replay_grid's
  // grid_row(recost_run(...)) reports.
  std::vector<MetricRow> rows;
  rows.reserve(points.size());
  for (const std::size_t charge : job_charge) {
    rows.push_back({
        {"time", totals[charge]},
        {"supersteps", static_cast<double>(tape.size())},
        {"total_messages", static_cast<double>(tape.total_messages)},
        {"total_flits", static_cast<double>(tape.total_flits)},
        {"total_reads", static_cast<double>(tape.total_reads)},
        {"total_writes", static_cast<double>(tape.total_writes)},
    });
  }
  return rows;
}

}  // namespace

void register_grid_scenarios(Registry& registry) {
  Scenario grid;
  grid.name = "grid.pattern";
  grid.description =
      "fixed communication pattern under a dense cost-parameter grid";
  grid.params = {
      {"pattern", "random", "one_to_all | ring | random | random_mem"},
      {"p", "256", "processors"},
      {"h", "8", "degree / message length (flits)"},
      {"rounds", "4", "communication supersteps"},
      {"model", "bsp-m", "bsp-g | bsp-m | qsm-g | qsm-m | ss-bsp-m",
       /*cost_only=*/true},
      {"g", "8", "per-processor gap", /*cost_only=*/true},
      {"L", "16", "BSP latency/periodicity", /*cost_only=*/true},
      {"m", "32", "aggregate bandwidth limit", /*cost_only=*/true},
      {"penalty", "exp", "linear | exp overload charge", /*cost_only=*/true},
  };
  grid.run = run_grid;
  grid.replay = replay_grid;
  grid.replay_batch = replay_grid_batch;
  grid.models = grid_models;
  registry.add(std::move(grid));
}

}  // namespace pbw::campaign
