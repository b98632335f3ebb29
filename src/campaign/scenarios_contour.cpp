// contour.map: the paper's local-vs-global dichotomy as a phase diagram.
//
// One fixed communication pattern, one tape — swept over a log-spaced
// (g, m) hardware grid.  Cell (g_i, m_j) asks: on a machine with
// per-processor gap g_i OR aggregate bandwidth limit m_j, which
// restriction prices this pattern cheaper?  The cell's time is
// min(T_BSP(g_i), T_BSP(m_j)) and its winner is the cheaper family, so
// the map's ridge line is the crossover frontier between the locally- and
// globally-limited regimes (Sections 3-5 of the paper give the
// separations this frontier visualizes).
//
// BSP(g) reads only g and BSP(m) reads only m, so the map's marginals fix
// every cell: one replay::recost_batch call charges one grid of both
// families — |g| BSP(g) columns and |m| BSP(m) rows, |g| + |m| points —
// and each cell is folded from its column's and its row's time.
// bench_contour (E22) times this shape at 1024 x 512 cells against the
// 2·|g|·|m|-point cross product.  The scenario's metrics summarize the map
// (winner counts, time extrema, frontier mass) rather than emit a row per
// cell; pbw-campaign sweeps stay row-per-job.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/patterns.hpp"
#include "campaign/scenario.hpp"
#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "replay/batch.hpp"
#include "replay/recorder.hpp"
#include "replay/tape.hpp"
#include "util/thread_pool.hpp"

namespace pbw::campaign {

namespace {

/// The (g, m) grid a parameter point describes.  Axes are log-spaced from
/// 1 to *_max inclusive; m values round to the nearest integer >= 1 (the
/// aggregate limit is integral).
struct ContourGrid {
  std::vector<double> gs;
  std::vector<std::uint32_t> ms;
  double L = 1.0;
  core::Penalty penalty = core::Penalty::kLinear;
};

std::vector<double> log_axis(std::size_t cells, double max_value) {
  if (cells == 0 || max_value < 1.0) {
    throw std::invalid_argument("contour.map: axis needs cells >= 1, max >= 1");
  }
  std::vector<double> axis(cells);
  const double log_max = std::log(max_value);
  for (std::size_t i = 0; i < cells; ++i) {
    const double t = cells == 1 ? 1.0
                                : static_cast<double>(i) /
                                      static_cast<double>(cells - 1);
    axis[i] = std::exp(log_max * t);
  }
  return axis;
}

ContourGrid contour_grid(const ParamSet& params) {
  ContourGrid grid;
  grid.gs = log_axis(static_cast<std::size_t>(params.get_int("g_cells")),
                     params.get_double("g_max"));
  const auto m_axis =
      log_axis(static_cast<std::size_t>(params.get_int("m_cells")),
               params.get_double("m_max"));
  grid.ms.reserve(m_axis.size());
  for (const double m : m_axis) {
    grid.ms.push_back(
        static_cast<std::uint32_t>(std::max(1.0, std::round(m))));
  }
  grid.L = params.get_double("L");
  grid.penalty = core::parse_penalty(params.get("penalty"));
  return grid;
}

/// Folds the charged marginals into the scenario's metric row.  Cell
/// (g_i, m_j) pairs column i's time with row j's; accumulation runs in
/// cell order (m-major), so the row is a deterministic function of the
/// tape — run, replay, and batch paths all produce it bit-identically.
MetricRow contour_row(const ContourGrid& grid, const replay::StatsTape& tape,
                      util::ThreadPool* pool) {
  // One BSP(g) point per column, then one BSP(m) point per row: neither
  // family reads the other's axis, so these |g| + |m| points price every
  // cell.  The rounded m axis may repeat a value; the batch computes its
  // c_m once.
  const replay::ModelFamily families[] = {replay::ModelFamily::kBspG,
                                          replay::ModelFamily::kBspM};
  const double L[] = {grid.L};
  const core::Penalty penalty[] = {grid.penalty};
  const replay::CostGrid marginals{families, grid.gs, L, grid.ms, penalty};
  const std::vector<engine::SimTime> times =
      replay::recost_batch(tape, {&marginals, 1}, pool);
  const std::size_t columns = grid.gs.size();
  const std::size_t cells = columns * grid.ms.size();
  double local_wins = 0.0, global_wins = 0.0, frontier = 0.0;
  double time_min = 0.0, time_max = 0.0, time_sum = 0.0;
  std::optional<bool> previous_local;
  for (std::size_t c = 0; c < cells; ++c) {
    const double t_local = times[c % columns];
    const double t_global = times[columns + c / columns];
    const bool local = t_local < t_global;
    const double best = local ? t_local : t_global;
    (local ? local_wins : global_wins) += 1.0;
    // Winner flips along a row of the map = one crossing of the
    // local/global frontier.  Row starts don't count (c % columns == 0).
    if (c % columns != 0 && previous_local && local != *previous_local) {
      frontier += 1.0;
    }
    previous_local = local;
    if (c == 0 || best < time_min) time_min = best;
    if (c == 0 || best > time_max) time_max = best;
    time_sum += best;
  }
  return {
      {"cells", static_cast<double>(cells)},
      {"local_wins", local_wins},
      {"global_wins", global_wins},
      {"frontier_crossings", frontier},
      {"time_min", time_min},
      {"time_max", time_max},
      {"time_sum", time_sum},
      {"supersteps", static_cast<double>(tape.size())},
  };
}

MetricRow run_contour(const ParamSet& params, util::Xoshiro256& rng) {
  const ContourGrid grid = contour_grid(params);
  PatternProgram program(
      parse_pattern(params.get("pattern"), "contour.map"),
      static_cast<std::uint32_t>(params.get_int("h")),
      static_cast<std::uint64_t>(params.get_int("rounds")));
  // The cost model is irrelevant to the execution (the pattern is fixed);
  // a unit BSP(g) machine drives the run, and the contour is charged off
  // the captured tape.  Record into the ambient recorder when there is
  // one (so replay sees the same tape), else into a local one.
  core::ModelParams prm;
  prm.p = static_cast<std::uint32_t>(params.get_int("p"));
  prm.g = 1.0;
  prm.L = 1.0;
  const core::BspG model(prm);
  engine::MachineOptions options;
  options.seed = rng();
  replay::TapeRecorder local;
  if (replay::current_tape_recorder() == nullptr) options.tape_recorder = &local;
  engine::Machine machine(model, options);
  machine.run(program);
  return contour_row(grid, *machine.tape(), nullptr);
}

MetricRow replay_contour(const ParamSet& params,
                         const replay::CapturedTrial& trial) {
  return contour_row(contour_grid(params), trial.tapes.at(0), nullptr);
}

std::vector<MetricRow> replay_contour_batch(
    const std::vector<const ParamSet*>& points,
    const replay::CapturedTrial& trial, util::ThreadPool* pool) {
  std::vector<MetricRow> rows;
  rows.reserve(points.size());
  for (const ParamSet* point : points) {
    rows.push_back(contour_row(contour_grid(*point), trial.tapes.at(0), pool));
  }
  return rows;
}

}  // namespace

void register_contour_scenarios(Registry& registry) {
  Scenario contour;
  contour.name = "contour.map";
  contour.description =
      "local-vs-global phase map: min(BSP(g_i), BSP(m_j)) over a (g x m) grid";
  contour.params = {
      {"pattern", "random", "one_to_all | ring | random | random_mem"},
      {"p", "256", "processors"},
      {"h", "8", "degree / message length (flits)"},
      {"rounds", "4", "communication supersteps"},
      {"g_cells", "64", "grid columns (gap axis)", /*cost_only=*/true},
      {"m_cells", "64", "grid rows (bandwidth axis)", /*cost_only=*/true},
      {"g_max", "1024", "gap axis upper bound (log-spaced from 1)",
       /*cost_only=*/true},
      {"m_max", "4096", "bandwidth axis upper bound (log-spaced from 1)",
       /*cost_only=*/true},
      {"L", "16", "latency floor shared by both families", /*cost_only=*/true},
      {"penalty", "exp", "linear | exp overload charge", /*cost_only=*/true},
  };
  contour.run = run_contour;
  contour.replay = replay_contour;
  contour.replay_batch = replay_contour_batch;
  registry.add(std::move(contour));
}

}  // namespace pbw::campaign
