// E22 — contour.map at benchmark scale: 2^19 cells priced from one tape.
//
// One captured tape, then a log-spaced (g x m) hardware grid — the
// default is 1024 x 512 = 2^19 cells — priced as contour.map prices it:
// ONE recost_batch call charges the map's marginals (a grid of both
// families: |g| BSP(g) columns and |m| BSP(m, exp) rows) and every cell
// is folded from its column's and its row's time.
//
// Three measurements of the same map:
//
//   * ref_pr7  — the pre-SIMD batch kernel (one scalar charge loop per
//                point, per-point hash lookups for the aggregate-charge
//                arrays, unmemoized exp) on the full cross product, a
//                BSP(g) and a BSP(m) point per cell, reimplemented here
//                as the reference every path is compared with;
//   * paths.*  — the marginals through recost_batch pinned to each
//                compiled+supported SIMD path (simd::ScopedPath), plus the
//                cell fold, single-threaded;
//   * batch    — the same on the default path with a ThreadPool.
//
// Every cell's two times must be bit-equal to the reference's (and a
// sampled anchor of the reference against per-point scalar recost()).
// Throughput is reported in cells per second.  Emits one JSON document
// on stdout (or --out=FILE); exits nonzero on any bit mismatch.
//
//   ./bench_contour [--p=256] [--h=8] [--supersteps=128] [--g_cells=1024]
//                   [--m_cells=512] [--repeat=3] [--seed=1] [--out=FILE]
#include <algorithm>
#include <chrono>
#include <exception>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model/charge.hpp"
#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "replay/batch.hpp"
#include "replay/recorder.hpp"
#include "replay/tape.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pbw;
namespace charge = core::charge;

/// Random h-relation plus contended reads, every superstep (same workload
/// as E21 bench_recost_batch, so the tapes are comparable).
class Workload final : public engine::SuperstepProgram {
 public:
  Workload(std::uint32_t h, std::uint64_t rounds) : h_(h), rounds_(rounds) {}
  void setup(engine::Machine& machine) override {
    machine.resize_shared(machine.p() + 256);
  }
  bool step(engine::ProcContext& ctx) override {
    if (ctx.superstep() >= rounds_) return false;
    ctx.charge(1.0);
    for (std::uint32_t k = 0; k < h_; ++k) {
      ctx.send(static_cast<engine::ProcId>(ctx.rng().below(ctx.p())),
               ctx.id(), 0, 1);
      ctx.read(ctx.p() + ctx.rng().below(256));
    }
    return true;
  }

 private:
  std::uint32_t h_;
  std::uint64_t rounds_;
};

/// Log-spaced axis from 1 to max inclusive (contour.map's spacing).
std::vector<double> log_axis(std::size_t cells, double max_value) {
  std::vector<double> axis(cells);
  const double log_max = std::log(max_value);
  for (std::size_t i = 0; i < cells; ++i) {
    const double t =
        cells == 1 ? 1.0
                   : static_cast<double>(i) / static_cast<double>(cells - 1);
    axis[i] = std::exp(log_max * t);
  }
  return axis;
}

/// The contour cross product: cell (g_i, m_j) contributes a BSP(g_i) and
/// a BSP(m_j) point, m-major — the point stream the reference charges.
std::vector<replay::CostPointSpec> contour_points(
    const std::vector<double>& gs, const std::vector<std::uint32_t>& ms,
    double L) {
  std::vector<replay::CostPointSpec> specs;
  specs.reserve(gs.size() * ms.size() * 2);
  for (const std::uint32_t m : ms) {
    for (const double g : gs) {
      replay::CostPointSpec local;
      local.family = replay::ModelFamily::kBspG;
      local.g = g;
      local.L = L;
      specs.push_back(local);
      replay::CostPointSpec global;
      global.family = replay::ModelFamily::kBspM;
      global.m = m;
      global.penalty = core::Penalty::kExponential;
      global.L = L;
      specs.push_back(global);
    }
  }
  return specs;
}

std::uint64_t cm_key(std::uint32_t m, core::Penalty penalty) {
  return (static_cast<std::uint64_t>(m) << 1) |
         (penalty == core::Penalty::kExponential ? 1u : 0u);
}

/// The PR 7 recost_batch kernel, verbatim: term arrays derived once, then
/// one scalar charge loop per point with an unordered_map lookup per
/// BSP(m)/QSM(m) point and exp() paid per slot in the aggregate pass.
/// This is the baseline the SIMD + thread-tiled kernel is measured
/// against (trimmed to the two families the contour charges).
std::vector<engine::SimTime> recost_batch_pr7(
    const replay::StatsTape& tape,
    const std::vector<replay::CostPointSpec>& points) {
  std::vector<engine::SimTime> totals;
  totals.reserve(points.size());
  const std::size_t n = tape.size();

  std::vector<double> msg_h(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg_h[i] = charge::flit_h(tape.max_sent[i], tape.max_received[i]);
  }

  std::unordered_map<std::uint64_t, std::vector<double>> cm_arrays;
  for (const replay::CostPointSpec& point : points) {
    if (point.family != replay::ModelFamily::kBspM) continue;
    auto [it, inserted] = cm_arrays.try_emplace(cm_key(point.m, point.penalty));
    if (!inserted) continue;
    std::vector<double>& cm = it->second;
    cm.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      engine::SimTime c = 0.0;
      for (std::uint64_t m_t : tape.slots(i)) {
        c += core::overload_charge(m_t, point.m, point.penalty);
      }
      cm[i] = c;
    }
  }

  const double* w = tape.max_work.data();
  for (const replay::CostPointSpec& point : points) {
    engine::SimTime total = 0.0;
    if (point.family == replay::ModelFamily::kBspG) {
      const charge::BspG f{point.g, point.L};
      for (std::size_t i = 0; i < n; ++i) total += f(w[i], msg_h[i]);
    } else {
      const charge::BspM f{point.L};
      const double* cm = cm_arrays.at(cm_key(point.m, point.penalty)).data();
      for (std::size_t i = 0; i < n; ++i) total += f(w[i], msg_h[i], cm[i]);
    }
    totals.push_back(total);
  }
  return totals;
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Cells whose column or row time differs from the reference cross
/// product (point 2c is cell c's BSP(g) time, 2c + 1 its BSP(m) time).
std::size_t count_mismatches(const std::vector<engine::SimTime>& marginals,
                             std::size_t columns,
                             const std::vector<engine::SimTime>& reference) {
  const std::size_t cells = reference.size() / 2;
  if (marginals.size() != columns + cells / columns) return cells;
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (!bits_equal(marginals[c % columns], reference[2 * c]) ||
        !bits_equal(marginals[columns + c / columns], reference[2 * c + 1])) {
      ++mismatches;
    }
  }
  return mismatches;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-`repeat` wall time of `fn` (which returns the charged vector);
/// the last run's output lands in `out`.
template <typename Fn>
double best_of(int repeat, std::vector<engine::SimTime>& out, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    out = fn();
    const double secs = seconds_since(start);
    if (r == 0 || secs < best) best = secs;
  }
  return best;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  // Flag/parameter violations surface as invalid_argument from the CLI
  // or the model constructors; report and exit 2 instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_contour: " << e.what() << "\n";
    return 2;
  }
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.get_bool("help")) {
    std::cout
        << "E22 — contour.map cells per second (marginals + cell fold)\n\n"
        << "usage: " << argv[0] << " [--flag=value ...]\n\n"
        << "  --p=<n>           processors (default 256)\n"
        << "  --h=<n>           messages+reads per proc per superstep "
           "(default 8)\n"
        << "  --supersteps=<n>  communication supersteps (default 128)\n"
        << "  --g_cells=<n>     gap-axis cells (default 1024)\n"
        << "  --m_cells=<n>     bandwidth-axis cells (default 512)\n"
        << "  --repeat=<n>      timed repetitions, best kept (default 3)\n"
        << "  --seed=<n>        RNG seed (default 1)\n"
        << "  --out=<file>      also write results as JSON to <file>\n";
    return 0;
  }
  const auto p = static_cast<std::uint32_t>(cli.get_int("p", 256));
  const auto h = static_cast<std::uint32_t>(cli.get_int("h", 8));
  const auto rounds = static_cast<std::uint64_t>(cli.get_int("supersteps", 128));
  const auto g_cells = static_cast<std::size_t>(cli.get_int("g_cells", 1024));
  const auto m_cells = static_cast<std::size_t>(cli.get_int("m_cells", 512));
  const int repeat = std::max(1, static_cast<int>(cli.get_int("repeat", 3)));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // Capture once.
  replay::TapeRecorder recorder;
  {
    core::ModelParams prm;
    prm.p = p;
    const core::BspM capture_model(prm);
    engine::MachineOptions options;
    options.seed = seed;
    options.tape_recorder = &recorder;
    Workload program(h, rounds);
    engine::Machine machine(capture_model, options);
    (void)machine.run(program);
  }
  const auto& tape = recorder.tapes().front();

  const std::vector<double> gs = log_axis(g_cells, 1024.0);
  const auto m_axis = log_axis(m_cells, 4096.0);
  std::vector<std::uint32_t> ms;
  ms.reserve(m_axis.size());
  for (const double m : m_axis) {
    ms.push_back(static_cast<std::uint32_t>(std::max(1.0, std::round(m))));
  }
  constexpr double kL = 16.0;
  const std::vector<replay::CostPointSpec> specs = contour_points(gs, ms, kL);
  const std::size_t cells = g_cells * m_cells;

  // Baseline: the PR 7 kernel on the cross product, single thread.
  std::vector<engine::SimTime> reference;
  const double ref_secs =
      best_of(repeat, reference, [&] { return recost_batch_pr7(tape, specs); });

  // What contour.map runs: the marginals in one grid, then the cell fold.
  const replay::ModelFamily families[] = {replay::ModelFamily::kBspG,
                                          replay::ModelFamily::kBspM};
  const double Ls[] = {kL};
  const core::Penalty penalties[] = {core::Penalty::kExponential};
  const replay::CostGrid marginals{families, gs, Ls, ms, penalties};
  double fold_sink = 0.0;
  replay::BatchInfo info;
  const auto contour = [&](util::ThreadPool* pool) {
    std::vector<engine::SimTime> times =
        replay::recost_batch(tape, {&marginals, 1}, pool, &info);
    double sum = 0.0;
    for (std::size_t c = 0; c < cells; ++c) {
      sum += std::min(times[c % g_cells], times[g_cells + c / g_cells]);
    }
    fold_sink += sum;
    return times;
  };

  // Every compiled+supported SIMD path, single-threaded, pinned.
  std::size_t mismatches = 0;
  util::Json path_json = util::Json::object();
  for (const simd::Path path : replay::available_kernel_paths()) {
    const simd::ScopedPath pin(path);
    std::vector<engine::SimTime> out;
    const double secs = best_of(repeat, out, [&] { return contour(nullptr); });
    mismatches += count_mismatches(out, g_cells, reference);
    util::Json entry = util::Json::object();
    entry["batch_s"] = util::Json(secs);
    entry["cells_per_s"] = util::Json(static_cast<double>(cells) / secs);
    entry["speedup_vs_pr7"] = util::Json(ref_secs / secs);
    path_json[simd::path_name(path)] = std::move(entry);
  }

  // Default path + thread pool: what campaign/planner callers get.
  util::ThreadPool pool;
  std::vector<engine::SimTime> batched;
  const double batch_secs =
      best_of(repeat, batched, [&] { return contour(&pool); });
  mismatches += count_mismatches(batched, g_cells, reference);

  // Independent anchor: sampled points against per-point scalar recost().
  for (std::size_t i = 0; i < specs.size(); i += 4099) {
    core::ModelParams prm;
    prm.p = p;
    prm.g = specs[i].g;
    prm.L = specs[i].L;
    prm.m = specs[i].m;
    std::unique_ptr<core::ModelBase> model;
    if (specs[i].family == replay::ModelFamily::kBspG) {
      model = std::make_unique<core::BspG>(prm);
    } else {
      model = std::make_unique<core::BspM>(prm, specs[i].penalty);
    }
    if (!bits_equal(replay::recost(tape, *model).total_time, reference[i])) {
      ++mismatches;
    }
  }

  util::Json doc = util::Json::object();
  doc["bench"] = util::Json("contour");
  doc["p"] = util::Json(static_cast<double>(p));
  doc["h"] = util::Json(static_cast<double>(h));
  doc["supersteps"] = util::Json(static_cast<double>(rounds));
  doc["g_cells"] = util::Json(static_cast<double>(g_cells));
  doc["m_cells"] = util::Json(static_cast<double>(m_cells));
  doc["cells"] = util::Json(static_cast<double>(cells));
  doc["points"] = util::Json(static_cast<double>(info.points));
  doc["ref_pr7_s"] = util::Json(ref_secs);
  doc["ref_pr7_cells_per_s"] =
      util::Json(static_cast<double>(cells) / ref_secs);
  doc["paths"] = std::move(path_json);
  doc["simd"] = util::Json(simd::path_name(info.path));
  doc["threads"] = util::Json(static_cast<double>(info.threads));
  doc["batch_s"] = util::Json(batch_secs);
  doc["batch_cells_per_s"] =
      util::Json(static_cast<double>(cells) / batch_secs);
  doc["speedup_vs_pr7"] = util::Json(ref_secs / batch_secs);
  doc["fold_checksum"] = util::Json(fold_sink);
  doc["bit_equal"] = util::Json(mismatches == 0);
  std::cout << doc.dump() << "\n";

  const std::string out = cli.get("out");
  if (!out.empty()) {
    std::ofstream file(out);
    file << doc.dump() << "\n";
    if (!file) {
      std::cerr << "bench_contour: cannot write " << out << "\n";
      return 1;
    }
  }
  return mismatches == 0 ? 0 : 1;
}
