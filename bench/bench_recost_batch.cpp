// E21 — batched recosting throughput vs per-point scalar recost.
//
// Captures one StatsTape of a fixed message+shared-memory workload, then
// charges a dense cost grid (all five families over g x L x m x penalty,
// each family crossing only the axes it reads) two ways:
//
//   * scalar — one replay::recost() tape traversal per grid point (the E20
//              fast path, already ~10^3x the simulator);
//   * batch  — ONE replay::recost_batch() call for the whole grid: per-step
//              cost terms and per-(m, penalty) aggregate charges derived
//              once, then SIMD charge kernels over lanes filled from the
//              grid's axes.
//
// Both paths are bit-equal per point (verified here; it is the recost_batch
// contract), so the wall-clock ratio is pure kernel speedup — what a
// planner envelope or a campaign's cost-only sub-grid gains from the
// batch path.  Emits one JSON document on stdout (or --out=FILE).
//
//   ./bench_recost_batch [--p=256] [--h=8] [--supersteps=16]
//                        [--points=20000] [--seed=1]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "planner/planner.hpp"
#include "replay/batch.hpp"
#include "replay/recorder.hpp"
#include "replay/tape.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace pbw;

/// Random h-relation plus contended reads, every superstep (same workload
/// as E20 bench_replay, so the tapes are comparable).
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

/// The grid: all five families over g = 1..7, m = 1, 17, .., 241, both
/// penalties, and an L axis 1, 2, .. long enough that the grid holds about
/// `points` points.  Each L value adds 7 BSP(g), 32 BSP(m) and 16 SS-BSP(m)
/// points; QSM(g) and QSM(m) add 7 + 32 once.
planner::Envelope grid_envelope(std::size_t points) {
  planner::Envelope envelope;
  envelope.g.clear();
  for (int k = 1; k <= 7; ++k) envelope.g.push_back(k);
  envelope.m.clear();
  for (std::uint32_t k = 0; k < 16; ++k) envelope.m.push_back(1 + 16 * k);
  envelope.penalties = {core::Penalty::kLinear, core::Penalty::kExponential};
  const std::size_t per_L = 7 + 32 + 16;
  const std::size_t L_values = points > 39 + per_L ? (points - 39) / per_L : 1;
  envelope.L.clear();
  for (std::size_t k = 1; k <= L_values; ++k) {
    envelope.L.push_back(static_cast<double>(k));
  }
  return envelope;
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.get_bool("help")) {
    std::cout << "E21 — batched recost throughput vs per-point recost\n\n"
              << "usage: " << argv[0] << " [--flag=value ...]\n\n"
              << "  --p=<n>           processors (default 256)\n"
              << "  --h=<n>           messages+reads per proc per superstep "
                 "(default 8)\n"
              << "  --supersteps=<n>  communication supersteps (default 16)\n"
              << "  --points=<n>      cost grid points, about (default 20000)\n"
              << "  --seed=<n>        RNG seed (default 1)\n"
              << "  --out=<file>      also write results as JSON to <file>\n";
    return 0;
  }
  const auto p = static_cast<std::uint32_t>(cli.get_int("p", 256));
  const auto h = static_cast<std::uint32_t>(cli.get_int("h", 8));
  const auto rounds =
      static_cast<std::uint64_t>(cli.get_int("supersteps", 16));
  const auto points = static_cast<std::size_t>(cli.get_int("points", 20000));
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

  const planner::Envelope envelope = grid_envelope(points);
  const replay::CostGrid grid = envelope.grid();
  const std::vector<replay::CostPointSpec> specs = envelope.enumerate();
  const std::size_t charged = specs.size();

  // Scalar: one recost() traversal per point.
  std::vector<double> scalar(charged);
  const auto scalar_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < charged; ++i) {
    const auto model = planner::make_model(p, specs[i]);
    scalar[i] = replay::recost(tape, *model).total_time;
  }
  const double scalar_secs = seconds_since(scalar_start);

  // Batch: one recost_batch() call for the whole grid.
  const auto batch_start = std::chrono::steady_clock::now();
  const std::vector<engine::SimTime> batched =
      replay::recost_batch(tape, {&grid, 1});
  const double batch_secs = seconds_since(batch_start);

  std::size_t mismatches = batched.size() == charged ? 0 : 1;
  for (std::size_t i = 0; i < std::min(charged, batched.size()); ++i) {
    if (!bits_equal(scalar[i], batched[i])) ++mismatches;
  }

  util::Json doc = util::Json::object();
  doc["bench"] = util::Json("recost_batch");
  doc["p"] = util::Json(static_cast<double>(p));
  doc["h"] = util::Json(static_cast<double>(h));
  doc["supersteps"] = util::Json(static_cast<double>(rounds));
  doc["points"] = util::Json(static_cast<double>(charged));
  doc["scalar_s"] = util::Json(scalar_secs);
  doc["batch_s"] = util::Json(batch_secs);
  doc["scalar_points_per_s"] =
      util::Json(static_cast<double>(charged) / scalar_secs);
  doc["batch_points_per_s"] =
      util::Json(static_cast<double>(charged) / batch_secs);
  doc["speedup_batch"] = util::Json(scalar_secs / batch_secs);
  doc["bit_equal"] = util::Json(mismatches == 0);
  std::cout << doc.dump() << "\n";

  const std::string out = cli.get("out");
  if (!out.empty()) {
    std::ofstream file(out);
    file << doc.dump() << "\n";
    if (!file) {
      std::cerr << "bench_recost_batch: cannot write " << out << "\n";
      return 1;
    }
  }
  return mismatches == 0 ? 0 : 1;
}
