// Merge-phase throughput of the superstep engine, recorded as JSON.
//
// Replays one fixed message+shared-memory relation per superstep and
// measures the wall-clock cost of Phase 2 (routing, slot accounting,
// contention, write application) two ways, timed via the
// MachineOptions::profile counters:
//
//   * engine t=1  — the sharded merge on one host thread;
//   * engine t=hw — the sharded merge at hardware concurrency.
//
// Emits one JSON document on stdout (or --out=FILE) so campaign tooling
// can diff merge throughput across revisions.  Items = flits + shared
// requests; mitems_per_s is millions of merged items per second.
//
//   ./bench_engine [--supersteps=64] [--trials=5] [--fanout=8] [--seed=1]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace pbw;
using engine::Addr;
using engine::ProcId;

/// One processor's traffic, identical every superstep: fanout messages of
/// 1-3 flits to pseudorandom destinations plus a few shared-memory writes.
struct Traffic {
  std::uint32_t p = 0;
  std::size_t shared_cells = 0;
  std::vector<std::vector<std::pair<ProcId, std::uint32_t>>> sends;
  std::vector<std::vector<Addr>> writes;
  std::uint64_t flits_per_superstep = 0;
  std::uint64_t requests_per_superstep = 0;
};

Traffic make_traffic(std::uint32_t p, std::uint32_t fanout,
                     std::uint32_t writes_per_proc, std::uint64_t seed) {
  Traffic t;
  t.p = p;
  t.shared_cells = 4ull * p;
  t.sends.resize(p);
  t.writes.resize(p);
  util::Xoshiro256 rng(seed);
  for (std::uint32_t i = 0; i < p; ++i) {
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const auto dst = static_cast<ProcId>(rng.below(p));
      const auto len = 1 + static_cast<std::uint32_t>(rng.below(3));
      t.sends[i].emplace_back(dst, len);
      t.flits_per_superstep += len;
    }
    for (std::uint32_t k = 0; k < writes_per_proc; ++k) {
      t.writes[i].push_back(static_cast<Addr>(rng.below(t.shared_cells)));
      ++t.requests_per_superstep;
    }
  }
  return t;
}

/// Replays the traffic on the real engine for `rounds` supersteps.
class ReplayProgram final : public engine::SuperstepProgram {
 public:
  ReplayProgram(const Traffic& traffic, std::uint64_t rounds)
      : traffic_(traffic), rounds_(rounds) {}
  void setup(engine::Machine& m) override {
    m.resize_shared(traffic_.shared_cells);
  }
  bool step(engine::ProcContext& ctx) override {
    if (ctx.superstep() >= rounds_) return false;
    for (const auto& [dst, len] : traffic_.sends[ctx.id()]) {
      ctx.send(dst, ctx.id(), 0, len);
    }
    for (const auto addr : traffic_.writes[ctx.id()]) {
      ctx.write(addr, ctx.id());
    }
    return true;
  }

 private:
  const Traffic& traffic_;
  std::uint64_t rounds_;
};

struct EngineTiming {
  std::uint64_t merge_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t items = 0;  // flits + shared requests merged per run
};

/// Best-of-`trials` engine merge time via the profile counters.
EngineTiming time_engine(const engine::CostModel& model, const Traffic& traffic,
                         std::uint64_t rounds, int trials, std::size_t threads) {
  engine::MachineOptions opts;
  opts.threads = threads;
  opts.profile = true;
  engine::Machine machine(model, opts);
  EngineTiming best;
  best.merge_ns = UINT64_MAX;
  {
    ReplayProgram warmup(traffic, rounds);
    (void)machine.run(warmup);  // warm-up: grow queues to steady state
  }
  for (int t = 0; t < trials; ++t) {
    ReplayProgram prog(traffic, rounds);
    (void)machine.run(prog);
    const auto& c = machine.counters();
    if (c.merge_ns < best.merge_ns) {
      best.merge_ns = c.merge_ns;
      best.step_ns = c.step_ns;
      best.items = c.merge_flits + c.merge_requests;
    }
  }
  return best;
}

double mitems_per_s(std::uint64_t items, std::uint64_t ns) {
  return ns == 0 ? 0.0 : static_cast<double>(items) * 1e3 /
                             static_cast<double>(ns);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.get_bool("help")) {
    std::cout << "engine merge-phase throughput and thread scaling (host "
                 "wall-clock, not model time)\n\n"
              << "usage: " << argv[0] << " [--flag=value ...]\n\n"
              << "  --supersteps=<n>  supersteps per trial (default 64)\n"
              << "  --trials=<n>      trials per configuration (default 5)\n"
              << "  --fanout=<n>      messages per processor per superstep "
                 "(default 8)\n"
              << "  --writes=<n>      shared-memory writes per processor "
                 "(default 4)\n"
              << "  --seed=<n>        RNG seed (default 1)\n"
              << "  --out=<file>      also write results as JSON to <file>\n";
    return 0;
  }
  const auto rounds =
      static_cast<std::uint64_t>(cli.get_int("supersteps", 64));
  const int trials = static_cast<int>(cli.get_int("trials", 5));
  const auto fanout = static_cast<std::uint32_t>(cli.get_int("fanout", 8));
  const auto writes = static_cast<std::uint32_t>(cli.get_int("writes", 4));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (rounds == 0 || trials <= 0 || fanout == 0) {
    std::cerr << cli.program()
              << ": --supersteps, --trials and --fanout must be positive\n";
    return 2;
  }

  util::Json root = util::Json::object();
  root["bench"] = "engine_merge";
  root["supersteps"] = rounds;
  root["trials"] = trials;
  root["fanout"] = fanout;
  root["writes_per_proc"] = writes;
  root["hardware_threads"] = hw;
  util::Json results = util::Json::array();

  for (const std::uint32_t p : {64u, 256u, 1024u}) {
    const Traffic traffic = make_traffic(p, fanout, writes, seed);
    core::ModelParams prm;
    prm.p = p;
    prm.g = 2;
    prm.m = std::max(1u, p / 2);
    prm.L = 1;
    const core::QsmM model(prm);

    const auto t1 = time_engine(model, traffic, rounds, trials, 1);
    const auto thw = time_engine(model, traffic, rounds, trials, hw);

    util::Json row = util::Json::object();
    row["p"] = p;
    row["flits_per_superstep"] = traffic.flits_per_superstep;
    row["requests_per_superstep"] = traffic.requests_per_superstep;
    util::Json e1 = util::Json::object();
    e1["merge_ns"] = t1.merge_ns;
    e1["step_ns"] = t1.step_ns;
    e1["mitems_per_s"] = mitems_per_s(t1.items, t1.merge_ns);
    row["engine_threads_1"] = std::move(e1);
    util::Json ehw = util::Json::object();
    ehw["threads"] = hw;
    ehw["merge_ns"] = thw.merge_ns;
    ehw["step_ns"] = thw.step_ns;
    ehw["mitems_per_s"] = mitems_per_s(thw.items, thw.merge_ns);
    row["engine_threads_hw"] = std::move(ehw);
    results.push_back(std::move(row));
  }
  root["results"] = std::move(results);

  const std::string out = cli.get("out");
  if (!out.empty()) {
    std::ofstream file(out);
    file << root.dump() << "\n";
  }
  std::cout << root.dump() << "\n";
  return 0;
}
