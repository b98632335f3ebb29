// Determinism harness for the parallel superstep engine: the merge phase
// shards routing and accounting across host threads, and its contract is
// that RunResult — total_time, every counter, the full per-superstep stats
// tape and the shared-memory image — is bit-identical for every --threads
// value.
// Exercised over randomized message traffic (long messages, work charges),
// a shared-memory contention mix, and the Table 1 algorithm scenarios.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/broadcast.hpp"
#include "algos/list_ranking.hpp"
#include "algos/one_to_all.hpp"
#include "algos/reduce.hpp"
#include "algos/sorting.hpp"
#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "obs/export.hpp"
#include "replay/recorder.hpp"

namespace {

using namespace pbw;
using engine::Machine;
using engine::MachineOptions;
using engine::ProcContext;
using engine::RunResult;
using engine::SuperstepProgram;

core::ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

/// Thread counts under test: serial, even and odd shardings, hardware.
std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts{1, 2, 3, 8};
  const auto hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  bool seen = false;
  for (auto c : counts) seen = seen || c == hw;
  if (!seen) counts.push_back(hw);
  return counts;
}

void expect_stats_identical(const engine::SuperstepStats& a,
                            const engine::SuperstepStats& b) {
  EXPECT_EQ(a.max_work, b.max_work);  // exact double equality: bit-identical
  EXPECT_EQ(a.max_sent, b.max_sent);
  EXPECT_EQ(a.max_received, b.max_received);
  EXPECT_EQ(a.total_flits, b.total_flits);
  EXPECT_EQ(a.max_reads, b.max_reads);
  EXPECT_EQ(a.max_writes, b.max_writes);
  EXPECT_EQ(a.kappa, b.kappa);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.slot_counts, b.slot_counts);
}

/// A run's result and the tape it recorded.
struct Captured {
  RunResult run;
  replay::TapeRecorder recorder;
  [[nodiscard]] const replay::StatsTape& tape() const {
    return recorder.tapes().front();
  }
};

void expect_identical(const Captured& a, const Captured& b,
                      const engine::CostModel& model) {
  EXPECT_EQ(a.run.total_time, b.run.total_time);  // exact double equality
  EXPECT_EQ(a.run.supersteps, b.run.supersteps);
  EXPECT_EQ(a.run.total_messages, b.run.total_messages);
  EXPECT_EQ(a.run.total_flits, b.run.total_flits);
  EXPECT_EQ(a.run.total_reads, b.run.total_reads);
  EXPECT_EQ(a.run.total_writes, b.run.total_writes);
  ASSERT_EQ(a.tape().size(), b.tape().size());
  const auto costs_a = replay::recost(a.tape(), model).costs;
  const auto costs_b = replay::recost(b.tape(), model).costs;
  for (std::size_t s = 0; s < a.tape().size(); ++s) {
    EXPECT_EQ(costs_a[s], costs_b[s]);
    expect_stats_identical(a.tape().step(s), b.tape().step(s));
  }
}

/// Randomized message traffic: variable-length messages, work charges, and
/// inbox-dependent state so any ordering or routing slip shows up.  The
/// hashes wrap in unsigned arithmetic; a signed Word would overflow.
class TrafficProgram final : public SuperstepProgram {
 public:
  explicit TrafficProgram(std::uint32_t p) : acc_(p, 0) {}
  bool step(ProcContext& ctx) override {
    if (ctx.superstep() >= 6) return false;
    ctx.charge(static_cast<double>(ctx.rng().below(50)) / 8.0);
    const int sends = 1 + static_cast<int>(ctx.rng().below(3));
    for (int k = 0; k < sends; ++k) {
      const auto dst = static_cast<engine::ProcId>(ctx.rng().below(ctx.p()));
      const auto len = 1 + static_cast<std::uint32_t>(ctx.rng().below(3));
      ctx.send(dst, static_cast<engine::Word>(ctx.rng().below(1u << 20)), 0, len);
    }
    for (const auto& m : ctx.inbox()) {
      acc_[ctx.id()] = acc_[ctx.id()] * 31 + static_cast<std::uint64_t>(m.payload) +
                       m.src + m.slot;
    }
    return true;
  }
  std::vector<std::uint64_t> acc_;
};

TEST(Determinism, MessageTrafficBitIdenticalAcrossThreads) {
  const core::BspM model(params(96, 2, 12, 2));
  Captured ref_run;
  MachineOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.tape_recorder = &ref_run.recorder;
  TrafficProgram ref(96);
  Machine ref_machine(model, ref_opts);
  ref_run.run = ref_machine.run(ref);

  for (const auto threads : thread_counts()) {
    Captured run;
    MachineOptions opts;
    opts.threads = threads;
    opts.tape_recorder = &run.recorder;
    TrafficProgram prog(96);
    Machine machine(model, opts);
    run.run = machine.run(prog);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(ref_run, run, model);
    EXPECT_EQ(ref.acc_, prog.acc_);
  }
}

/// Shared-memory mix: even supersteps write a random cell of the write
/// region, odd supersteps read random cells (contended), so kappa, the
/// Arbitrary write rule, and read delivery are all exercised.
class SharedMixProgram final : public SuperstepProgram {
 public:
  explicit SharedMixProgram(std::uint32_t p) : sum_(p, 0) {}
  void setup(Machine& m) override { m.resize_shared(192); }
  bool step(ProcContext& ctx) override {
    if (ctx.superstep() >= 6) return false;
    if (ctx.superstep() % 2 == 0) {
      ctx.write(ctx.rng().below(192),
                static_cast<engine::Word>(ctx.id() * 1000 + ctx.superstep()));
    } else {
      ctx.read(ctx.rng().below(192));
      ctx.read(ctx.rng().below(192));
    }
    for (const auto v : ctx.reads()) {
      sum_[ctx.id()] = sum_[ctx.id()] * 17 + static_cast<std::uint64_t>(v);
    }
    return true;
  }
  std::vector<std::uint64_t> sum_;
};

TEST(Determinism, SharedMemoryBitIdenticalAcrossThreads) {
  const core::QsmM model(params(64, 2, 8, 1));
  Captured ref_run;
  MachineOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.tape_recorder = &ref_run.recorder;
  SharedMixProgram ref(64);
  Machine ref_machine(model, ref_opts);
  ref_run.run = ref_machine.run(ref);
  std::vector<engine::Word> ref_cells;
  for (std::size_t a = 0; a < ref_machine.shared_size(); ++a) {
    ref_cells.push_back(ref_machine.shared_at(a));
  }

  for (const auto threads : thread_counts()) {
    Captured run;
    MachineOptions opts;
    opts.threads = threads;
    opts.tape_recorder = &run.recorder;
    SharedMixProgram prog(64);
    Machine machine(model, opts);
    run.run = machine.run(prog);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(ref_run, run, model);
    EXPECT_EQ(ref.sum_, prog.sum_);
    ASSERT_EQ(machine.shared_size(), ref_cells.size());
    for (std::size_t a = 0; a < ref_cells.size(); ++a) {
      EXPECT_EQ(machine.shared_at(a), ref_cells[a]) << "cell " << a;
    }
  }
}

/// The exported cost-attribution trace inherits the engine's determinism
/// contract: the JSONL bytes (which include every cost component and the
/// dominant-term verdict of every superstep) must be identical for every
/// host thread count.
TEST(Determinism, TraceExportByteIdenticalAcrossThreads) {
  const core::BspM model(params(96, 2, 12, 2));
  auto trace_bytes = [&](std::size_t threads) {
    replay::TapeRecorder recorder;
    MachineOptions opts;
    opts.threads = threads;
    opts.tape_recorder = &recorder;
    TrafficProgram prog(96);
    Machine machine(model, opts);
    (void)machine.run(prog);
    std::ostringstream out;
    obs::write_jsonl({replay::trace_run(recorder.tapes().front(), model)}, out);
    return out.str();
  };

  const std::string reference = trace_bytes(1);
  EXPECT_FALSE(reference.empty());
  for (const auto threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(trace_bytes(threads), reference);
  }
}

/// The Table 1 scenarios: every algorithm of the campaign's table1 registry
/// must report identical model time / supersteps / correctness at any host
/// thread count.
TEST(Determinism, Table1ScenariosIdenticalAcrossThreads) {
  const std::uint32_t p = 256;
  const double g = 8;
  const std::uint32_t m = 32;
  const auto prm = params(p, g, m, 4);
  const core::BspG bsp_g(prm);
  const core::BspM bsp_m(prm);
  const core::QsmG qsm_g(prm);
  const core::QsmM qsm_m(prm);

  util::Xoshiro256 rng(7);
  std::vector<engine::Word> inputs(p);
  for (auto& x : inputs) x = static_cast<engine::Word>(rng.below(1 << 20));
  const auto succ = algos::random_list(p, 11);

  struct Baseline {
    const char* name;
    algos::AlgoResult result;
  };
  auto run_all = [&](MachineOptions opts) {
    return std::vector<Baseline>{
        {"one_to_all.bsp_g", algos::one_to_all_bsp(bsp_g, opts)},
        {"one_to_all.bsp_m", algos::one_to_all_bsp(bsp_m, opts)},
        {"one_to_all.qsm_m", algos::one_to_all_qsm(qsm_m, m, opts)},
        {"broadcast.bsp_m", algos::broadcast_bsp_m(bsp_m, m, 4, 7, opts)},
        {"broadcast.qsm_g", algos::broadcast_qsm_g(qsm_g, 8, 7, opts)},
        {"summation.bsp_m",
         algos::reduce_bsp(bsp_m, inputs, m, 4, algos::ReduceOp::kSum, opts)},
        {"parity.qsm_m",
         algos::reduce_qsm(qsm_m, inputs, m, 2, m, algos::ReduceOp::kXor, opts)},
        {"list_ranking.qsm_m", algos::list_rank_qsm(qsm_m, succ, m, m, opts)},
        {"sorting.bsp_m", algos::sample_sort_bsp(bsp_m, inputs, m, 4, opts)},
    };
  };

  MachineOptions ref_opts;
  ref_opts.threads = 1;
  const auto reference = run_all(ref_opts);
  for (const auto& base : reference) {
    EXPECT_TRUE(base.result.correct) << base.name;
  }

  for (const auto threads : thread_counts()) {
    if (threads == 1) continue;
    MachineOptions opts;
    opts.threads = threads;
    const auto runs = run_all(opts);
    ASSERT_EQ(runs.size(), reference.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(std::string(reference[i].name) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(runs[i].result.time, reference[i].result.time);
      EXPECT_EQ(runs[i].result.supersteps, reference[i].result.supersteps);
      EXPECT_EQ(runs[i].result.correct, reference[i].result.correct);
    }
  }
}

}  // namespace
