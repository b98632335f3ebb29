// Cross-module integration tests: the engine fast-path equivalence, the
// Section 4 grouping emulation run end-to-end, trace-report attribution,
// the CountN + Unbalanced-Send pipeline (the full Theorem 6.2 protocol
// with unknown n), sojourn bounds in the dynamic setting, and consistency
// between the closed-form bounds and the measured algorithms.
#include <gtest/gtest.h>

#include <cmath>

#include "pbw.hpp"
#include "aqt/adversary.hpp"
#include "aqt/dynamic.hpp"
#include "algos/broadcast.hpp"
#include "algos/one_to_all.hpp"
#include "algos/prefix.hpp"
#include "core/bounds.hpp"
#include "core/model/emulation.hpp"
#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "replay/recorder.hpp"
#include "sched/count_n.hpp"
#include "sched/runner.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"

namespace {

using namespace pbw;

core::ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

// The engine-computed superstep cost must equal the schedule fast path on
// arbitrary workloads and both penalties — the AQT simulations rely on it.
TEST(Integration, EngineMatchesFastPathAcrossWorkloads) {
  util::Xoshiro256 rng(1);
  const std::uint32_t p = 64, m = 8;
  for (auto penalty : {core::Penalty::kLinear, core::Penalty::kExponential}) {
    const core::BspM model(params(p, 8, m, 4), penalty);
    for (int kind = 0; kind < 3; ++kind) {
      const auto rel = kind == 0   ? sched::balanced_relation(p, 16, rng)
                       : kind == 1 ? sched::point_skew_relation(p, 1024, 0.7, rng)
                                   : sched::variable_length_relation(p, 256, 6, 0.2, rng);
      const auto schedule = kind == 2
                                ? sched::long_message_schedule(
                                      rel, m, 0.25, rel.total_flits(), rng)
                                : sched::unbalanced_send_schedule(
                                      rel, m, 0.25, rel.total_flits(), rng);
      const auto run = sched::route_relation(model, rel, schedule, m, 4);
      const auto fast = sched::evaluate_schedule(rel, schedule, m, penalty, 4);
      EXPECT_DOUBLE_EQ(run.send_time, fast.total)
          << "penalty=" << static_cast<int>(penalty) << " kind=" << kind;
      EXPECT_TRUE(run.delivered);
    }
  }
}

// Section 4 preamble: a BSP(g) algorithm emulated on the BSP(m) by the
// grouping schedule costs (within rounding) the BSP(g) time.
TEST(Integration, GroupingEmulationPreservesTime) {
  util::Xoshiro256 rng(2);
  const std::uint32_t p = 128, m = 16;
  const double g = p / m, L = 4;
  const auto rel = sched::balanced_relation(p, 8, rng);

  const core::BspG local(params(p, g, m, L));
  const auto on_g =
      sched::route_relation(local, rel, sched::naive_schedule(rel), m, L);

  const core::BspM global(params(p, g, m, L), core::Penalty::kExponential);
  const auto on_m = sched::route_relation(global, rel,
                                          sched::emulation_schedule(rel, g), m, L);
  EXPECT_TRUE(on_m.within_limit);
  // "With the same time bound": the emulation never costs more than the
  // BSP(g) run (it can cost less — here the g-model also pays g x the
  // receive imbalance), and it occupies exactly g * xbar slots.
  EXPECT_LE(on_m.send_time, on_g.send_time + 1e-9);
  EXPECT_GE(on_m.send_time, g * static_cast<double>(rel.max_sent()) - 1e-9);
}

// Full Theorem 6.2 protocol with n UNKNOWN: run CountN on the engine,
// hand its result to the scheduler, and confirm the end-to-end time is
// bounded by the theorem's expression.
TEST(Integration, UnknownNPipeline) {
  util::Xoshiro256 rng(3);
  const std::uint32_t p = 128, m = 16;
  const double L = 4, eps = 0.5;
  const core::BspM model(params(p, p / m, m, L));
  const auto rel = sched::point_skew_relation(p, 4096, 0.4, rng);

  std::vector<std::uint64_t> x(p);
  for (std::uint32_t i = 0; i < p; ++i) x[i] = rel.sent_by(i);
  const auto counted = sched::count_and_broadcast(model, x, m,
                                                  static_cast<std::uint32_t>(L));
  ASSERT_TRUE(counted.all_procs_agree);
  ASSERT_EQ(counted.n, rel.total_flits());

  const auto schedule = sched::unbalanced_send_schedule(rel, m, eps, counted.n, rng);
  const auto run = sched::route_relation(model, rel, schedule, m, L);
  const double bound = core::bounds::unbalanced_send_bound(
      counted.n, rel.max_sent(), rel.max_received(), p, m, L, eps);
  EXPECT_LE(run.send_time + counted.time, 4 * bound);
  EXPECT_TRUE(run.delivered);
}

// Prefix sums give the same total CountN computes, at comparable cost.
TEST(Integration, PrefixAndCountNAgree) {
  const std::uint32_t p = 256, m = 16;
  const double L = 4;
  const core::BspM model(params(p, p / m, m, L));
  std::vector<engine::Word> inputs(p);
  std::vector<std::uint64_t> counts(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    inputs[i] = static_cast<engine::Word>(i % 7);
    counts[i] = static_cast<std::uint64_t>(i % 7);
  }
  const auto prefix = algos::prefix_sums_bsp(model, inputs, m,
                                             static_cast<std::uint32_t>(L));
  const auto counted = sched::count_and_broadcast(model, counts, m,
                                                  static_cast<std::uint32_t>(L));
  ASSERT_TRUE(prefix.correct);
  ASSERT_TRUE(counted.all_procs_agree);
  EXPECT_EQ(static_cast<std::uint64_t>(prefix.total), counted.n);
  EXPECT_LE(prefix.time, 4 * counted.time + 4 * L);
}

// ---- trace report -----------------------------------------------------------

TEST(Integration, TraceReportAttributesAggregateBoundSupersteps) {
  // One-to-all on BSP(m): the sending superstep is c_m/h-bound, the drain
  // superstep is L-bound.
  class OneToAll final : public engine::SuperstepProgram {
   public:
    bool step(engine::ProcContext& ctx) override {
      if (ctx.superstep() == 0) {
        if (ctx.id() == 0) {
          for (engine::ProcId i = 1; i < ctx.p(); ++i) ctx.send(i, 1, i);
        }
        return true;
      }
      return false;
    }
  } prog;
  const auto prm = params(64, 8, 8, 4);
  const core::BspM model(prm);
  replay::TapeRecorder recorder;
  engine::MachineOptions opts;
  opts.tape_recorder = &recorder;
  engine::Machine machine(model, opts);
  const auto run = machine.run(prog);
  const auto breakdown = replay::term_totals(recorder.tapes().front(), model);
  EXPECT_EQ(breakdown.supersteps, 2u);
  EXPECT_DOUBLE_EQ(breakdown.total, run.total_time);
  // Superstep 0: h = c_m = 63 dominates; tie goes to the gap term.
  const auto& by = breakdown.by_term;
  EXPECT_GT(by.gh + by.h + by.cm, 0.0);
  EXPECT_DOUBLE_EQ(by.L, 4.0);
}

TEST(Integration, TraceReportWorkBound) {
  class Worker final : public engine::SuperstepProgram {
   public:
    bool step(engine::ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.charge(1000);
      return true;
    }
  } prog;
  const auto prm = params(8, 2, 4, 2);
  const core::BspG model(prm);
  replay::TapeRecorder recorder;
  engine::MachineOptions opts;
  opts.tape_recorder = &recorder;
  engine::Machine machine(model, opts);
  machine.run(prog);
  const auto breakdown = replay::term_totals(recorder.tapes().front(), model);
  EXPECT_DOUBLE_EQ(breakdown.by_term.w, 1000.0);
  EXPECT_GT(breakdown.by_term.w / breakdown.total, 0.99);
}

TEST(Integration, TraceReportQsmContention) {
  class HotRead final : public engine::SuperstepProgram {
   public:
    void setup(engine::Machine& m) override { m.resize_shared(4); }
    bool step(engine::ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.read(0, ctx.id() / 4 + 1);  // all processors read cell 0
      return true;
    }
  } prog;
  const auto prm = params(64, 2, 16, 1);
  const core::QsmM model(prm);
  replay::TapeRecorder recorder;
  engine::MachineOptions opts;
  opts.tape_recorder = &recorder;
  engine::Machine machine(model, opts);
  machine.run(prog);
  const auto breakdown = replay::term_totals(recorder.tapes().front(), model);
  EXPECT_GT(breakdown.by_term.kappa, 0.0);  // kappa = 64 dominates
}

// ---- dynamic sojourn ----------------------------------------------------------

TEST(Integration, SojournBoundedWhenStable) {
  const std::uint32_t p = 32, m = 8, w = 128;
  aqt::AqtParams prm{p, /*alpha=*/0.5 * m, /*beta=*/0.4, w};
  auto adv = aqt::make_rotating_hotspot(prm);
  const auto r = aqt::run_algorithm_b(*adv, m, 0.25, 300, 4,
                                      aqt::BatchPolicy::kUnbalancedSend);
  ASSERT_TRUE(r.stable);
  // Theorem 6.7: expected sojourn O(w^2/u); with ample slack the mean
  // stays within a few windows.
  EXPECT_LE(r.mean_sojourn, 4.0 * w);
  EXPECT_GE(r.mean_sojourn, 0.0);
}

TEST(Integration, SojournDivergesWhenUnstable) {
  const std::uint32_t p = 32, m = 4, w = 128;
  aqt::AqtParams prm{p, /*alpha=*/1.5 * m, /*beta=*/0.5, w};
  auto adv = aqt::make_steady(prm);
  const auto r = aqt::run_algorithm_b(*adv, m, 0.25, 300, 4,
                                      aqt::BatchPolicy::kUnbalancedSend);
  EXPECT_FALSE(r.stable);
  EXPECT_GT(r.max_sojourn, 20.0 * w);
}

// ---- broadcast consistency across the model grid -----------------------------

TEST(Integration, BroadcastBeatsOneToAllLowerBoundStructure) {
  // Broadcasting one value is never slower than one-to-all personalized
  // (a broadcast could be implemented by p-1 distinct sends).
  const std::uint32_t p = 512, m = 32;
  const auto prm = params(p, p / m, m, 8);
  const core::BspM model(prm);
  const auto bcast = algos::broadcast_bsp_m(model, m, 8, 5);
  const auto o2a = algos::one_to_all_bsp(model);
  ASSERT_TRUE(bcast.correct && o2a.correct);
  EXPECT_LT(bcast.time, o2a.time);
}

// The umbrella header compiles and exposes the whole API (smoke use of a
// few symbols from each module).
TEST(Integration, UmbrellaHeaderWorks) {
  const auto prm = core::ModelParams::matched(8, 2, 2);
  const core::BspM model(prm);
  engine::Machine machine(model);
  EXPECT_EQ(machine.p(), 8u);
  EXPECT_GT(core::bounds::lg(16), 0.0);
}

// Randomized QSM programs must be host-thread invariant too (the list
// ranker draws coins from per-(proc, superstep) streams).
TEST(Integration, ListRankingDeterministicAcrossThreads) {
  const auto succ = algos::random_list(256, 11);
  core::ModelParams prm;
  prm.p = 256;
  prm.g = 8;
  prm.m = 32;
  prm.L = 1;
  const core::QsmM model(prm);
  engine::MachineOptions seq;
  seq.threads = 1;
  engine::MachineOptions par;
  par.threads = 4;
  const auto a = algos::list_rank_qsm(model, succ, 32, 32, seq);
  const auto b = algos::list_rank_qsm(model, succ, 32, 32, par);
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.supersteps, b.supersteps);
}

TEST(Integration, MatchedPairOrderingHoldsEverywhere) {
  // For every problem we implement on both members of a matched pair, the
  // globally-limited model is never slower (it can always emulate).
  util::Xoshiro256 rng(4);
  const std::uint32_t p = 256, m = 16;
  const auto prm = params(p, p / m, m, 8);
  const core::BspG local(prm);
  const core::BspM global(prm);

  EXPECT_LE(algos::one_to_all_bsp(global).time, algos::one_to_all_bsp(local).time);
  EXPECT_LE(algos::broadcast_bsp_m(global, m, 8, 1).time,
            algos::broadcast_bsp_tree(local, 1, 1).time);

  const auto rel = sched::zipf_relation(p, 4096, 1.0, rng);
  const auto schedule =
      sched::unbalanced_send_schedule(rel, m, 0.25, rel.total_flits(), rng);
  EXPECT_LE(sched::route_relation(global, rel, schedule, m, 8).send_time,
            sched::route_relation(local, rel, sched::naive_schedule(rel), m, 8)
                .send_time);
}

}  // namespace
