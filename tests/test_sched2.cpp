// Second wave of scheduling tests: QSM mailbox routing, broad TEST_P
// property sweeps over every scheduler x workload shape, offline-optimal
// optimality against brute force on tiny instances, and failure injection
// on schedule validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "engine/error.hpp"
#include "sched/qsm_routing.hpp"
#include "sched/runner.hpp"
#include "sched/schedule.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"

namespace {

using namespace pbw;
using core::Penalty;
using sched::Relation;
using sched::SlotSchedule;

core::ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

// ---- QSM(m) mailbox routing ("exercise left to the reader") -----------------

TEST(QsmRouting, DeliversBalanced) {
  util::Xoshiro256 rng(1);
  const std::uint32_t p = 64, m = 8;
  const core::QsmM model(params(p, p / m, m, 1));
  const auto rel = sched::balanced_relation(p, 8, rng);
  const auto sched = sched::unbalanced_send_schedule(rel, m, 0.25,
                                                     rel.total_flits(), rng);
  const auto run = sched::route_relation_qsm(model, rel, sched, m, 1);
  EXPECT_TRUE(run.delivered);
  // With m = 8 the Chernoff exponent eps^2 m / 3 is tiny, so a mildly
  // overloaded slot is expected; the exponential charge stays benign.
  EXPECT_LE(run.max_mt, 2ull * m);
  EXPECT_LE(run.ratio, 2.6);  // write + read phases, each ~(1+eps) n/m
}

TEST(QsmRouting, SkewedWithinBound) {
  util::Xoshiro256 rng(2);
  const std::uint32_t p = 128, m = 16;
  const core::QsmM model(params(p, p / m, m, 1));
  const auto rel = sched::point_skew_relation(p, 4096, 0.6, rng);
  const auto sched = sched::unbalanced_send_schedule(rel, m, 0.25,
                                                     rel.total_flits(), rng);
  const auto run = sched::route_relation_qsm(model, rel, sched, m, 1);
  EXPECT_TRUE(run.delivered);
  EXPECT_LE(run.ratio, 2.6);
}

TEST(QsmRouting, QsmGPaysGapFactor) {
  util::Xoshiro256 rng(3);
  const std::uint32_t p = 128, m = 16;
  const double g = p / m;
  const core::QsmM global(params(p, g, m, 1));
  const core::QsmG local(params(p, g, m, 1));
  const auto rel = sched::point_skew_relation(p, 4096, 0.6, rng);
  const auto sched = sched::unbalanced_send_schedule(rel, m, 0.25,
                                                     rel.total_flits(), rng);
  const auto on_m = sched::route_relation_qsm(global, rel, sched, m, 1);
  const auto on_g = sched::route_relation_qsm(local, rel, sched, m, 1);
  ASSERT_TRUE(on_m.delivered && on_g.delivered);
  EXPECT_GT(on_g.send_time / on_m.send_time, g / 4);
}

TEST(QsmRouting, RejectsLongMessages) {
  Relation rel(4);
  rel.add(0, 1, 3);
  const core::QsmM model(params(4, 2, 2, 1));
  EXPECT_THROW((void)sched::route_relation_qsm(
                   model, rel, sched::naive_schedule(rel), 2, 1),
               engine::SimulationError);
}

TEST(QsmRouting, EmptyRelation) {
  Relation rel(8);
  const core::QsmM model(params(8, 2, 4, 1));
  const auto run = sched::route_relation_qsm(model, rel,
                                             sched::naive_schedule(rel), 4, 1);
  EXPECT_TRUE(run.delivered);
}

// ---- offline optimal vs brute force on tiny instances -----------------------

/// Brute-force the minimum occupied-slot count over all schedules of a
/// tiny relation by exhaustive slot assignment (unit messages, slots up to
/// a small horizon).
std::uint64_t brute_force_min_slots(const Relation& rel, std::uint32_t m,
                                    std::uint32_t horizon) {
  struct Msg {
    engine::ProcId src;
  };
  std::vector<Msg> msgs;
  for (std::uint32_t s = 0; s < rel.p(); ++s) {
    for (std::size_t k = 0; k < rel.items(s).size(); ++k) msgs.push_back({s});
  }
  std::uint64_t best = horizon + 1;
  std::vector<std::uint32_t> slot(msgs.size(), 0);
  // DFS over slot assignments with pruning on per-slot and per-proc caps.
  std::vector<std::vector<std::uint32_t>> per_slot_count(horizon + 1);
  std::function<void(std::size_t, std::uint64_t)> dfs = [&](std::size_t i,
                                                            std::uint64_t used) {
    if (used >= best) return;
    if (i == msgs.size()) {
      best = used;
      return;
    }
    for (std::uint32_t t = 1; t <= horizon; ++t) {
      // per-slot aggregate cap
      std::uint32_t count = 0;
      bool proc_clash = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (slot[j] == t) {
          ++count;
          proc_clash |= (msgs[j].src == msgs[i].src);
        }
      }
      if (count >= m || proc_clash) continue;
      slot[i] = t;
      dfs(i + 1, std::max<std::uint64_t>(used, t));
      slot[i] = 0;
    }
  };
  dfs(0, 0);
  return best;
}

TEST(OfflineOptimal, MatchesBruteForceOnTinyInstances) {
  util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    Relation rel(4);
    const int msgs = 3 + static_cast<int>(rng.below(4));
    for (int k = 0; k < msgs; ++k) {
      const auto src = static_cast<engine::ProcId>(rng.below(4));
      auto dst = static_cast<engine::ProcId>(rng.below(3));
      if (dst >= src) ++dst;
      rel.add(src, dst);
    }
    const std::uint32_t m = 2;
    const auto sched = sched::offline_optimal_schedule(rel, m);
    const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kLinear, 1);
    const auto brute = brute_force_min_slots(rel, m, 8);
    EXPECT_LE(cost.slots_used, brute + 1) << "trial " << trial;
    EXPECT_TRUE(cost.within_limit);
  }
}

// ---- scheduler x workload property sweep -------------------------------------

enum class Sender { kUnbalanced, kConsecutive, kGranular, kLong };
enum class Shape { kBalanced, kPoint, kZipf, kDest, kVarLen };

struct SweepParam {
  Sender sender;
  Shape shape;
  std::uint32_t m;
};
// ctest names these cases by gtest's byte dump of the parameter
// (tests/CMakeLists.txt), which is the same in every build only while the
// struct has no padding.
static_assert(std::has_unique_object_representations_v<SweepParam>);

class SchedulerSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SchedulerSweep, ValidRespectfulAndDelivered) {
  const auto prm = GetParam();
  util::Xoshiro256 rng(77 + static_cast<std::uint64_t>(prm.m));
  const std::uint32_t p = 128;
  Relation rel(p);
  switch (prm.shape) {
    case Shape::kBalanced: rel = sched::balanced_relation(p, 32, rng); break;
    case Shape::kPoint: rel = sched::point_skew_relation(p, 4096, 0.5, rng); break;
    case Shape::kZipf: rel = sched::zipf_relation(p, 4096, 1.1, rng); break;
    case Shape::kDest: rel = sched::dest_skew_relation(p, 4096, 1.1, rng); break;
    case Shape::kVarLen:
      rel = sched::variable_length_relation(p, 1024, 8, 0.2, rng);
      break;
  }
  const std::uint64_t n = rel.total_flits();
  SlotSchedule schedule(p);
  switch (prm.sender) {
    case Sender::kUnbalanced:
      if (rel.max_length() > 1) GTEST_SKIP() << "unit messages only";
      schedule = sched::unbalanced_send_schedule(rel, prm.m, 0.5, n, rng);
      break;
    case Sender::kConsecutive:
      schedule = sched::consecutive_send_schedule(rel, prm.m, 0.5, n, rng);
      break;
    case Sender::kGranular:
      schedule = sched::granular_send_schedule(rel, prm.m, 3.0, n, rng);
      break;
    case Sender::kLong:
      schedule = sched::long_message_schedule(rel, prm.m, 0.5, n, rng);
      break;
  }
  // (1) the schedule is internally consistent,
  sched::validate_schedule(rel, schedule);
  // (2) the realized cost is within a small factor of the optimum,
  const auto cost =
      sched::evaluate_schedule(rel, schedule, prm.m, Penalty::kExponential, 1);
  const double opt = core::bounds::routing_bsp_m_optimal(
      n, rel.max_sent(), rel.max_received(), prm.m, 1);
  const double slack = prm.sender == Sender::kGranular ? 7.0 : 3.0;
  EXPECT_LE(cost.total, slack * opt + 64.0);
  // (3) the engine agrees and every flit arrives.
  const core::BspM model(params(p, double(p) / prm.m, prm.m, 1));
  const auto run = sched::route_relation(model, rel, schedule, prm.m, 1);
  EXPECT_TRUE(run.delivered);
  EXPECT_DOUBLE_EQ(run.send_time, cost.total);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchedulerSweep,
    ::testing::Values(
        SweepParam{Sender::kUnbalanced, Shape::kBalanced, 8},
        SweepParam{Sender::kUnbalanced, Shape::kPoint, 16},
        SweepParam{Sender::kUnbalanced, Shape::kZipf, 32},
        SweepParam{Sender::kUnbalanced, Shape::kDest, 16},
        SweepParam{Sender::kConsecutive, Shape::kBalanced, 16},
        SweepParam{Sender::kConsecutive, Shape::kPoint, 32},
        SweepParam{Sender::kConsecutive, Shape::kVarLen, 16},
        SweepParam{Sender::kGranular, Shape::kBalanced, 8},
        SweepParam{Sender::kGranular, Shape::kZipf, 16},
        SweepParam{Sender::kLong, Shape::kVarLen, 8},
        SweepParam{Sender::kLong, Shape::kVarLen, 32},
        SweepParam{Sender::kLong, Shape::kPoint, 16}));

// ---- schedule validation failure injection -----------------------------------

TEST(ScheduleValidation, CatchesProcSlotCollision) {
  Relation rel(2);
  rel.add(0, 1);
  rel.add(0, 1);
  SlotSchedule bad(2);
  bad.start[0] = {3, 3};  // same slot twice for proc 0
  EXPECT_THROW(sched::validate_schedule(rel, bad), engine::SimulationError);
}

TEST(ScheduleValidation, CatchesSizeMismatch) {
  Relation rel(2);
  rel.add(0, 1);
  SlotSchedule bad(2);  // start[0] empty, relation has one item
  EXPECT_THROW(sched::validate_schedule(rel, bad), engine::SimulationError);
}

TEST(ScheduleValidation, CatchesFlitOverlap) {
  Relation rel(2);
  rel.add(0, 1, 4);
  rel.add(0, 1, 2);
  SlotSchedule bad(2);
  bad.start[0] = {1, 3};  // second message starts inside the first
  EXPECT_THROW(sched::validate_schedule(rel, bad), engine::SimulationError);
}

TEST(ScheduleValidation, WrappedLayoutDetectsWrapCollision) {
  Relation rel(1);
  rel.add(0, 0, 3);
  rel.add(0, 0, 2);
  SlotSchedule sched(1);
  sched.layout = sched::FlitLayout::kWrapped;
  sched.window = 4;  // 5 flits into 4 wrapped slots must collide
  sched.start[0] = {1, 4};
  EXPECT_THROW(sched::validate_schedule(rel, sched), engine::SimulationError);
}

TEST(ScheduleOccupancy, WrappedLayoutWraps) {
  Relation rel(1);
  rel.add(0, 0, 3);
  SlotSchedule sched(1);
  sched.layout = sched::FlitLayout::kWrapped;
  sched.window = 3;
  sched.start[0] = {2};  // flits at slots 2, 3, 1
  const auto occupancy = sched::slot_occupancy(rel, sched);
  ASSERT_EQ(occupancy.size(), 3u);
  EXPECT_EQ(occupancy[0], 1u);
  EXPECT_EQ(occupancy[1], 1u);
  EXPECT_EQ(occupancy[2], 1u);
}

// ---- misc edge cases -----------------------------------------------------------

TEST(Senders, EmptyRelationProducesEmptySchedules) {
  Relation rel(8);
  util::Xoshiro256 rng(5);
  for (const auto& schedule :
       {sched::naive_schedule(rel), sched::offline_optimal_schedule(rel, 4),
        sched::unbalanced_send_schedule(rel, 4, 0.5, 0, rng),
        sched::consecutive_send_schedule(rel, 4, 0.5, 0, rng),
        sched::granular_send_schedule(rel, 4, 3.0, 0, rng),
        sched::long_message_schedule(rel, 4, 0.5, 0, rng)}) {
    const auto cost = sched::evaluate_schedule(rel, schedule, 4, Penalty::kLinear, 1);
    EXPECT_EQ(cost.slots_used, 0u);
    EXPECT_DOUBLE_EQ(cost.c_m, 0.0);
  }
}

TEST(Senders, SingleMessage) {
  Relation rel(2);
  rel.add(0, 1);
  util::Xoshiro256 rng(6);
  const auto schedule = sched::unbalanced_send_schedule(rel, 1, 0.5, 1, rng);
  const auto cost = sched::evaluate_schedule(rel, schedule, 1, Penalty::kExponential, 1);
  EXPECT_TRUE(cost.within_limit);
  EXPECT_EQ(cost.slots_used, static_cast<std::uint64_t>(schedule.start[0][0]));
}

TEST(Senders, TemplateShiftEnforcesSeparation) {
  util::Xoshiro256 rng(8);
  const auto rel = sched::balanced_relation(64, 8, rng);
  const std::uint32_t gap = 3;
  const auto schedule = sched::template_shift_schedule(
      rel, 16, 0.5, rel.total_flits(), gap, rng);
  sched::validate_schedule(rel, schedule);
  // Template positions are stride-separated: within a processor, sorted
  // slots differ by at least gap+1 except across the single wrap seam.
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    auto slots = schedule.start[src];
    std::sort(slots.begin(), slots.end());
    int violations = 0;
    for (std::size_t k = 1; k < slots.size(); ++k) {
      if (slots[k] - slots[k - 1] < gap + 1) ++violations;
    }
    EXPECT_LE(violations, 1) << "proc " << src;  // one seam allowed
  }
}

TEST(Senders, TemplateShiftRespectsAggregateLimit) {
  util::Xoshiro256 rng(9);
  const auto rel = sched::balanced_relation(256, 16, rng);
  const std::uint32_t m = 64;
  int ok = 0;
  for (int t = 0; t < 10; ++t) {
    const auto schedule = sched::template_shift_schedule(
        rel, m, 0.5, rel.total_flits(), 2, rng);
    const auto cost =
        sched::evaluate_schedule(rel, schedule, m, Penalty::kExponential, 1);
    ok += cost.within_limit;
  }
  EXPECT_GE(ok, 8);
}

TEST(Senders, TemplateShiftGapZeroBehavesLikeUnbalancedSend) {
  util::Xoshiro256 rng(10);
  const auto rel = sched::balanced_relation(64, 8, rng);
  const std::uint32_t m = 16;
  const auto schedule = sched::template_shift_schedule(
      rel, m, 0.25, rel.total_flits(), 0, rng);
  const auto cost =
      sched::evaluate_schedule(rel, schedule, m, Penalty::kExponential, 1);
  const double opt = core::bounds::routing_bsp_m_optimal(
      rel.total_flits(), rel.max_sent(), rel.max_received(), m, 1);
  EXPECT_LE(cost.total, 2.0 * opt);
}

TEST(Senders, TemplateShiftWindowScalesWithGap) {
  util::Xoshiro256 rng(11);
  const auto rel = sched::balanced_relation(64, 8, rng);
  const auto s0 = sched::template_shift_schedule(rel, 16, 0.25,
                                                 rel.total_flits(), 0, rng);
  const auto s4 = sched::template_shift_schedule(rel, 16, 0.25,
                                                 rel.total_flits(), 4, rng);
  const auto c0 = sched::evaluate_schedule(rel, s0, 16, Penalty::kLinear, 1);
  const auto c4 = sched::evaluate_schedule(rel, s4, 16, Penalty::kLinear, 1);
  // The stretched template costs ~(gap+1)x the slots (bandwidth paced down).
  EXPECT_GT(c4.slots_used, 3 * c0.slots_used);
}

TEST(Senders, OverheadZeroEqualsLongMessageSchedule) {
  util::Xoshiro256 rng(7);
  const auto rel = sched::variable_length_relation(32, 128, 4, 0.1, rng);
  util::Xoshiro256 rng_a(42), rng_b(42);
  const auto with0 = sched::overhead_schedule(rel, 0, 8, 0.25, rng_a);
  const auto plain = sched::long_message_schedule(rel, 8, 0.25,
                                                  rel.total_flits(), rng_b);
  EXPECT_EQ(with0.start, plain.start);
}

}  // namespace
