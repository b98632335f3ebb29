// Unit and property tests for the Section 6 scheduling algorithms:
// relations, workload generators, slot schedules, the Unbalanced-Send
// family, the offline optimal baseline, CountN, and the engine runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "engine/error.hpp"
#include "param_name.hpp"
#include "sched/count_n.hpp"
#include "sched/relation.hpp"
#include "sched/runner.hpp"
#include "sched/schedule.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"

namespace {

using namespace pbw;
using core::ModelParams;
using core::Penalty;
using sched::Relation;
using sched::SlotSchedule;

ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

TEST(Relation, AccountingBasics) {
  Relation rel(4);
  rel.add(0, 1, 3);
  rel.add(0, 2, 2);
  rel.add(1, 2, 1);
  EXPECT_EQ(rel.total_flits(), 6u);
  EXPECT_EQ(rel.total_messages(), 3u);
  EXPECT_EQ(rel.max_sent(), 5u);     // proc 0 sends 5 flits
  EXPECT_EQ(rel.max_received(), 3u); // proc 2 receives 3 flits
  EXPECT_EQ(rel.sent_by(3), 0u);
  EXPECT_EQ(rel.max_length(), 3u);
  EXPECT_DOUBLE_EQ(rel.mean_length(), 2.0);
  EXPECT_EQ(rel.max_sent_below(4.0), 1u);  // only proc 1 is light
}

TEST(Workloads, BalancedHasUniformSources) {
  util::Xoshiro256 rng(1);
  const Relation rel = sched::balanced_relation(32, 10, rng);
  EXPECT_EQ(rel.total_flits(), 320u);
  for (std::uint32_t i = 0; i < 32; ++i) EXPECT_EQ(rel.sent_by(i), 10u);
}

TEST(Workloads, PointSkewConcentrates) {
  util::Xoshiro256 rng(2);
  const Relation rel = sched::point_skew_relation(32, 1000, 0.5, rng);
  EXPECT_EQ(rel.total_flits(), 1000u);
  EXPECT_GE(rel.sent_by(0), 500u);
  EXPECT_EQ(rel.max_sent(), rel.sent_by(0));
}

TEST(Workloads, TotalExchangeIsComplete) {
  const Relation rel = sched::total_exchange_relation(8, 2);
  EXPECT_EQ(rel.total_messages(), 8u * 7u);
  EXPECT_EQ(rel.total_flits(), 8u * 7u * 2u);
  EXPECT_EQ(rel.max_sent(), 14u);
  EXPECT_EQ(rel.max_received(), 14u);
}

TEST(Workloads, NoSelfMessages) {
  util::Xoshiro256 rng(3);
  for (const Relation& rel :
       {sched::balanced_relation(16, 5, rng),
        sched::zipf_relation(16, 200, 1.0, rng),
        sched::dest_skew_relation(16, 200, 1.0, rng)}) {
    for (std::uint32_t src = 0; src < rel.p(); ++src) {
      for (const auto& item : rel.items(src)) EXPECT_NE(item.dst, src);
    }
  }
}

TEST(Workloads, VariableLengthBounded) {
  util::Xoshiro256 rng(4);
  const Relation rel = sched::variable_length_relation(16, 100, 7, 0.3, rng);
  EXPECT_EQ(rel.total_messages(), 100u);
  EXPECT_LE(rel.max_length(), 7u);
  EXPECT_GE(rel.max_length(), 1u);
}

TEST(Schedule, NaiveExceedsLimitWhenBusy) {
  util::Xoshiro256 rng(5);
  const Relation rel = sched::balanced_relation(64, 4, rng);
  const SlotSchedule sched = sched::naive_schedule(rel);
  const auto cost = sched::evaluate_schedule(rel, sched, 8, Penalty::kLinear, 1);
  EXPECT_FALSE(cost.within_limit);
  EXPECT_EQ(cost.max_mt, 64u);  // all procs hit slot 1
}

TEST(Schedule, OfflineOptimalAchievesLowerBound) {
  util::Xoshiro256 rng(6);
  for (double hot : {0.0, 0.3, 0.9}) {
    const Relation rel = sched::point_skew_relation(64, 2048, hot, rng);
    const std::uint32_t m = 8;
    const SlotSchedule sched = sched::offline_optimal_schedule(rel, m);
    sched::validate_schedule(rel, sched);
    const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 1);
    EXPECT_TRUE(cost.within_limit) << "hot=" << hot;
    const double opt = core::bounds::routing_bsp_m_optimal(
        rel.total_flits(), rel.max_sent(), rel.max_received(), m, 1);
    // c_m == number of occupied slots <= optimal (no overload charge).
    EXPECT_LE(cost.c_m, opt + 1.0) << "hot=" << hot;
  }
}

TEST(Schedule, UnbalancedSendRespectsLimitWhp) {
  util::Xoshiro256 rng(7);
  const Relation rel = sched::point_skew_relation(256, 8192, 0.25, rng);
  const std::uint32_t m = 64;
  const double eps = 0.5;
  int ok = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const SlotSchedule sched =
        sched::unbalanced_send_schedule(rel, m, eps, rel.total_flits(), rng);
    sched::validate_schedule(rel, sched);
    const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 1);
    ok += cost.within_limit;
  }
  // exp(-eps^2 m / 3) = exp(-16/3) per slot; with the union bound the
  // failure probability is well under 10%.
  EXPECT_GE(ok, 18);
}

TEST(Schedule, UnbalancedSendNearOptimal) {
  util::Xoshiro256 rng(8);
  const Relation rel = sched::point_skew_relation(256, 8192, 0.25, rng);
  const std::uint32_t m = 64;
  const double eps = 0.25;
  const SlotSchedule sched =
      sched::unbalanced_send_schedule(rel, m, eps, rel.total_flits(), rng);
  const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 1);
  const double opt = core::bounds::routing_bsp_m_optimal(
      rel.total_flits(), rel.max_sent(), rel.max_received(), m, 1);
  EXPECT_LE(cost.total, (1 + 2 * eps) * opt);
}

TEST(Schedule, UnbalancedSendRejectsLongMessages) {
  Relation rel(4);
  rel.add(0, 1, 5);
  util::Xoshiro256 rng(9);
  EXPECT_THROW(sched::unbalanced_send_schedule(rel, 2, 0.1, 5, rng),
               engine::SimulationError);
}

TEST(Schedule, HeavyProcessorStartsAtSlotOne) {
  Relation rel(4);
  for (int k = 0; k < 100; ++k) rel.add(0, 1 + (k % 3));
  util::Xoshiro256 rng(10);
  // n=100, m=10, eps=0.1 -> window 11 << 100: proc 0 is heavy.
  const SlotSchedule sched = sched::unbalanced_send_schedule(rel, 10, 0.1, 100, rng);
  for (std::size_t k = 0; k < 100; ++k) {
    EXPECT_EQ(sched.start[0][k], k + 1);
  }
}

TEST(Schedule, ConsecutiveSendIsConsecutivePerProc) {
  util::Xoshiro256 rng(11);
  const Relation rel = sched::balanced_relation(64, 6, rng);
  const SlotSchedule sched =
      sched::consecutive_send_schedule(rel, 16, 0.5, rel.total_flits(), rng);
  sched::validate_schedule(rel, sched);
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    for (std::size_t k = 1; k < sched.start[src].size(); ++k) {
      EXPECT_EQ(sched.start[src][k], sched.start[src][k - 1] + 1);
    }
  }
}

TEST(Schedule, ConsecutiveSendWithinTheoremBound) {
  util::Xoshiro256 rng(12);
  const Relation rel = sched::point_skew_relation(256, 8192, 0.2, rng);
  const std::uint32_t m = 64;
  const double eps = 0.25;
  const std::uint64_t n = rel.total_flits();
  const SlotSchedule sched = sched::consecutive_send_schedule(rel, m, eps, n, rng);
  const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 1);
  const double window = std::ceil((1 + eps) * double(n) / m);
  const auto xbar_small = rel.max_sent_below(window);
  const double bound =
      std::max({window + double(xbar_small), double(rel.max_sent()),
                double(rel.max_received())});
  EXPECT_LE(cost.total, bound * 1.5);  // slack for the rare overloaded slot
}

TEST(Schedule, GranularStartsOnGranuleGrid) {
  util::Xoshiro256 rng(13);
  const Relation rel = sched::balanced_relation(64, 8, rng);  // n=512, t'=8
  const std::uint64_t n = rel.total_flits();
  const SlotSchedule sched = sched::granular_send_schedule(rel, 16, 3.0, n, rng);
  sched::validate_schedule(rel, sched);
  const std::uint64_t granule = n / 64;
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    if (sched.start[src].empty()) continue;
    EXPECT_EQ((sched.start[src][0] - 1) % granule, 0u);
  }
}

TEST(Schedule, GranularWithinConstantFactor) {
  util::Xoshiro256 rng(14);
  const Relation rel = sched::balanced_relation(256, 16, rng);
  const std::uint64_t n = rel.total_flits();
  const std::uint32_t m = 32;
  const double c = 3.0;
  const SlotSchedule sched = sched::granular_send_schedule(rel, m, c, n, rng);
  const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 1);
  EXPECT_LE(cost.slots_used, static_cast<std::uint64_t>(c * double(n) / m) + 1);
  EXPECT_LE(cost.total, 2.0 * c * double(n) / m);
}

TEST(Schedule, LongMessagesExtendAtMostLhat) {
  util::Xoshiro256 rng(15);
  const Relation rel = sched::variable_length_relation(128, 1024, 16, 0.0, rng);
  const std::uint64_t n = rel.total_flits();
  const std::uint32_t m = 32;
  const double eps = 0.5;
  const SlotSchedule sched = sched::long_message_schedule(rel, m, eps, n, rng);
  sched::validate_schedule(rel, sched);
  const auto cost = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 1);
  const double window = std::ceil((1 + eps) * double(n) / m);
  EXPECT_LE(cost.slots_used, window + rel.max_length());
}

TEST(Schedule, OverheadShiftsStarts) {
  util::Xoshiro256 rng(16);
  const Relation rel = sched::variable_length_relation(64, 256, 4, 0.0, rng);
  const std::uint32_t o = 3;
  const SlotSchedule sched = sched::overhead_schedule(rel, o, 16, 0.5, rng);
  // Every start leaves room for the o-slot prefix.
  for (const auto& starts : sched.start) {
    for (auto s : starts) EXPECT_GT(s, o);
  }
  sched::validate_schedule(rel, sched);
}

TEST(Schedule, EmulationRespectsLimit) {
  util::Xoshiro256 rng(17);
  const Relation rel = sched::balanced_relation(64, 5, rng);
  const double g = 8;
  const SlotSchedule sched = sched::emulation_schedule(rel, g);
  sched::validate_schedule(rel, sched);
  const auto cost = sched::evaluate_schedule(rel, sched, 8, Penalty::kExponential, 1);
  EXPECT_TRUE(cost.within_limit);
  // The emulation takes ~ g * xbar slots: no better than BSP(g).
  EXPECT_GE(cost.slots_used, static_cast<std::uint64_t>(g * (rel.max_sent() - 1) + 1));
}

TEST(CountN, ComputesAndBroadcasts) {
  const core::BspM model(params(64, 4, 16, 4));
  std::vector<std::uint64_t> x(64);
  for (std::uint32_t i = 0; i < 64; ++i) x[i] = i;
  const auto result = sched::count_and_broadcast(model, x, 16, 4);
  EXPECT_EQ(result.n, 64u * 63u / 2);
  EXPECT_TRUE(result.all_procs_agree);
  // tau = O(p/m + L + L lg m / lg L); allow a generous constant.
  const double tau = pbw::core::bounds::count_n_time(64, 16, 4);
  EXPECT_LE(result.time, 6 * tau);
}

TEST(CountN, WorksWithOneCollector) {
  const core::BspM model(params(16, 16, 1, 2));
  std::vector<std::uint64_t> x(16, 3);
  const auto result = sched::count_and_broadcast(model, x, 1, 2);
  EXPECT_EQ(result.n, 48u);
  EXPECT_TRUE(result.all_procs_agree);
}

TEST(CountN, WorksWithSingleProcessor) {
  const core::BspM model(params(1, 1, 1, 1));
  const auto result = sched::count_and_broadcast(model, {5}, 1, 2);
  EXPECT_EQ(result.n, 5u);
  EXPECT_TRUE(result.all_procs_agree);
}

TEST(Runner, DeliversAndMatchesFastPath) {
  util::Xoshiro256 rng(18);
  const Relation rel = sched::point_skew_relation(64, 1024, 0.3, rng);
  const std::uint32_t m = 16;
  const core::BspM model(params(64, 4, m, 4), Penalty::kExponential);
  const SlotSchedule sched = sched::offline_optimal_schedule(rel, m);
  const auto run = sched::route_relation(model, rel, sched, m, 4);
  EXPECT_TRUE(run.delivered);
  EXPECT_TRUE(run.within_limit);
  const auto fast = sched::evaluate_schedule(rel, sched, m, Penalty::kExponential, 4);
  EXPECT_DOUBLE_EQ(run.send_time, fast.total);
}

TEST(Runner, CountTimeAddsTau) {
  util::Xoshiro256 rng(19);
  const Relation rel = sched::balanced_relation(64, 4, rng);
  const std::uint32_t m = 16;
  const core::BspM model(params(64, 4, m, 4), Penalty::kExponential);
  const SlotSchedule sched = sched::offline_optimal_schedule(rel, m);
  const auto with = sched::route_relation(model, rel, sched, m, 4, /*count_n=*/true);
  const auto without = sched::route_relation(model, rel, sched, m, 4, false);
  EXPECT_GT(with.count_time, 0.0);
  EXPECT_DOUBLE_EQ(with.total_time, with.send_time + with.count_time);
  EXPECT_DOUBLE_EQ(without.count_time, 0.0);
}

TEST(Runner, SelfSchedulingModelIgnoresSlots) {
  // On the self-scheduling BSP(m) the naive and optimal schedules cost the
  // same: T = max(w, h, n/m, L).
  util::Xoshiro256 rng(20);
  const Relation rel = sched::balanced_relation(64, 4, rng);
  const std::uint32_t m = 16;
  const core::SelfSchedulingBspM model(params(64, 4, m, 4));
  const auto naive =
      sched::route_relation(model, rel, sched::naive_schedule(rel), m, 4);
  const auto opt = sched::route_relation(
      model, rel, sched::offline_optimal_schedule(rel, m), m, 4);
  EXPECT_DOUBLE_EQ(naive.send_time, opt.send_time);
  const double expected = std::max(
      {double(rel.max_sent()), double(rel.max_received()),
       double(rel.total_flits()) / m, 4.0});
  EXPECT_DOUBLE_EQ(naive.send_time, expected);
}

// Property sweep: Unbalanced-Send stays within the aggregate limit and
// within (1+eps) of optimal (plus tau) across workload shapes and m.
struct SweepCase {
  std::uint32_t p;
  std::uint32_t m;
  double hot;
  double eps;
};

// ctest names a case by gtest's print of its parameter (tests/CMakeLists.txt).
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "p" << c.p << "_m" << c.m << "_hot" << test::name_part(c.hot)
      << "_eps" << test::name_part(c.eps);
}

class UnbalancedSendSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UnbalancedSendSweep, WithinBound) {
  const auto c = GetParam();
  util::Xoshiro256 rng(21 + c.p + c.m);
  const Relation rel = sched::point_skew_relation(c.p, 32ull * c.p, c.hot, rng);
  const std::uint64_t n = rel.total_flits();
  const SlotSchedule sched = sched::unbalanced_send_schedule(rel, c.m, c.eps, n, rng);
  sched::validate_schedule(rel, sched);
  const auto cost =
      sched::evaluate_schedule(rel, sched, c.m, Penalty::kExponential, 1);
  const double opt = core::bounds::routing_bsp_m_optimal(
      n, rel.max_sent(), rel.max_received(), c.m, 1);
  EXPECT_LE(cost.total, (1 + c.eps) * opt + 32.0)
      << "p=" << c.p << " m=" << c.m << " hot=" << c.hot;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UnbalancedSendSweep,
    ::testing::Values(SweepCase{64, 16, 0.0, 0.5}, SweepCase{64, 16, 0.5, 0.5},
                      SweepCase{128, 32, 0.2, 0.25}, SweepCase{128, 8, 0.8, 0.5},
                      SweepCase{256, 64, 0.1, 0.25},
                      SweepCase{256, 64, 0.9, 0.5}));

}  // namespace
