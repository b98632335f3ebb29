// Statistical and cross-cutting property tests: empirical validation of
// the Chernoff-based guarantees behind Theorem 6.2, slot-occupancy
// distributions, and wide parameter sweeps of the Section 4 algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <type_traits>

#include "algos/broadcast.hpp"
#include "algos/gossip.hpp"
#include "algos/list_ranking.hpp"
#include "algos/reduce.hpp"
#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "param_name.hpp"
#include "sched/schedule.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace {

using namespace pbw;
using core::ModelParams;
using core::Penalty;

ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

// ---- empirical Chernoff validation -------------------------------------------

TEST(Statistics, SlotLoadMeanMatchesTheory) {
  // Theorem 6.2's analysis: the expected number of messages in any slot
  // within the window is at most m/(1+eps).  Measure it.
  util::Xoshiro256 rng(1);
  const std::uint32_t p = 256, m = 64;
  const double eps = 0.5;
  const auto rel = sched::balanced_relation(p, 64, rng);
  const std::uint64_t n = rel.total_flits();
  const auto window = static_cast<std::uint64_t>(
      std::ceil((1 + eps) * double(n) / m));

  util::Accumulator loads;
  for (int trial = 0; trial < 10; ++trial) {
    const auto schedule = sched::unbalanced_send_schedule(rel, m, eps, n, rng);
    const auto occupancy = sched::slot_occupancy(rel, schedule);
    for (std::uint64_t t = 0; t < window && t < occupancy.size(); ++t) {
      loads.add(static_cast<double>(occupancy[t]));
    }
  }
  const double expected = static_cast<double>(m) / (1 + eps);
  EXPECT_NEAR(loads.mean(), expected, expected * 0.1);
}

TEST(Statistics, OverloadFrequencyBelowChernoffBound) {
  // The per-slot overload probability must sit below
  // exp(-eps^2 m / 3) (the bound is loose; the empirical rate should be
  // comfortably under it).
  util::Xoshiro256 rng(2);
  const std::uint32_t p = 512, m = 64;
  const double eps = 0.5;
  const auto rel = sched::balanced_relation(p, 32, rng);
  const std::uint64_t n = rel.total_flits();

  std::uint64_t overloaded_slots = 0, total_slots = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto schedule = sched::unbalanced_send_schedule(rel, m, eps, n, rng);
    for (const std::uint64_t m_t : sched::slot_occupancy(rel, schedule)) {
      overloaded_slots += (m_t > m);
      ++total_slots;
    }
  }
  const double empirical =
      static_cast<double>(overloaded_slots) / static_cast<double>(total_slots);
  EXPECT_LE(empirical, util::chernoff_upper_tail(double(m) / (1 + eps), eps));
}

TEST(Statistics, OverloadRateFallsWithEps) {
  util::Xoshiro256 rng(3);
  const std::uint32_t p = 512, m = 32;
  const auto rel = sched::balanced_relation(p, 32, rng);
  const std::uint64_t n = rel.total_flits();
  std::vector<double> rates;
  for (double eps : {0.1, 0.5, 1.0}) {
    std::uint64_t over = 0, total = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const auto schedule = sched::unbalanced_send_schedule(rel, m, eps, n, rng);
      for (const std::uint64_t m_t : sched::slot_occupancy(rel, schedule)) {
        over += (m_t > m);
        ++total;
      }
    }
    rates.push_back(double(over) / double(total));
  }
  EXPECT_GE(rates[0], rates[1]);
  EXPECT_GE(rates[1], rates[2]);
}

TEST(Statistics, OccupancyHistogramConcentrates) {
  util::Xoshiro256 rng(4);
  const std::uint32_t p = 512, m = 64;
  const auto rel = sched::balanced_relation(p, 64, rng);
  const auto schedule =
      sched::unbalanced_send_schedule(rel, m, 0.5, rel.total_flits(), rng);
  util::Histogram hist(0, 2.0 * m, 16);
  for (const std::uint64_t m_t : sched::slot_occupancy(rel, schedule)) {
    hist.add(static_cast<double>(m_t));
  }
  // Mass concentrates in the bucket band around m/(1+eps) ~ 42.
  double near = 0;
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
    if (hist.bucket_lo(b) >= 24 && hist.bucket_hi(b) <= 64) near += hist.count(b);
  }
  EXPECT_GE(near / hist.total(), 0.9);
}

TEST(Statistics, GranularFailureIndependentOfN) {
  // Theorem 6.4's point, measured: at fixed p and m, scaling n 8x does
  // not increase the overload frequency of Granular-Send.
  util::Xoshiro256 rng(5);
  const std::uint32_t p = 128, m = 16;
  auto overload_rate = [&](std::uint64_t per_proc) {
    const auto rel =
        sched::balanced_relation(p, static_cast<std::uint32_t>(per_proc), rng);
    int over = 0;
    for (int t = 0; t < 15; ++t) {
      const auto s =
          sched::granular_send_schedule(rel, m, 3.0, rel.total_flits(), rng);
      over += !sched::evaluate_schedule(rel, s, m, Penalty::kExponential, 1)
                   .within_limit;
    }
    return over;
  };
  const int small_n = overload_rate(32);
  const int large_n = overload_rate(256);
  EXPECT_LE(large_n, small_n + 2);
}

// ---- algorithm sweeps ----------------------------------------------------------

struct BroadcastCase {
  std::uint32_t p;
  double g;
  double L;
};

// ctest names a case by gtest's print of its parameter (tests/CMakeLists.txt).
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  *os << "p" << c.p << "_g" << test::name_part(c.g) << "_L"
      << test::name_part(c.L);
}

class BroadcastSweep : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastSweep, AllVariantsCorrect) {
  const auto c = GetParam();
  const auto m = std::max(1u, static_cast<std::uint32_t>(c.p / c.g));
  const auto prm = params(c.p, c.g, m, c.L);
  const core::BspG bsp_g(prm);
  const core::BspM bsp_m(prm);
  const core::QsmG qsm_g(prm);
  const core::QsmM qsm_m(prm);

  const auto arity = std::max(1u, static_cast<std::uint32_t>(c.L / c.g));
  EXPECT_TRUE(algos::broadcast_bsp_tree(bsp_g, arity, 42).correct);
  EXPECT_TRUE(algos::broadcast_ternary_bsp(bsp_g, true).correct);
  EXPECT_TRUE(algos::broadcast_ternary_bsp(bsp_g, false).correct);
  EXPECT_TRUE(
      algos::broadcast_bsp_m(bsp_m, m, static_cast<std::uint32_t>(c.L), 42)
          .correct);
  EXPECT_TRUE(algos::broadcast_qsm_g(
                  qsm_g, std::max(2u, static_cast<std::uint32_t>(c.g)), 42)
                  .correct);
  EXPECT_TRUE(algos::broadcast_qsm_m(qsm_m, m, 42).correct);
}

INSTANTIATE_TEST_SUITE_P(Grid, BroadcastSweep,
                         ::testing::Values(BroadcastCase{2, 1, 1},
                                           BroadcastCase{5, 2, 4},
                                           BroadcastCase{64, 4, 8},
                                           BroadcastCase{100, 8, 16},
                                           BroadcastCase{1000, 8, 2},
                                           BroadcastCase{4096, 32, 64}));

struct ReduceCase {
  std::uint32_t p;
  std::uint32_t collectors;
  std::uint32_t arity;
};
// ctest names these cases by gtest's byte dump of the parameter
// (tests/CMakeLists.txt), which is the same in every build only while the
// struct has no padding.
static_assert(std::has_unique_object_representations_v<ReduceCase>);

class ReduceSweep : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceSweep, SumAndParityCorrectBothFamilies) {
  const auto c = GetParam();
  util::Xoshiro256 rng(c.p + c.arity);
  std::vector<engine::Word> inputs(c.p);
  for (auto& x : inputs) x = static_cast<engine::Word>(rng.below(1 << 16));
  const auto prm = params(c.p, 4, std::max(1u, c.p / 8), 4);
  const core::BspM bsp(prm);
  const core::QsmM qsm(prm);
  for (auto op : {algos::ReduceOp::kSum, algos::ReduceOp::kXor}) {
    EXPECT_TRUE(algos::reduce_bsp(bsp, inputs, c.collectors, c.arity, op).correct);
    EXPECT_TRUE(
        algos::reduce_qsm(qsm, inputs, c.collectors, c.arity, prm.m, op).correct);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ReduceSweep,
                         ::testing::Values(ReduceCase{4, 2, 2},
                                           ReduceCase{64, 8, 2},
                                           ReduceCase{64, 8, 4},
                                           ReduceCase{100, 10, 3},
                                           ReduceCase{256, 64, 8},
                                           ReduceCase{256, 1, 2}));

TEST(GossipSweep, CorrectAcrossSizes) {
  for (std::uint32_t p : {2u, 9u, 33u, 128u}) {
    util::Xoshiro256 rng(p);
    std::vector<engine::Word> values(p);
    for (auto& v : values) v = static_cast<engine::Word>(rng.below(1000));
    const core::BspM model(params(p, 2, std::max(1u, p / 4), 2));
    EXPECT_TRUE(algos::gossip_bsp(model, values, std::max(1u, p / 4)).correct)
        << "p=" << p;
  }
}

TEST(ListRankSweep, PathologicalShapes) {
  const core::QsmM model(params(256, 8, 32, 1));
  // Identity-ordered list (succ[i] = i+1): maximally "sorted".
  std::vector<std::uint32_t> ordered(256);
  for (std::uint32_t i = 0; i < 256; ++i) ordered[i] = i + 1;
  EXPECT_TRUE(algos::list_rank_qsm(model, ordered, 32, 32).correct);
  // Reversed list.
  std::vector<std::uint32_t> reversed(256);
  reversed[0] = 256;
  for (std::uint32_t i = 1; i < 256; ++i) reversed[i] = i - 1;
  EXPECT_TRUE(algos::list_rank_qsm(model, reversed, 32, 32).correct);
}

TEST(ListRankSweep, ManySeedsAllSucceed) {
  const core::QsmM model(params(128, 4, 32, 1));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto succ = algos::random_list(128, seed);
    engine::MachineOptions opts;
    opts.seed = seed;
    EXPECT_TRUE(algos::list_rank_qsm(model, succ, 32, 32, opts).correct)
        << "seed=" << seed;
  }
}

}  // namespace
