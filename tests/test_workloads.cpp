// Workload-generator invariants: exact totals, skew shapes, cap
// compliance, determinism, and Relation accounting under every generator.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "sched/relation.hpp"
#include "core/bounds.hpp"
#include "sched/workloads.hpp"
#include "util/rng.hpp"

namespace {

using namespace pbw;
using sched::Relation;

struct GenCase {
  const char* name;
  std::uint32_t p;
  std::uint64_t n;
};

// ctest names a case by gtest's print of its parameter (tests/CMakeLists.txt).
void PrintTo(const GenCase& c, std::ostream* os) {
  *os << c.name << "_p" << c.p << "_n" << c.n;
}

class GeneratorSweep : public ::testing::TestWithParam<GenCase> {};

Relation make(const GenCase& c, util::Xoshiro256& rng) {
  const std::string name = c.name;
  if (name == "balanced") {
    return sched::balanced_relation(c.p, static_cast<std::uint32_t>(c.n / c.p), rng);
  }
  if (name == "point") return sched::point_skew_relation(c.p, c.n, 0.4, rng);
  if (name == "zipf") return sched::zipf_relation(c.p, c.n, 1.0, rng);
  if (name == "dest") return sched::dest_skew_relation(c.p, c.n, 1.0, rng);
  if (name == "nearly") return sched::nearly_local_relation(c.p, c.n, 0.25, rng);
  return sched::variable_length_relation(c.p, c.n / 4, 4, 0.2, rng);
}

TEST_P(GeneratorSweep, InvariantsHold) {
  const auto c = GetParam();
  util::Xoshiro256 rng(c.p ^ c.n);
  const Relation rel = make(c, rng);
  // (1) destinations valid and never self
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    for (const auto& item : rel.items(src)) {
      EXPECT_LT(item.dst, rel.p());
      EXPECT_NE(item.dst, src);
      EXPECT_GE(item.length, 1u);
    }
  }
  // (2) accounting identities
  std::uint64_t flits = 0;
  for (std::uint32_t src = 0; src < rel.p(); ++src) flits += rel.sent_by(src);
  EXPECT_EQ(flits, rel.total_flits());
  EXPECT_GE(rel.max_sent() * rel.p(), rel.total_flits());  // max >= mean
  EXPECT_GE(rel.max_received() * rel.p(), rel.total_flits());
  // (3) determinism: same seed, same relation
  util::Xoshiro256 rng2(c.p ^ c.n);
  const Relation again = make(c, rng2);
  EXPECT_EQ(again.total_flits(), rel.total_flits());
  EXPECT_EQ(again.max_sent(), rel.max_sent());
  EXPECT_EQ(again.max_received(), rel.max_received());
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorSweep,
    ::testing::Values(GenCase{"balanced", 16, 256}, GenCase{"balanced", 64, 4096},
                      GenCase{"point", 16, 512}, GenCase{"point", 128, 8192},
                      GenCase{"zipf", 32, 1024}, GenCase{"zipf", 128, 8192},
                      GenCase{"dest", 32, 1024}, GenCase{"dest", 64, 4096},
                      GenCase{"nearly", 32, 1024}, GenCase{"varlen", 64, 2048}));

TEST(Workloads2, PointSkewExactHotCount) {
  util::Xoshiro256 rng(1);
  const auto rel = sched::point_skew_relation(32, 1000, 0.25, rng);
  // hot = 250, plus the round-robin remainder: ceil(750/32) = 24.
  EXPECT_EQ(rel.sent_by(0), 274u);
}

TEST(Workloads2, ZipfThetaControlsSkew) {
  util::Xoshiro256 rng(2);
  const auto mild = sched::zipf_relation(64, 8192, 0.3, rng);
  const auto sharp = sched::zipf_relation(64, 8192, 1.5, rng);
  EXPECT_GT(sharp.max_sent(), 2 * mild.max_sent());
}

TEST(Workloads2, NearlyLocalTotalMatchesFraction) {
  util::Xoshiro256 rng(3);
  const auto rel = sched::nearly_local_relation(64, 4000, 0.1, rng);
  EXPECT_EQ(rel.total_flits(), 400u);
}

TEST(Workloads2, TotalExchangeDegenerate) {
  const auto rel1 = sched::total_exchange_relation(1);
  EXPECT_EQ(rel1.total_messages(), 0u);
  const auto rel2 = sched::total_exchange_relation(2, 5);
  EXPECT_EQ(rel2.total_flits(), 10u);
}

TEST(Workloads2, VariableLengthHotFraction) {
  util::Xoshiro256 rng(4);
  const auto rel = sched::variable_length_relation(32, 1000, 6, 0.5, rng);
  // The hot processor sources at least half the messages.
  EXPECT_GE(rel.items(0).size(), 500u);
}

TEST(Workloads2, DifferentSeedsDiffer) {
  util::Xoshiro256 a(5), b(6);
  const auto r1 = sched::zipf_relation(32, 1024, 1.0, a);
  const auto r2 = sched::zipf_relation(32, 1024, 1.0, b);
  // Totals equal by construction; the shape should differ.
  EXPECT_EQ(r1.total_flits(), r2.total_flits());
  bool any_diff = false;
  for (std::uint32_t i = 0; i < 32; ++i) {
    any_diff |= r1.sent_by(i) != r2.sent_by(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workloads2, BalancedEdgeSinglePair) {
  util::Xoshiro256 rng(7);
  const auto rel = sched::balanced_relation(2, 3, rng);
  EXPECT_EQ(rel.sent_by(0), 3u);
  EXPECT_EQ(rel.sent_by(1), 3u);
  for (const auto& item : rel.items(0)) EXPECT_EQ(item.dst, 1u);
}

TEST(Workloads2, PermutationHasUnitH) {
  util::Xoshiro256 rng(8);
  for (std::uint32_t p : {2u, 8u, 64u, 255u}) {
    const auto rel = sched::permutation_relation(p, rng);
    EXPECT_LE(rel.max_sent(), 1u) << "p=" << p;
    EXPECT_LE(rel.max_received(), 1u) << "p=" << p;
    EXPECT_GE(rel.total_messages(), static_cast<std::uint64_t>(p) - 1);
    for (std::uint32_t src = 0; src < p; ++src) {
      for (const auto& item : rel.items(src)) EXPECT_NE(item.dst, src);
    }
  }
}

TEST(Workloads2, PermutationIsBoundaryCaseForModels) {
  // h = 1: g*h = g equals max(n/m, h) = max(g, 1) = g at matched
  // bandwidth — the one regime where global limits buy nothing.
  util::Xoshiro256 rng(9);
  const std::uint32_t p = 128, m = 16;
  const double g = double(p) / m;
  const auto rel = sched::permutation_relation(p, rng);
  const double local = pbw::core::bounds::routing_bsp_g(
      rel.max_sent(), rel.max_received(), g, 1);
  const double global = pbw::core::bounds::routing_bsp_m_optimal(
      rel.total_flits(), rel.max_sent(), rel.max_received(), m, 1);
  EXPECT_NEAR(local, global, global * 0.05);
}

TEST(Workloads2, MaxSentBelowThreshold) {
  Relation rel(4);
  rel.add(0, 1);            // x_0 = 1
  for (int i = 0; i < 5; ++i) rel.add(1, 2);  // x_1 = 5
  for (int i = 0; i < 9; ++i) rel.add(2, 3);  // x_2 = 9
  EXPECT_EQ(rel.max_sent_below(0.5), 0u);
  EXPECT_EQ(rel.max_sent_below(1.0), 1u);
  EXPECT_EQ(rel.max_sent_below(6.0), 5u);
  EXPECT_EQ(rel.max_sent_below(100.0), 9u);
}

}  // namespace
