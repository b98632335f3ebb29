// Second wave of model tests: parameterized sweeps of every charging rule
// against independently computed expectations, monotonicity and
// dominance properties the paper's comparisons rely on, and the bound
// library's structural relationships.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "oracle.hpp"
#include "param_name.hpp"
#include "replay/tape.hpp"
#include "util/rng.hpp"

namespace {

using namespace pbw;
using core::ModelParams;
using core::Penalty;
using engine::SuperstepStats;

ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

/// Random superstep statistics for property sweeps.
SuperstepStats random_stats(util::Xoshiro256& rng, std::uint32_t slots) {
  SuperstepStats s;
  s.max_work = static_cast<double>(rng.below(100));
  s.max_sent = rng.below(50);
  s.max_received = rng.below(50);
  s.max_reads = rng.below(50);
  s.max_writes = rng.below(50);
  s.kappa = rng.below(30);
  s.slot_counts.resize(slots);
  for (auto& c : s.slot_counts) {
    c = rng.below(20);
    s.total_flits += c;
    s.total_requests += c;
  }
  return s;
}

/// The same superstep in the oracle's own terms.
oracle::Step oracle_step(const SuperstepStats& s) {
  oracle::Step o;
  o.w = s.max_work;
  o.sent = s.max_sent;
  o.received = s.max_received;
  o.reads = s.max_reads;
  o.writes = s.max_writes;
  o.kappa = s.kappa;
  o.n = s.total_flits;
  o.m_t = s.slot_counts;
  return o;
}

struct GridCase {
  std::uint32_t p;
  double g;
  std::uint32_t m;
  double L;
};

// ctest names a case by gtest's print of its parameter (tests/CMakeLists.txt).
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "p" << c.p << "_g" << test::name_part(c.g) << "_m" << c.m << "_L"
      << test::name_part(c.L);
}

class ModelGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ModelGrid, ChargesMatchIndependentComputation) {
  const auto c = GetParam();
  const auto prm = params(c.p, c.g, c.m, c.L);
  const core::BspG bsp_g(prm);
  const core::BspM bsp_lin(prm, Penalty::kLinear);
  const core::BspM bsp_exp(prm, Penalty::kExponential);
  const core::QsmG qsm_g(prm);
  const core::QsmM qsm_lin(prm, Penalty::kLinear);
  const core::SelfSchedulingBspM self(prm);

  util::Xoshiro256 rng(c.p + c.m);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = random_stats(rng, 1 + static_cast<std::uint32_t>(rng.below(8)));
    const oracle::Step o = oracle_step(s);
    const auto lin = oracle::Penalty::kLinear;
    const auto exp = oracle::Penalty::kExponential;

    EXPECT_DOUBLE_EQ(bsp_g.superstep_cost(s), oracle::bsp_g(o, c.g, c.L));
    EXPECT_DOUBLE_EQ(bsp_lin.superstep_cost(s), oracle::bsp_m(o, c.m, c.L, lin));
    EXPECT_DOUBLE_EQ(bsp_exp.superstep_cost(s), oracle::bsp_m(o, c.m, c.L, exp));
    EXPECT_DOUBLE_EQ(qsm_g.superstep_cost(s), oracle::qsm_g(o, c.g));
    EXPECT_DOUBLE_EQ(qsm_lin.superstep_cost(s), oracle::qsm_m(o, c.m, lin));
    EXPECT_DOUBLE_EQ(self.superstep_cost(s), oracle::ss_bsp_m(o, c.m, c.L));
  }
}

TEST_P(ModelGrid, ExponentialNeverBelowLinear) {
  const auto c = GetParam();
  const auto prm = params(c.p, c.g, c.m, c.L);
  const core::BspM lin(prm, Penalty::kLinear);
  const core::BspM exp(prm, Penalty::kExponential);
  util::Xoshiro256 rng(c.p * 3 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = random_stats(rng, 1 + static_cast<std::uint32_t>(rng.below(8)));
    EXPECT_GE(exp.superstep_cost(s), lin.superstep_cost(s) - 1e-12);
  }
}

TEST_P(ModelGrid, GlobalChargeNeverAboveLocalAtMatchedBandwidth) {
  // For any within-limit superstep (m_t <= m everywhere), the BSP(m)
  // charge is at most the BSP(g) charge when m = p/g: c_m <= slots and a
  // slot-respecting program uses >= (flits * g / p) slots... the robust
  // comparable fact: h <= g*h and c_m (within limit) counts occupied
  // slots, which any g-model program would pay at least (1/m per flit)*g.
  const auto c = GetParam();
  const auto prm = params(c.p, c.g, c.m, c.L);
  const core::BspG local(prm);
  const core::BspM global(prm, Penalty::kExponential);
  util::Xoshiro256 rng(c.p * 7 + 5);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = random_stats(rng, 4);
    // Constrain to a within-limit, emulation-shaped superstep:
    // g*h slots each carrying <= m flits.
    const std::uint64_t h = std::max<std::uint64_t>(
        1, std::max(s.max_sent, s.max_received));
    s.slot_counts.assign(static_cast<std::size_t>(c.g * double(h)), c.m);
    s.total_flits = 0;
    for (auto mt : s.slot_counts) s.total_flits += mt;
    EXPECT_LE(global.superstep_cost(s), local.superstep_cost(s) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ModelGrid,
                         ::testing::Values(GridCase{16, 2, 8, 1},
                                           GridCase{64, 4, 16, 4},
                                           GridCase{256, 16, 16, 16},
                                           GridCase{1024, 8, 128, 2},
                                           GridCase{1024, 32, 32, 64}));

// ---- bound library structure ---------------------------------------------------

TEST(Bounds2, GlobalUpperBoundsBelowLocalAtMatchedBandwidth) {
  // The Table 1 global upper bounds sit below the local bounds whenever
  // the separation columns claim > 1 (for reasonable L, g).
  for (std::uint32_t p : {1u << 10, 1u << 14, 1u << 18}) {
    for (double g : {8.0, 32.0}) {
      const auto m = static_cast<std::uint32_t>(p / g);
      const double L = 2 * g;  // L/g >= 2 keeps the tree formulas sane
      namespace b = core::bounds;
      EXPECT_LT(b::one_to_all_global(p, L, true), b::one_to_all_local(p, g, L, true));
      EXPECT_LT(b::broadcast_bsp_m(p, m, L), b::broadcast_bsp_g(p, g, L) * 2);
      EXPECT_LT(b::reduce_bsp_m(p, m, L), b::reduce_bsp_g(p, g, L) * 2);
      EXPECT_LT(b::sort_bsp_m(p, m, L), b::sort_local_lower(p, g, L, true) * 4);
    }
  }
}

TEST(Bounds2, RoutingOptimalMonotonicity) {
  namespace b = core::bounds;
  // More bandwidth never hurts; more traffic never helps.
  EXPECT_GE(b::routing_bsp_m_optimal(1000, 10, 10, 10, 1),
            b::routing_bsp_m_optimal(1000, 10, 10, 20, 1));
  EXPECT_LE(b::routing_bsp_m_optimal(1000, 10, 10, 10, 1),
            b::routing_bsp_m_optimal(2000, 10, 10, 10, 1));
  EXPECT_LE(b::routing_bsp_m_optimal(1000, 10, 10, 10, 1),
            b::routing_bsp_m_optimal(1000, 50, 10, 10, 1));
}

TEST(Bounds2, CountNTimeMonotoneInP) {
  namespace b = core::bounds;
  EXPECT_LT(b::count_n_time(256, 16, 4), b::count_n_time(4096, 16, 4));
  EXPECT_GT(b::count_n_time(4096, 16, 4), b::count_n_time(4096, 64, 4));
}

TEST(Bounds2, UnbalancedSendBoundTightensWithEps) {
  namespace b = core::bounds;
  EXPECT_LT(b::unbalanced_send_bound(10000, 10, 10, 256, 16, 4, 0.1),
            b::unbalanced_send_bound(10000, 10, 10, 256, 16, 4, 0.5));
}

TEST(Bounds2, FailureProbMonotoneInEps) {
  namespace b = core::bounds;
  EXPECT_GE(b::unbalanced_send_failure_prob(10000, 64, 0.1),
            b::unbalanced_send_failure_prob(10000, 64, 0.5));
}

// ---- trace report structure ------------------------------------------------------

TEST(TraceReport2, FractionsSumToOne) {
  const auto prm = params(32, 4, 8, 4);
  replay::StatsTape tape;
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 10; ++i) tape.append(random_stats(rng, 4));
  const auto b = replay::term_totals(tape, core::BspM(prm));
  double sum = 0.0;
  for (const double term : b.by_term.terms()) sum += term / b.total;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(b.supersteps, 10u);
}

TEST(TraceReport2, EmptyTrace) {
  const auto prm = params(8, 2, 4, 1);
  const auto b = replay::term_totals(replay::StatsTape{}, core::QsmG(prm));
  EXPECT_EQ(b.supersteps, 0u);
  EXPECT_DOUBLE_EQ(b.total, 0.0);
  EXPECT_DOUBLE_EQ(b.by_term.w, 0.0);
}

}  // namespace
