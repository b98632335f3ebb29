// Tests for the Section 4 algorithms: correctness on every model they
// target, plus cost-shape checks against the Table 1 bounds.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "algos/broadcast.hpp"
#include "algos/list_ranking.hpp"
#include "algos/one_to_all.hpp"
#include "algos/reduce.hpp"
#include "algos/sorting.hpp"
#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "replay/recorder.hpp"
#include "util/rng.hpp"

namespace {

using namespace pbw;
using core::ModelParams;

ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

// ---- one-to-all personalized communication ------------------------------

TEST(OneToAll, BspMCostIsLinearInP) {
  const std::uint32_t p = 256, m = 16;
  const core::BspM model(params(p, p / m, m, 4));
  const auto r = algos::one_to_all_bsp(model);
  EXPECT_TRUE(r.correct);
  // Send superstep costs p-1 (h and c_m both p-1); drain costs L.
  EXPECT_NEAR(r.time, (p - 1) + 4.0, 1e-9);
}

TEST(OneToAll, BspGPaysGapFactor) {
  const std::uint32_t p = 256;
  const double g = 16;
  const core::BspG model(params(p, g, 16, 4));
  const auto r = algos::one_to_all_bsp(model);
  EXPECT_TRUE(r.correct);
  EXPECT_NEAR(r.time, g * (p - 1) + 4.0, 1e-9);
}

TEST(OneToAll, SeparationMatchesTheta) {
  const std::uint32_t p = 512, m = 32;
  const double g = p / m;
  const core::BspG local(params(p, g, m, 1));
  const core::BspM global(params(p, g, m, 1));
  const auto rl = algos::one_to_all_bsp(local);
  const auto rg = algos::one_to_all_bsp(global);
  ASSERT_TRUE(rl.correct && rg.correct);
  EXPECT_NEAR(rl.time / rg.time, g, g * 0.1);
}

TEST(OneToAll, QsmVariants) {
  const std::uint32_t p = 128, m = 8;
  const core::QsmM qm(params(p, p / m, m, 1));
  const core::QsmG qg(params(p, p / m, m, 1));
  const auto rm = algos::one_to_all_qsm(qm, m);
  const auto rg = algos::one_to_all_qsm(qg, m);
  EXPECT_TRUE(rm.correct);
  EXPECT_TRUE(rg.correct);
  EXPECT_GT(rg.time / rm.time, (p / m) / 4.0);  // Theta(g) separation
}

// ---- broadcast ------------------------------------------------------------

TEST(Broadcast, BspTreeInformsEveryone) {
  for (std::uint32_t p : {2u, 7u, 64u, 100u}) {
    const core::BspG model(params(p, 2, 1, 8));
    const auto r = algos::broadcast_bsp_tree(model, 4, 99);
    EXPECT_TRUE(r.correct) << "p=" << p;
  }
}

TEST(Broadcast, BspTreeCostMatchesFormula) {
  const std::uint32_t p = 4096;
  const double g = 2, L = 16;
  const core::BspG model(params(p, g, 1, L));
  const auto arity = static_cast<std::uint32_t>(L / g);  // optimal arity
  const auto r = algos::broadcast_bsp_tree(model, arity, 5);
  ASSERT_TRUE(r.correct);
  const double bound = core::bounds::broadcast_bsp_g(p, g, L);
  EXPECT_LE(r.time, 3 * bound);
  EXPECT_GE(r.time, bound / 3);
}

TEST(Broadcast, TernaryNonReceiptBothBits) {
  const std::uint32_t p = 243;
  const core::BspG model(params(p, 8, 1, 4));  // L <= g regime
  for (bool bit : {false, true}) {
    const auto r = algos::broadcast_ternary_bsp(model, bit);
    EXPECT_TRUE(r.correct) << "bit=" << bit;
    // g * ceil(log_3 p) = 8 * 5 = 40, plus trailing inference superstep(s)
    // costing L each.
    EXPECT_LE(r.time, core::bounds::broadcast_ternary(p, 8) + 2 * 4);
  }
}

TEST(Broadcast, TernaryOddSizes) {
  for (std::uint32_t p : {2u, 3u, 10u, 100u}) {
    const core::BspG model(params(p, 4, 1, 2));
    const auto r = algos::broadcast_ternary_bsp(model, true);
    EXPECT_TRUE(r.correct) << "p=" << p;
  }
}

TEST(Broadcast, BspMWithinBound) {
  const std::uint32_t p = 1024, m = 32;
  const double L = 8;
  const core::BspM model(params(p, p / m, m, L));
  const auto r = algos::broadcast_bsp_m(model, m, static_cast<std::uint32_t>(L), 7);
  ASSERT_TRUE(r.correct);
  EXPECT_LE(r.time, 3 * core::bounds::broadcast_bsp_m(p, m, L));
}

TEST(Broadcast, QsmGInformsEveryone) {
  const std::uint32_t p = 512;
  const double g = 8;
  const core::QsmG model(params(p, g, 64, 1));
  const auto r = algos::broadcast_qsm_g(model, static_cast<std::uint32_t>(g), 3);
  ASSERT_TRUE(r.correct);
  EXPECT_LE(r.time, 4 * core::bounds::broadcast_qsm_g(p, g));
}

TEST(Broadcast, QsmMWithinBound) {
  const std::uint32_t p = 1024, m = 32;
  const core::QsmM model(params(p, p / m, m, 1));
  const auto r = algos::broadcast_qsm_m(model, m, 11);
  ASSERT_TRUE(r.correct);
  EXPECT_LE(r.time, 4 * core::bounds::broadcast_qsm_m(p, m));
}

TEST(Broadcast, GlobalBeatsLocalAtMatchedBandwidth) {
  const std::uint32_t p = 4096, m = 64;
  const double g = p / m;  // 64
  const core::QsmG local(params(p, g, m, 1));
  const core::QsmM global(params(p, g, m, 1));
  const auto rl =
      algos::broadcast_qsm_g(local, static_cast<std::uint32_t>(g), 1);
  const auto rg = algos::broadcast_qsm_m(global, m, 1);
  ASSERT_TRUE(rl.correct && rg.correct);
  EXPECT_GT(rl.time, rg.time);
}

// ---- parity / summation ----------------------------------------------------

std::vector<engine::Word> random_inputs(std::uint32_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<engine::Word> v(n);
  for (auto& x : v) x = static_cast<engine::Word>(rng.below(1 << 20));
  return v;
}

TEST(Reduce, BspSumAndParity) {
  const std::uint32_t p = 256, m = 16;
  const auto inputs = random_inputs(p, 1);
  const core::BspM model(params(p, p / m, m, 4));
  for (auto op : {algos::ReduceOp::kSum, algos::ReduceOp::kXor}) {
    const auto r = algos::reduce_bsp(model, inputs, m, 4, op);
    EXPECT_TRUE(r.correct);
  }
}

TEST(Reduce, BspGFullTree) {
  const std::uint32_t p = 256;
  const auto inputs = random_inputs(p, 2);
  const core::BspG model(params(p, 4, 64, 16));
  const auto r = algos::reduce_bsp(model, inputs, p, 4, algos::ReduceOp::kSum);
  EXPECT_TRUE(r.correct);
}

TEST(Reduce, BspMBeatsBspG) {
  const std::uint32_t p = 1024, m = 32;
  const double g = p / m, L = 8;
  const auto inputs = random_inputs(p, 3);
  const core::BspM global(params(p, g, m, L));
  const core::BspG local(params(p, g, m, L));
  const auto rg = algos::reduce_bsp(global, inputs, m, static_cast<std::uint32_t>(L),
                                    algos::ReduceOp::kSum);
  const auto rl = algos::reduce_bsp(local, inputs, p,
                                    std::max(2u, static_cast<std::uint32_t>(L / g)),
                                    algos::ReduceOp::kSum);
  ASSERT_TRUE(rg.correct && rl.correct);
  EXPECT_GT(rl.time, rg.time);
}

TEST(Reduce, QsmSumMatchesReference) {
  const std::uint32_t p = 256, m = 16;
  const auto inputs = random_inputs(p, 4);
  const core::QsmM model(params(p, p / m, m, 1));
  const auto r = algos::reduce_qsm(model, inputs, m, 2, m, algos::ReduceOp::kSum);
  EXPECT_TRUE(r.correct);
  EXPECT_LE(r.time, 6 * core::bounds::reduce_qsm_m(p, m));
}

TEST(Reduce, QsmParitySmall) {
  const std::uint32_t p = 8;
  const auto inputs = random_inputs(p, 5);
  const core::QsmG model(params(p, 2, 4, 1));
  const auto r = algos::reduce_qsm(model, inputs, p, 2, 4, algos::ReduceOp::kXor);
  EXPECT_TRUE(r.correct);
}

// ---- list ranking ----------------------------------------------------------

TEST(ListRank, ReferenceIsSane) {
  // List 2 -> 0 -> 1: ranks 2,1,0... succ[2]=0, succ[0]=1, succ[1]=nil.
  const std::vector<std::uint32_t> succ{1, 3, 0};
  const auto rank = algos::rank_reference(succ);
  EXPECT_EQ(rank[2], 2u);
  EXPECT_EQ(rank[0], 1u);
  EXPECT_EQ(rank[1], 0u);
}

TEST(ListRank, RandomListSmall) {
  const auto succ = algos::random_list(64, 7);
  const core::QsmM model(params(64, 8, 8, 1));
  const auto r = algos::list_rank_qsm(model, succ, 8, 8);
  EXPECT_TRUE(r.correct);
}

TEST(ListRank, RandomListLarger) {
  const auto succ = algos::random_list(1024, 8);
  const std::uint32_t m = 32;
  const core::QsmM model(params(1024, 1024 / m, m, 1));
  const auto r = algos::list_rank_qsm(model, succ, m, m);
  EXPECT_TRUE(r.correct);
}

TEST(ListRank, SingletonAndPair) {
  {
    const std::vector<std::uint32_t> succ{1};
    const core::QsmM model(params(2, 1, 1, 1));
    EXPECT_TRUE(algos::list_rank_qsm(model, succ, 1, 1).correct);
  }
  {
    const std::vector<std::uint32_t> succ{1, 2};
    const core::QsmM model(params(2, 1, 1, 1));
    EXPECT_TRUE(algos::list_rank_qsm(model, succ, 1, 1).correct);
  }
}

TEST(ListRank, GlobalModelFasterThanLocal) {
  const std::uint32_t n = 512, m = 16;
  const double g = n / m;
  const auto succ = algos::random_list(n, 9);
  const core::QsmM global(params(n, g, m, 1));
  const core::QsmG local(params(n, g, m, 1));
  const auto rg = algos::list_rank_qsm(global, succ, m, m);
  const auto rl = algos::list_rank_qsm(local, succ, m, m);
  ASSERT_TRUE(rg.correct && rl.correct);
  EXPECT_GT(rl.time, rg.time);
}

// ---- sorting ----------------------------------------------------------------

TEST(Sort, SmallAndDegenerate) {
  const core::BspM model1(params(1, 1, 1, 1));
  EXPECT_TRUE(algos::sample_sort_bsp(model1, {3, 1, 2}, 1).correct);

  const core::BspM model4(params(4, 2, 2, 1));
  EXPECT_TRUE(algos::sample_sort_bsp(model4, random_inputs(64, 10), 2).correct);
}

TEST(Sort, DuplicateKeys) {
  const core::BspM model(params(16, 4, 4, 2));
  std::vector<engine::Word> keys(256, 7);
  keys[3] = 1;
  keys[200] = 9;
  EXPECT_TRUE(algos::sample_sort_bsp(model, keys, 4).correct);
}

TEST(Sort, LargerInstanceWithinBoundShape) {
  // Regime m^2 lg^2 n << n so the splitter machinery stays under n/m.
  const std::uint32_t p = 256, m = 8;
  const double L = 4;
  const auto keys = random_inputs(16384, 11);
  const core::BspM model(params(p, p / m, m, L));
  const auto r = algos::sample_sort_bsp(model, keys, m);
  ASSERT_TRUE(r.correct);
  // Three balanced n-relations, each ~ n/m under staggering, plus local
  // sort work ~ (n/S) lg: stay within a small constant of n/m.
  EXPECT_LE(r.time, 12 * core::bounds::sort_bsp_m(keys.size(), m, L));
}

TEST(Sort, BspGPaysGap) {
  const std::uint32_t p = 256, m = 16;
  const double g = p / m;
  const auto keys = random_inputs(4096, 12);
  const core::BspM global(params(p, g, m, 4));
  const core::BspG local(params(p, g, m, 4));
  const auto rg = algos::sample_sort_bsp(global, keys, m);
  const auto rl = algos::sample_sort_bsp(local, keys, m);
  ASSERT_TRUE(rg.correct && rl.correct);
  EXPECT_GT(rl.time, rg.time);
}

TEST(Sort, AlreadySortedAndReversed) {
  const core::BspM model(params(64, 4, 16, 2));
  std::vector<engine::Word> asc(1024), desc(1024);
  for (int i = 0; i < 1024; ++i) {
    asc[i] = i;
    desc[i] = 1024 - i;
  }
  EXPECT_TRUE(algos::sample_sort_bsp(model, asc, 16).correct);
  EXPECT_TRUE(algos::sample_sort_bsp(model, desc, 16).correct);
}

// Every gather round merges the partner's sorted sample pool into the
// sorter's own.  The splitters, so the tapes and times, must be the ones a
// sort of the whole pool gives, pinned here: at 8 sorters under m = 16
// (stagger_slot's group <= m branch) and at 32 sorters under m = 4
// (group > m) with keys below 50, so the pool holds duplicates; p is not a
// power of two.
TEST(Sort, MergedSamplePoolKeepsTapes) {
  struct Case {
    std::uint32_t p;
    double g;
    std::uint32_t m;
    double L;
    std::size_t n;
    std::uint64_t key_seed;
    std::uint64_t key_range;
    std::uint64_t seed;
    std::uint64_t fingerprint;
    std::uint64_t supersteps;
    std::uint64_t bsp_g_time_bits;
    std::uint64_t bsp_m_time_bits;
  };
  constexpr Case kCases[] = {
      {12, 2, 16, 2, 600, 21, 1u << 20, 5, 0x63e80630f09a3481ull, 10,
       0x40a193ad2102b2a4ull, 0x409d1b5a42056549ull},
      {96, 8, 4, 3, 3000, 22, 50, 6, 0x6a72a7e2c84a2180ull, 14,
       0x40bf7798149044f4ull, 0x40b90998149044f4ull},
  };
  for (const Case& c : kCases) {
    util::Xoshiro256 rng(c.key_seed);
    std::vector<engine::Word> keys(c.n);
    for (auto& key : keys) key = static_cast<engine::Word>(rng.below(c.key_range));
    const core::BspG local(params(c.p, c.g, c.m, c.L));
    const core::BspM global(params(c.p, c.g, c.m, c.L));
    const std::pair<const engine::CostModel*, std::uint64_t> runs[] = {
        {&local, c.bsp_g_time_bits}, {&global, c.bsp_m_time_bits}};
    for (const auto& [model, time_bits] : runs) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(model->name() + " threads=" + std::to_string(threads));
        replay::TapeRecorder recorder;
        engine::MachineOptions options;
        options.seed = c.seed;
        options.threads = threads;
        options.tape_recorder = &recorder;
        const auto result = algos::sample_sort_bsp(*model, keys, c.m, 4, options);
        ASSERT_EQ(recorder.tapes().size(), 1u);
        EXPECT_TRUE(result.correct);
        EXPECT_EQ(result.supersteps, c.supersteps);
        EXPECT_EQ(recorder.tapes().front().fingerprint(), c.fingerprint);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(result.time), time_bits);
        // Every outbox of the staggered program is issued in slot order.
        EXPECT_EQ(recorder.tapes().front().counters.outbox_sorts, 0u);
      }
    }
  }
}

}  // namespace
