// Second wave of PRAM tests: machine edge cases, h-relation property
// sweeps, leader-recognition parameter sweeps, and CR-simulation scaling.
#include <gtest/gtest.h>

#include <ostream>
#include <type_traits>

#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "param_name.hpp"
#include "pram/cr_sim.hpp"
#include "pram/h_relation.hpp"
#include "pram/leader.hpp"
#include "pram/pram.hpp"
#include "sched/workloads.hpp"

namespace {

using namespace pbw;
using pram::Mode;
using pram::PramContext;
using pram::PramMachine;
using pram::PramProgram;

TEST(Pram, StepLimitEnforced) {
  class Forever final : public PramProgram {
   public:
    bool step(PramContext&) override { return true; }
  } prog;
  PramMachine machine(2, 1, {}, Mode::kCRCW, 1, /*max_steps=*/16);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Pram, OutOfRangeAccessThrows) {
  class Bad final : public PramProgram {
   public:
    bool step(PramContext& ctx) override {
      (void)ctx.read(10);
      return false;
    }
  } prog;
  PramMachine machine(1, 2, {}, Mode::kCRCW);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Pram, RomOutOfRangeThrows) {
  class Bad final : public PramProgram {
   public:
    bool step(PramContext& ctx) override {
      (void)ctx.rom(5);
      return false;
    }
  } prog;
  PramMachine machine(1, 1, {1, 2}, Mode::kCRCW);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Pram, ErewAllowsDisjointAccess) {
  class Disjoint final : public PramProgram {
   public:
    bool step(PramContext& ctx) override {
      if (ctx.step() > 0) return false;
      ctx.write(ctx.id(), ctx.id());
      return true;
    }
  } prog;
  PramMachine machine(8, 8, {}, Mode::kEREW);
  EXPECT_NO_THROW(machine.run(prog));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(machine.cell(i), static_cast<engine::Word>(i));
  }
}

TEST(Pram, ErewWriteConflictThrows) {
  class Clash final : public PramProgram {
   public:
    bool step(PramContext& ctx) override {
      if (ctx.step() > 0) return false;
      ctx.write(0, ctx.id());
      return true;
    }
  } prog;
  PramMachine machine(2, 1, {}, Mode::kEREW);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Pram, QrqwTimeAccumulatesPerStepContention) {
  class TwoPhases final : public PramProgram {
   public:
    bool step(PramContext& ctx) override {
      if (ctx.step() == 0) {
        (void)ctx.read(0);  // contention p = 4
        return true;
      }
      if (ctx.step() == 1) {
        (void)ctx.read(ctx.id());  // contention 1
        return true;
      }
      return false;
    }
  } prog;
  PramMachine machine(4, 4, {}, Mode::kQRQW);
  const auto run = machine.run(prog);
  EXPECT_DOUBLE_EQ(run.time, 4.0 + 1.0 + 1.0);
}

TEST(Pram, DeterministicRngStreams) {
  class Roll final : public PramProgram {
   public:
    bool step(PramContext& ctx) override {
      if (ctx.step() > 0) return false;
      value_ ^= static_cast<engine::Word>(ctx.rng().below(1 << 30)) + ctx.id();
      return true;
    }
    engine::Word value_ = 0;
  };
  Roll a, b;
  PramMachine m1(16, 1, {}, Mode::kCRCW, 99), m2(16, 1, {}, Mode::kCRCW, 99);
  m1.run(a);
  m2.run(b);
  EXPECT_EQ(a.value_, b.value_);
}

// ---- h-relation sweep ---------------------------------------------------------

struct HRelCase {
  std::uint32_t p;
  std::uint64_t n;
  double hot;
};

// ctest names a case by gtest's print of its parameter (tests/CMakeLists.txt).
void PrintTo(const HRelCase& c, std::ostream* os) {
  *os << "p" << c.p << "_n" << c.n << "_hot" << test::name_part(c.hot);
}

class HRelationSweep : public ::testing::TestWithParam<HRelCase> {};

TEST_P(HRelationSweep, DeliversWithinRoundBound) {
  const auto c = GetParam();
  util::Xoshiro256 rng(31 + c.p);
  const auto rel = sched::point_skew_relation(c.p, c.n, c.hot, rng);
  const auto result = pram::realize_h_relation_crcw(rel);
  EXPECT_TRUE(result.delivered);
  EXPECT_LE(result.rounds, std::max<std::uint64_t>(rel.max_received(), 1) + 1);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HRelationSweep,
                         ::testing::Values(HRelCase{8, 32, 0.0},
                                           HRelCase{16, 128, 0.5},
                                           HRelCase{32, 512, 0.9},
                                           HRelCase{64, 256, 0.2},
                                           HRelCase{64, 1024, 1.0}));

// ---- leader sweep --------------------------------------------------------------

struct LeaderCase {
  std::uint32_t p;
  std::uint32_t m;
};
// ctest names these cases by gtest's byte dump of the parameter
// (tests/CMakeLists.txt), which is the same in every build only while the
// struct has no padding.
static_assert(std::has_unique_object_representations_v<LeaderCase>);

class LeaderSweep : public ::testing::TestWithParam<LeaderCase> {};

TEST_P(LeaderSweep, BothModesCorrectAndOrdered) {
  const auto c = GetParam();
  util::Xoshiro256 rng(c.p + c.m);
  const auto leader = static_cast<std::uint32_t>(rng.below(c.p));
  const auto cr = pram::leader_concurrent_read(c.p, c.m, leader);
  const auto er = pram::leader_exclusive_read(c.p, c.m, leader);
  EXPECT_TRUE(cr.correct);
  EXPECT_TRUE(er.correct);
  EXPECT_LE(cr.steps, 3u);
  EXPECT_GE(er.steps, cr.steps);
  // ER pays at least the drain: p/m steps (with m rounded to a power of 2).
  EXPECT_GE(er.steps, c.p / (2 * c.m));
}

INSTANTIATE_TEST_SUITE_P(Grid, LeaderSweep,
                         ::testing::Values(LeaderCase{64, 1}, LeaderCase{64, 8},
                                           LeaderCase{256, 16},
                                           LeaderCase{1024, 4},
                                           LeaderCase{1024, 64},
                                           LeaderCase{4096, 32}));

// ---- CR simulation scaling ------------------------------------------------------

TEST(CrSim, RatioFlatAcrossP) {
  // O(p/m): the measured/(p/m) ratio must not grow with p.
  double prev_ratio = 0.0;
  for (std::uint32_t p : {256u, 1024u, 4096u}) {
    const auto m = static_cast<std::uint32_t>(std::sqrt(p) / 2);
    core::ModelParams prm;
    prm.p = p;
    prm.g = double(p) / m;
    prm.m = m;
    prm.L = 1;
    const core::QsmM model(prm);
    util::Xoshiro256 rng(p);
    std::vector<std::uint32_t> addr(p);
    for (auto& a : addr) a = static_cast<std::uint32_t>(rng.below(m));
    std::vector<engine::Word> memory(m);
    for (std::uint32_t a = 0; a < m; ++a) memory[a] = a;
    const auto r = pram::simulate_cr_step(model, memory, addr, m);
    ASSERT_TRUE(r.correct);
    const double ratio = r.time / (double(p) / m);
    if (prev_ratio > 0) {
      EXPECT_LE(ratio, prev_ratio * 1.25);
    }
    prev_ratio = ratio;
  }
}

// ---- array-based h-relation (the paper's first Section 4.1 algorithm) -------

TEST(HRelationArray, DeliversBalanced) {
  util::Xoshiro256 rng(41);
  const auto rel = sched::balanced_relation(16, 4, rng);
  const auto result = pram::realize_h_relation_array(rel);
  EXPECT_TRUE(result.delivered);
}

TEST(HRelationArray, StepsLinearInH) {
  util::Xoshiro256 rng(42);
  for (double hot : {0.0, 0.5, 1.0}) {
    const auto rel = sched::point_skew_relation(16, 96, hot, rng);
    const auto result = pram::realize_h_relation_array(rel);
    EXPECT_TRUE(result.delivered) << "hot=" << hot;
    EXPECT_LE(result.steps, rel.max_received() + 6) << "hot=" << hot;
  }
}

TEST(HRelationArray, AgreesWithConcurrentWriteVariant) {
  util::Xoshiro256 rng(43);
  const auto rel = sched::zipf_relation(16, 128, 1.0, rng);
  const auto a = pram::realize_h_relation_array(rel);
  const auto b = pram::realize_h_relation_crcw(rel);
  EXPECT_TRUE(a.delivered);
  EXPECT_TRUE(b.delivered);
  // Both are O(h); same order of rounds.
  EXPECT_LE(a.rounds, 2 * b.rounds + 6);
}

TEST(HRelationArray, EmptyRelation) {
  sched::Relation rel(4);
  const auto result = pram::realize_h_relation_array(rel);
  EXPECT_TRUE(result.delivered);
  EXPECT_LE(result.steps, 6u);
}

TEST(HRelationArray, RejectsLongMessages) {
  sched::Relation rel(4);
  rel.add(0, 1, 2);
  EXPECT_THROW((void)pram::realize_h_relation_array(rel), engine::SimulationError);
}

TEST(CrSimDoubling, CorrectAcrossPatterns) {
  const std::uint32_t p = 512, m = 16;
  core::ModelParams prm;
  prm.p = p;
  prm.g = double(p) / m;
  prm.m = m;
  prm.L = 1;
  const core::QsmM model(prm);
  std::vector<engine::Word> memory(m);
  for (std::uint32_t a = 0; a < m; ++a) memory[a] = 100 + a;
  util::Xoshiro256 rng(13);
  for (int pattern = 0; pattern < 3; ++pattern) {
    std::vector<std::uint32_t> addr(p);
    for (std::uint32_t i = 0; i < p; ++i) {
      addr[i] = pattern == 0 ? 0
                : pattern == 1 ? i % m
                               : static_cast<std::uint32_t>(rng.below(m));
    }
    const auto r = pram::simulate_cr_step(
        model, memory, addr, m, pram::CrDistribution::kStandardDoubling);
    EXPECT_TRUE(r.correct) << "pattern " << pattern;
  }
}

TEST(CrSimDoubling, SlowerThanCentralReadsByLgFactor) {
  // The proof's point: the standard EREW simulation pays ~lg p over the
  // central-read method on the all-same pattern (one giant run).
  const std::uint32_t p = 2048, m = 16;
  core::ModelParams prm;
  prm.p = p;
  prm.g = double(p) / m;
  prm.m = m;
  prm.L = 1;
  const core::QsmM model(prm);
  std::vector<engine::Word> memory(m, 7);
  const std::vector<std::uint32_t> addr(p, 3);
  const auto central = pram::simulate_cr_step(
      model, memory, addr, m, pram::CrDistribution::kCentralReads);
  const auto doubling = pram::simulate_cr_step(
      model, memory, addr, m, pram::CrDistribution::kStandardDoubling);
  ASSERT_TRUE(central.correct && doubling.correct);
  EXPECT_GT(doubling.time, 1.5 * central.time);
}

TEST(CrSim, SmallestInstance) {
  core::ModelParams prm;
  prm.p = 4;
  prm.g = 2;
  prm.m = 2;
  prm.L = 1;
  const core::QsmM model(prm);
  const auto r = pram::simulate_cr_step(model, {10, 20},
                                        {0, 1, 0, 1}, 2);
  EXPECT_TRUE(r.correct);
}

}  // namespace
