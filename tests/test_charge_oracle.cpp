// Every charge path of the program against the paper's definitions, as
// tests/oracle.hpp restates them without the program's helpers.
//
// Seeded random tapes (1-200 supersteps, 0-40k slots, m_t below, at and
// above every m of the grid, w, h and kappa at 0 and at large values) are
// charged by the oracle and by each program path, and the run totals are
// compared as bit patterns:
//   - the virtual cost_components().max_term(), summed in superstep order;
//   - scalar replay::recost;
//   - replay::recost_batch on every compiled kernel path, inline and on a
//     4-thread pool, for the envelope's grid and for its points as
//     one-point grids;
//   - planner::solve's best cost, and the index of the oracle's argmin.
// A hand-built tape straddles the exact c_m shortcut: some supersteps
// stay within m (m_t = m and all-zero ones included), others put one slot
// at m + 1, and BatchInfo shows that both the shortcut and the walk ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "core/model/charge.hpp"
#include "oracle.hpp"
#include "planner/planner.hpp"
#include "replay/batch.hpp"
#include "replay/tape.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pbw;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The m axis of the grids below.  Slot counts are drawn around these
/// values, so m_t < m, m_t == m and m_t > m all occur for each of them.
constexpr std::uint32_t kM[] = {1, 3, 8, 64};

/// 0, small, or large (about 2^40), in equal parts.
std::uint64_t count(util::Xoshiro256& rng) {
  switch (rng.below(4)) {
    case 0: return 0;
    case 1: return rng.below(16);
    case 2: return rng.below(4096);
    default: return (std::uint64_t{1} << 40) + rng.below(1u << 20);
  }
}

double work(util::Xoshiro256& rng) {
  switch (rng.below(4)) {
    case 0: return 0.0;
    case 1: return static_cast<double>(rng.below(64));
    case 2: return static_cast<double>(rng.below(1u << 20)) / 8.0;
    default: return static_cast<double>((std::uint64_t{1} << 40) + rng.below(1u << 20));
  }
}

/// m_t next to a grid m (m - 1, m or m + 1), or anywhere up to 4m.
std::uint64_t occupancy(util::Xoshiro256& rng) {
  const std::uint64_t m = kM[rng.below(std::size(kM))];
  return rng.below(2) == 0 ? m - 1 + rng.below(3) : rng.below(4 * m + 1);
}

/// One random run, as the oracle's steps and as the program's tape.
struct RandomRun {
  std::vector<oracle::Step> steps;
  replay::StatsTape tape;
};

RandomRun random_run(std::uint64_t seed, std::size_t max_slots) {
  util::Xoshiro256 rng(seed);
  RandomRun run;
  run.tape.p = 64;
  run.tape.seed = seed;
  const std::size_t supersteps = 1 + rng.below(200);
  std::size_t budget = rng.below(max_slots + 1);
  const std::size_t mean = budget / supersteps;
  for (std::size_t i = 0; i < supersteps; ++i) {
    oracle::Step o;
    o.w = work(rng);
    o.sent = count(rng);
    o.received = count(rng);
    o.reads = count(rng);
    o.writes = count(rng);
    o.kappa = count(rng);
    const std::size_t slots = std::min(budget, rng.below(2 * mean + 1));
    budget -= slots;
    for (std::size_t t = 0; t < slots; ++t) {
      o.m_t.push_back(occupancy(rng));
      o.n += o.m_t.back();
    }
    if (rng.below(8) == 0) o.n = count(rng);

    engine::SuperstepStats s;
    s.max_work = o.w;
    s.max_sent = o.sent;
    s.max_received = o.received;
    s.max_reads = o.reads;
    s.max_writes = o.writes;
    s.kappa = o.kappa;
    s.total_flits = o.n;
    s.total_requests = o.reads + o.writes;
    s.slot_counts = o.m_t;
    run.tape.append(s);
    run.steps.push_back(std::move(o));
  }
  return run;
}

/// The oracle's run total for one grid point.
double oracle_total(const std::vector<oracle::Step>& steps,
                    const replay::CostPointSpec& pt) {
  const oracle::Penalty pen = pt.penalty == core::Penalty::kLinear
                                  ? oracle::Penalty::kLinear
                                  : oracle::Penalty::kExponential;
  switch (pt.family) {
    case replay::ModelFamily::kBspG:
      return oracle::run_total(steps, [&](const oracle::Step& s) { return oracle::bsp_g(s, pt.g, pt.L); });
    case replay::ModelFamily::kBspM:
      return oracle::run_total(steps, [&](const oracle::Step& s) { return oracle::bsp_m(s, pt.m, pt.L, pen); });
    case replay::ModelFamily::kQsmG:
      return oracle::run_total(steps, [&](const oracle::Step& s) { return oracle::qsm_g(s, pt.g); });
    case replay::ModelFamily::kQsmM:
      return oracle::run_total(steps, [&](const oracle::Step& s) { return oracle::qsm_m(s, pt.m, pen); });
    case replay::ModelFamily::kSelfSchedulingBspM:
      return oracle::run_total(steps, [&](const oracle::Step& s) { return oracle::ss_bsp_m(s, pt.m, pt.L); });
  }
  ADD_FAILURE() << "unknown family";
  return 0.0;
}

std::vector<double> oracle_totals(const std::vector<oracle::Step>& steps,
                                  const std::vector<replay::CostPointSpec>& points) {
  std::vector<double> totals;
  totals.reserve(points.size());
  for (const auto& pt : points) totals.push_back(oracle_total(steps, pt));
  return totals;
}

/// recost_batch of `grids` on every compiled kernel path, inline and on
/// `pool`, against the oracle's totals.  A non-null `info` receives the
/// last inline call's BatchInfo.
void expect_batch_matches(const replay::StatsTape& tape,
                          std::span<const replay::CostGrid> grids,
                          const std::vector<double>& expected,
                          util::ThreadPool& pool,
                          replay::BatchInfo* info = nullptr) {
  for (const simd::Path path : replay::available_kernel_paths()) {
    const simd::ScopedPath pin(path);
    const auto inline_totals = replay::recost_batch(tape, grids, nullptr, info);
    const auto pooled = replay::recost_batch(tape, grids, &pool);
    ASSERT_EQ(inline_totals.size(), expected.size());
    ASSERT_EQ(pooled.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(bits(inline_totals[k]), bits(expected[k]))
          << simd::path_name(path) << " inline, point " << k;
      ASSERT_EQ(bits(pooled[k]), bits(expected[k]))
          << simd::path_name(path) << " 4 threads, point " << k;
    }
  }
}

/// One one-point grid per point, viewing `points`.
std::vector<replay::CostGrid> point_grids(
    const std::vector<replay::CostPointSpec>& points) {
  std::vector<replay::CostGrid> grids;
  for (const auto& pt : points) grids.push_back(replay::CostGrid::point(pt));
  return grids;
}

TEST(ChargeOracle, EveryChargePathMatchesTheOracleBitForBit) {
  planner::Envelope envelope;
  envelope.g = {1.0, 2.5, 16.0};
  envelope.L = {1.0, 7.0, 4096.0};
  envelope.m.assign(std::begin(kM), std::end(kM));
  envelope.penalties = {core::Penalty::kLinear, core::Penalty::kExponential};
  const std::vector<replay::CostPointSpec> points = envelope.enumerate();
  util::ThreadPool pool(4);

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const RandomRun run = random_run(seed, 40000);
    const std::vector<double> expected = oracle_totals(run.steps, points);

    std::vector<engine::SuperstepStats> stats;
    for (std::size_t i = 0; i < run.tape.size(); ++i) {
      stats.push_back(run.tape.step(i));
    }
    for (std::size_t k = 0; k < points.size(); ++k) {
      const auto model = planner::make_model(run.tape.p, points[k]);
      double summed = 0.0;
      for (const auto& s : stats) summed += model->cost_components(s).max_term();
      ASSERT_EQ(bits(summed), bits(expected[k])) << model->name();
      ASSERT_EQ(bits(replay::recost(run.tape, *model).total_time),
                bits(expected[k]))
          << model->name();
    }

    const replay::CostGrid grid = envelope.grid();
    expect_batch_matches(run.tape, {&grid, 1}, expected, pool);
    expect_batch_matches(run.tape, point_grids(points), expected, pool);

    const planner::PlanResult plan = planner::solve(run.tape, envelope);
    const auto argmin = std::min_element(expected.begin(), expected.end());
    EXPECT_EQ(bits(plan.best.cost), bits(*argmin));
    EXPECT_EQ(plan.best.index,
              static_cast<std::size_t>(argmin - expected.begin()));
  }
}

TEST(ChargeOracle, TiledBatchMatchesTheOracle) {
  // Blocks of more than one pool task (8192 points) each, so the 4-thread
  // pool really splits them.
  planner::Envelope envelope;
  envelope.families = {replay::ModelFamily::kBspG, replay::ModelFamily::kBspM,
                       replay::ModelFamily::kSelfSchedulingBspM};
  envelope.g = {1.0, 16.0};
  envelope.L.clear();
  for (int i = 0; i < 9000; ++i) envelope.L.push_back(1.0 + 0.5 * i);
  envelope.m = {3, 8};
  const std::vector<replay::CostPointSpec> points = envelope.enumerate();
  const RandomRun run = random_run(77, 600);
  util::ThreadPool pool(4);
  const replay::CostGrid grid = envelope.grid();
  expect_batch_matches(run.tape, {&grid, 1}, oracle_totals(run.steps, points),
                       pool);
}

/// One superstep of the straddling tape: w and h stay small, so c_m
/// decides every BSP(m) and QSM(m) charge.
oracle::Step straddle_step(std::vector<std::uint64_t> m_t) {
  oracle::Step s;
  s.w = 1.0;
  s.sent = s.received = 2;
  s.reads = s.writes = 1;
  s.kappa = 1;
  s.m_t = std::move(m_t);
  for (const std::uint64_t x : s.m_t) s.n += x;
  return s;
}

TEST(ChargeOracle, ShortcutAndWalkAgreeOnAStraddlingTape) {
  // m = 8 throughout.  Within m: busy slots at and below 8, all-zero
  // slots, no slots.  Past m: one slot at 9 among slots within m.
  constexpr std::uint32_t m = 8;
  std::vector<oracle::Step> steps;
  for (std::size_t k = 0; k < 40; ++k) {
    switch (k % 5) {
      case 0: steps.push_back(straddle_step({8, 3, 0, 8, 1, 7})); break;
      case 1: steps.push_back(straddle_step({0, 0, 0, 0})); break;
      case 2: steps.push_back(straddle_step({})); break;
      case 3: steps.push_back(straddle_step({8, 9, 2, 0, 8})); break;
      default:
        steps.push_back(straddle_step(std::vector<std::uint64_t>(64 + k, 1)));
    }
  }
  replay::StatsTape tape;
  tape.p = 64;
  std::uint64_t slots = 0, walked = 0;
  for (const oracle::Step& o : steps) {
    engine::SuperstepStats s;
    s.max_work = o.w;
    s.max_sent = o.sent;
    s.max_received = o.received;
    s.max_reads = o.reads;
    s.max_writes = o.writes;
    s.kappa = o.kappa;
    s.total_flits = o.n;
    s.total_requests = o.reads + o.writes;
    s.slot_counts = o.m_t;
    tape.append(s);
    slots += o.m_t.size();
    if (std::any_of(o.m_t.begin(), o.m_t.end(),
                    [](std::uint64_t x) { return x > m; })) {
      walked += o.m_t.size();
    }
  }
  ASSERT_GT(walked, 0u);
  ASSERT_LT(walked, slots);

  // The shortcut itself: cm with a summary is cm without one, bit for
  // bit, on both sides of every m from 1 to 10 and both penalties.
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const auto step = tape.slots(i);
    const core::charge::SlotSummary summary = core::charge::summarize(step);
    for (std::uint32_t mm = 1; mm <= 10; ++mm) {
      for (const core::Penalty pen :
           {core::Penalty::kLinear, core::Penalty::kExponential}) {
        ASSERT_EQ(bits(core::charge::cm(step, summary, mm, pen)),
                  bits(core::charge::cm(step, mm, pen)))
            << "superstep " << i << " m " << mm;
      }
    }
  }

  // BSP(m) and QSM(m) at m = 8, both penalties, over enough L values that
  // the pool splits the batch.
  const replay::ModelFamily families[] = {replay::ModelFamily::kBspM,
                                          replay::ModelFamily::kQsmM};
  std::vector<double> L;
  for (int k = 0; k < 4500; ++k) L.push_back(1.0 + 0.01 * k);
  const std::uint32_t ms[] = {m};
  const core::Penalty penalties[] = {core::Penalty::kLinear,
                                     core::Penalty::kExponential};
  const replay::CostGrid grid{families, {}, L, ms, penalties};
  ASSERT_GT(grid.size(), replay::kTaskPoints);
  const oracle::Penalty oracle_penalties[] = {oracle::Penalty::kLinear,
                                              oracle::Penalty::kExponential};
  std::vector<double> expected;
  for (const double Lv : L) {
    for (const oracle::Penalty o : oracle_penalties) {
      expected.push_back(oracle::run_total(steps, [&](const oracle::Step& s) {
        return oracle::bsp_m(s, m, Lv, o);
      }));
    }
  }
  for (const oracle::Penalty o : oracle_penalties) {
    expected.push_back(oracle::run_total(
        steps, [&](const oracle::Step& s) { return oracle::qsm_m(s, m, o); }));
  }
  util::ThreadPool pool(4);
  replay::BatchInfo info;
  expect_batch_matches(tape, {&grid, 1}, expected, pool, &info);
  // Both branches ran: the summary read every slot, then each of the two
  // (m, penalty) columns walked exactly the supersteps past m.
  EXPECT_EQ(info.points, grid.size());
  EXPECT_EQ(info.cm_slots, slots + 2 * walked);
}

}  // namespace
