// Trace-replay tests: recost equivalence against fresh simulation for all
// five models and both penalty shapes, tape-recorder scoping, the LRU tape
// cache, the structural/cost-only axis partition, the difference-array
// slot accounting, and executor-level replay == forced-simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/batch.hpp"
#include "replay/cache.hpp"
#include "replay/recorder.hpp"
#include "replay/tape.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pbw;
using engine::Machine;
using engine::MachineOptions;
using engine::ProcContext;
using engine::SuperstepProgram;

core::ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Mixed workload: three message supersteps (scheduled long messages,
/// random fan-out, ring) followed by a shared-memory superstep with
/// contended reads — exercises every stats field a model can charge.
class MixedProgram : public SuperstepProgram {
 public:
  void setup(Machine& machine) override {
    machine.resize_shared(machine.p() + 8);
  }
  bool step(ProcContext& ctx) override {
    switch (ctx.superstep()) {
      case 0:
        // Overlapping long messages: proc i starts 4 flits at slot i+1.
        ctx.send((ctx.id() + 1) % ctx.p(), ctx.id(), ctx.id() + 1, 4);
        return true;
      case 1:
        for (int k = 0; k < 3; ++k) {
          ctx.send(static_cast<engine::ProcId>(ctx.rng().below(ctx.p())),
                   ctx.id(), 0, 1);
        }
        ctx.charge(2.5);
        return true;
      case 2:
        ctx.send((ctx.id() + 1) % ctx.p(), ctx.id());
        return true;
      case 3:
        for (int k = 0; k < 2; ++k) {
          ctx.read(ctx.p() + ctx.rng().below(8));
        }
        ctx.write(ctx.id(), ctx.superstep());
        return true;
      default:
        return false;
    }
  }
};

/// All five models (both penalty shapes for the globally-limited pair)
/// over one parameter point.
std::vector<std::unique_ptr<core::ModelBase>> all_models(
    const core::ModelParams& prm) {
  std::vector<std::unique_ptr<core::ModelBase>> models;
  models.push_back(std::make_unique<core::BspG>(prm));
  models.push_back(std::make_unique<core::BspM>(prm, core::Penalty::kLinear));
  models.push_back(
      std::make_unique<core::BspM>(prm, core::Penalty::kExponential));
  models.push_back(std::make_unique<core::QsmG>(prm));
  models.push_back(std::make_unique<core::QsmM>(prm, core::Penalty::kLinear));
  models.push_back(
      std::make_unique<core::QsmM>(prm, core::Penalty::kExponential));
  models.push_back(std::make_unique<core::SelfSchedulingBspM>(prm));
  return models;
}

/// Wraps a model and logs every charge a machine asks it for: the fresh
/// run's per-superstep costs, which the engine records nowhere but in its
/// total (the tape holds the stats they are charged from).
class ChargeLog final : public engine::CostModel {
 public:
  explicit ChargeLog(const engine::CostModel& inner) : inner_(inner) {}
  engine::SimTime superstep_cost(
      const engine::SuperstepStats& stats) const override {
    costs.push_back(inner_.superstep_cost(stats));
    return costs.back();
  }
  engine::CostComponents cost_components(
      const engine::SuperstepStats& stats) const override {
    return inner_.cost_components(stats);
  }
  std::string name() const override { return inner_.name(); }
  std::uint32_t processors() const override { return inner_.processors(); }
  std::unique_ptr<engine::CostModel> clone() const override {
    return inner_.clone();
  }

  mutable std::vector<engine::SimTime> costs;

 private:
  const engine::CostModel& inner_;
};

// ---- recost equivalence ---------------------------------------------------

TEST(Recost, BitEqualToFreshRunAllModels) {
  for (const auto& model : all_models(params(16, 3, 4, 8))) {
    replay::TapeRecorder recorder;
    MachineOptions options;
    options.seed = 7;
    options.tape_recorder = &recorder;
    MixedProgram program;
    const ChargeLog charges(*model);
    Machine machine(charges, options);
    const auto fresh = machine.run(program);

    ASSERT_EQ(recorder.tapes().size(), 1u) << model->name();
    const auto& tape = recorder.tapes().front();
    EXPECT_EQ(tape.captured_model, model->name());
    EXPECT_EQ(tape.p, 16u);
    EXPECT_EQ(tape.seed, 7u);
    EXPECT_EQ(tape.size(), fresh.supersteps);

    const auto recosted = replay::recost(tape, *model);
    EXPECT_TRUE(bits_equal(recosted.total_time, fresh.total_time))
        << model->name();
    ASSERT_EQ(recosted.costs.size(), charges.costs.size());
    for (std::size_t s = 0; s < charges.costs.size(); ++s) {
      EXPECT_TRUE(bits_equal(recosted.costs[s], charges.costs[s]))
          << model->name() << " superstep " << s;
    }

    const auto rerun = replay::recost_run(tape, *model);
    EXPECT_TRUE(bits_equal(rerun.total_time, fresh.total_time));
    EXPECT_EQ(rerun.supersteps, fresh.supersteps);
    EXPECT_EQ(rerun.total_messages, fresh.total_messages);
    EXPECT_EQ(rerun.total_flits, fresh.total_flits);
    EXPECT_EQ(rerun.total_reads, fresh.total_reads);
    EXPECT_EQ(rerun.total_writes, fresh.total_writes);
    ASSERT_EQ(replay::trace_run(tape, *model).records.size(),
              charges.costs.size());
  }
}

TEST(Recost, AcrossCostParamsMatchesFreshSimulation) {
  // Capture once under one parameter point, recost at others; the fresh
  // machine at the other point (same seed) must agree bit-for-bit.
  replay::TapeRecorder recorder;
  {
    const core::BspG capture_model(params(16, 3, 4, 8));
    MachineOptions options;
    options.seed = 11;
    options.tape_recorder = &recorder;
    MixedProgram program;
    Machine machine(capture_model, options);
    (void)machine.run(program);
  }
  const auto& tape = recorder.tapes().front();

  for (const double g : {1.0, 2.0, 7.5}) {
    for (const double L : {1.0, 64.0}) {
      for (const std::uint32_t m : {1u, 3u, 64u}) {
        for (const auto& model : all_models(params(16, g, m, L))) {
          MachineOptions options;
          options.seed = 11;  // same execution, different charging
          MixedProgram program;
          Machine machine(*model, options);
          const auto fresh = machine.run(program);
          const auto recosted = replay::recost(tape, *model);
          EXPECT_TRUE(bits_equal(recosted.total_time, fresh.total_time))
              << model->name() << " g=" << g << " L=" << L << " m=" << m;
        }
      }
    }
  }
}

TEST(Recost, TraceRunMatchesFreshCharges) {
  // Capture under one point, trace at another: every record is the fresh
  // run's charge at that point and the model's own split of it.
  replay::TapeRecorder recorder;
  {
    const core::BspG capture_model(params(16, 3, 4, 8));
    MachineOptions options;
    options.seed = 3;
    options.tape_recorder = &recorder;
    MixedProgram program;
    Machine machine(capture_model, options);
    (void)machine.run(program);
  }
  const core::QsmM model(params(16, 3, 4, 8), core::Penalty::kExponential);
  const ChargeLog charges(model);
  MachineOptions options;
  options.seed = 3;
  MixedProgram program;
  Machine machine(charges, options);
  const auto fresh = machine.run(program);

  const auto& tape = recorder.tapes().front();
  const auto traced = replay::trace_run(tape, model);
  EXPECT_EQ(traced.info.model, model.name());
  EXPECT_EQ(traced.info.p, 16u);
  EXPECT_EQ(traced.info.seed, 3u);
  ASSERT_EQ(traced.records.size(), charges.costs.size());
  for (std::size_t s = 0; s < traced.records.size(); ++s) {
    const auto& rec = traced.records[s];
    const auto comps = model.cost_components(tape.step(s));
    EXPECT_EQ(rec.superstep, s);
    EXPECT_TRUE(bits_equal(rec.cost, charges.costs[s])) << s;
    EXPECT_TRUE(bits_equal(rec.w, comps.w)) << s;
    EXPECT_TRUE(bits_equal(rec.gh, comps.gh)) << s;
    EXPECT_TRUE(bits_equal(rec.h, comps.h)) << s;
    EXPECT_TRUE(bits_equal(rec.cm, comps.cm)) << s;
    EXPECT_TRUE(bits_equal(rec.kappa, comps.kappa)) << s;
    EXPECT_TRUE(bits_equal(rec.L, comps.L)) << s;
    EXPECT_STREQ(rec.dominant, comps.dominant()) << s;
  }
  EXPECT_EQ(traced.summary.supersteps, fresh.supersteps);
  EXPECT_TRUE(bits_equal(traced.summary.total_time, fresh.total_time));
}

// ---- zero-superstep / L-floor audits --------------------------------------

/// Terminates in its first superstep without communicating: the machine
/// still executes (and charges) that one superstep, whose stats are all
/// zero and whose slot_counts vector is empty — the L-floor case.
class IdleProgram : public SuperstepProgram {
 public:
  bool step(ProcContext&) override { return false; }
};

TEST(Recost, EmptySlotCountsAndLFloorMatchFreshRun) {
  for (const auto& model : all_models(params(8, 2, 4, 16))) {
    replay::TapeRecorder recorder;
    MachineOptions options;
    options.seed = 11;
    options.tape_recorder = &recorder;
    IdleProgram program;
    Machine machine(*model, options);
    const auto fresh = machine.run(program);
    ASSERT_EQ(fresh.supersteps, 1u) << model->name();

    const auto& tape = recorder.tapes().front();
    ASSERT_EQ(tape.size(), 1u);
    EXPECT_TRUE(tape.slots(0).empty());

    const auto recosted = replay::recost(tape, *model);
    EXPECT_TRUE(bits_equal(recosted.total_time, fresh.total_time))
        << model->name();
    const auto rerun = replay::recost_run(tape, *model);
    EXPECT_TRUE(bits_equal(rerun.total_time, fresh.total_time))
        << model->name();
    EXPECT_EQ(rerun.total_messages, fresh.total_messages);
    EXPECT_EQ(rerun.total_flits, fresh.total_flits);
  }
  // Spot-check the floors themselves: BSP charges L, QSM(g) charges the
  // unit-gap g, QSM(m) charges nothing for an idle superstep.
  replay::TapeRecorder recorder;
  MachineOptions options;
  options.tape_recorder = &recorder;
  IdleProgram program;
  const core::BspG bsp(params(8, 2, 4, 16));
  Machine machine(bsp, options);
  (void)machine.run(program);
  const auto& tape = recorder.tapes().front();
  EXPECT_DOUBLE_EQ(replay::recost(tape, bsp).total_time, 16.0);
  EXPECT_DOUBLE_EQ(
      replay::recost(tape, core::QsmG(params(8, 2, 4, 16))).total_time, 2.0);
  EXPECT_DOUBLE_EQ(
      replay::recost(tape, core::QsmM(params(8, 2, 4, 16),
                                      core::Penalty::kLinear))
          .total_time,
      0.0);
}

TEST(Recost, ZeroSuperstepTapeYieldsZeroTotals) {
  // A tape no machine run ever touched (Machine::run always records at
  // least one superstep, so this arises only synthetically — e.g. an
  // empty TapeGroup slot): recost must return clean zeros, not crash.
  const replay::StatsTape tape;
  const core::BspM model(params(8, 2, 4, 16), core::Penalty::kExponential);
  const auto recosted = replay::recost(tape, model);
  EXPECT_EQ(recosted.supersteps, 0u);
  EXPECT_TRUE(recosted.costs.empty());
  EXPECT_TRUE(bits_equal(recosted.total_time, 0.0));
  const auto rerun = replay::recost_run(tape, model);
  EXPECT_EQ(rerun.supersteps, 0u);
  EXPECT_TRUE(bits_equal(rerun.total_time, 0.0));
  EXPECT_TRUE(replay::trace_run(tape, model).records.empty());
  EXPECT_EQ(replay::term_totals(tape, model).supersteps, 0u);
}

// ---- difference-array slot accounting -------------------------------------

TEST(Recost, SlotCountsMatchBruteForcePerFlitTally) {
  // Superstep 0 of MixedProgram: proc i sends 4 flits starting at slot
  // i+1, so slot t (1-based) holds min(t, p, 4, p+4-t) in-flight flits.
  const std::uint32_t p = 16;
  const core::BspM model(params(p, 3, 4, 8));
  replay::TapeRecorder recorder;
  MachineOptions options;
  options.seed = 5;
  options.tape_recorder = &recorder;
  MixedProgram program;
  Machine machine(model, options);
  (void)machine.run(program);

  const auto& tape = recorder.tapes().front();
  ASSERT_GE(tape.size(), 1u);
  std::vector<std::uint64_t> expected(p + 3, 0);  // slots 1 .. p+3
  for (std::uint32_t src = 0; src < p; ++src) {
    for (std::uint32_t k = 0; k < 4; ++k) expected[src + k] += 1;
  }
  EXPECT_EQ(tape.step(0).slot_counts, expected);

  // Superstep 3 issues 2 auto-slot reads (slots 1, 2) and one write
  // (slot 3) per processor.
  ASSERT_GE(tape.size(), 4u);
  EXPECT_EQ(tape.step(3).slot_counts, (std::vector<std::uint64_t>{p, p, p}));
}

// ---- batched recosting ----------------------------------------------------

/// A synthetic tape with every stats field populated from `rng`, empty and
/// overloaded slot vectors included — shapes no single program produces.
replay::StatsTape random_tape(std::uint64_t seed, std::size_t steps) {
  util::Xoshiro256 rng(seed);
  replay::StatsTape tape;
  tape.p = 16;
  tape.seed = seed;
  tape.captured_model = "synthetic";
  for (std::size_t i = 0; i < steps; ++i) {
    engine::SuperstepStats s;
    s.max_work = static_cast<double>(rng.below(1024)) / 8.0;
    s.max_sent = rng.below(256);
    s.max_received = rng.below(256);
    s.total_flits = s.max_sent + rng.below(2048);
    s.max_reads = rng.below(64);
    s.max_writes = rng.below(64);
    s.kappa = rng.below(512);
    s.total_requests = rng.below(128);
    const std::size_t slots = rng.below(6);  // 0 .. 5, empty included
    for (std::size_t t = 0; t < slots; ++t) {
      s.slot_counts.push_back(rng.below(48));  // spans under- and overload
    }
    tape.append(s);
    tape.total_flits += s.total_flits;
  }
  return tape;
}

/// Cycles all five families over varied (g, L, m, penalty) values.
std::vector<replay::CostPointSpec> cost_points(std::size_t count) {
  constexpr replay::ModelFamily kFamilies[5] = {
      replay::ModelFamily::kBspG, replay::ModelFamily::kBspM,
      replay::ModelFamily::kQsmG, replay::ModelFamily::kQsmM,
      replay::ModelFamily::kSelfSchedulingBspM};
  std::vector<replay::CostPointSpec> points;
  points.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    replay::CostPointSpec spec;
    spec.family = kFamilies[k % 5];
    spec.g = 1.0 + static_cast<double>(k % 7);
    spec.L = 1.0 + 3.0 * static_cast<double>(k % 11);
    spec.m = 1 + static_cast<std::uint32_t>(k % 13);
    spec.penalty = (k % 2) == 0 ? core::Penalty::kLinear
                                : core::Penalty::kExponential;
    points.push_back(spec);
  }
  return points;
}

/// A point list as recost_batch takes it: one one-point grid per point,
/// viewing `points` (which must outlive the grids).
std::vector<replay::CostGrid> point_grids(
    const std::vector<replay::CostPointSpec>& points) {
  std::vector<replay::CostGrid> grids;
  grids.reserve(points.size());
  for (const replay::CostPointSpec& point : points) {
    grids.push_back(replay::CostGrid::point(point));
  }
  return grids;
}

/// The virtual model a CostPointSpec describes, for the scalar reference.
std::unique_ptr<core::ModelBase> model_for(const replay::CostPointSpec& spec,
                                           std::uint32_t p) {
  const core::ModelParams prm = params(p, spec.g, spec.m, spec.L);
  switch (spec.family) {
    case replay::ModelFamily::kBspG:
      return std::make_unique<core::BspG>(prm);
    case replay::ModelFamily::kBspM:
      return std::make_unique<core::BspM>(prm, spec.penalty);
    case replay::ModelFamily::kQsmG:
      return std::make_unique<core::QsmG>(prm);
    case replay::ModelFamily::kQsmM:
      return std::make_unique<core::QsmM>(prm, spec.penalty);
    case replay::ModelFamily::kSelfSchedulingBspM:
      return std::make_unique<core::SelfSchedulingBspM>(prm);
  }
  return nullptr;
}

TEST(RecostBatch, BitEqualToScalarRecostOnRandomTapes) {
  for (const std::uint64_t seed : {3u, 17u, 2026u}) {
    const auto tape = random_tape(seed, 1 + seed % 40);
    for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                    std::size_t{17}, std::size_t{1000}}) {
      const auto points = cost_points(count);
      const auto batched = replay::recost_batch(tape, point_grids(points));
      ASSERT_EQ(batched.size(), count);
      for (std::size_t k = 0; k < count; ++k) {
        const auto model = model_for(points[k], tape.p);
        EXPECT_TRUE(bits_equal(batched[k],
                               replay::recost(tape, *model).total_time))
            << "seed " << seed << " point " << k << " (" << model->name()
            << ")";
      }
    }
  }
}

TEST(RecostBatch, BitEqualToScalarRecostOnCapturedTape) {
  // Same contract on a tape a real machine recorded (MixedProgram touches
  // every stats field a model can charge).
  replay::TapeRecorder recorder;
  MachineOptions options;
  options.seed = 23;
  options.tape_recorder = &recorder;
  MixedProgram program;
  const core::BspM capture_model(params(16, 3, 4, 8),
                                 core::Penalty::kExponential);
  Machine machine(capture_model, options);
  (void)machine.run(program);
  const auto& tape = recorder.tapes().front();

  const auto points = cost_points(64);
  const auto batched = replay::recost_batch(tape, point_grids(points));
  ASSERT_EQ(batched.size(), points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    const auto model = model_for(points[k], tape.p);
    EXPECT_TRUE(
        bits_equal(batched[k], replay::recost(tape, *model).total_time))
        << "point " << k << " (" << model->name() << ")";
  }
}

TEST(RecostBatch, EmptyTapeAndEmptyBatch) {
  const replay::StatsTape empty_tape;
  const auto points = cost_points(5);
  const auto zeros = replay::recost_batch(empty_tape, point_grids(points));
  ASSERT_EQ(zeros.size(), 5u);
  for (const double total : zeros) EXPECT_TRUE(bits_equal(total, 0.0));

  const auto tape = random_tape(1, 4);
  EXPECT_TRUE(
      replay::recost_batch(tape, std::vector<replay::CostGrid>{}).empty());
}

TEST(RecostBatch, RejectsInvalidPoints) {
  const auto tape = random_tape(2, 3);
  replay::CostPointSpec bad_g;
  bad_g.family = replay::ModelFamily::kBspG;
  bad_g.g = 0.5;
  EXPECT_THROW(
      (void)replay::recost_batch(tape, point_grids({bad_g})),
      std::invalid_argument);

  replay::CostPointSpec bad_m;
  bad_m.family = replay::ModelFamily::kQsmM;
  bad_m.m = 0;
  EXPECT_THROW(
      (void)replay::recost_batch(tape, point_grids({bad_m})),
      std::invalid_argument);

  replay::CostPointSpec bad_L;
  bad_L.family = replay::ModelFamily::kSelfSchedulingBspM;
  bad_L.L = 0.0;
  EXPECT_THROW(
      (void)replay::recost_batch(tape, point_grids({bad_L})),
      std::invalid_argument);

  // g is unused (and so unchecked) for globally-limited families.
  replay::CostPointSpec unused_g;
  unused_g.family = replay::ModelFamily::kBspM;
  unused_g.g = 0.0;
  EXPECT_NO_THROW(
      (void)replay::recost_batch(tape, point_grids({unused_g})));

  // A grid checks every value of the axes its families read, repeats
  // allowed, and leaves the axes they do not read alone.
  const replay::ModelFamily bsp_m[] = {replay::ModelFamily::kBspM};
  const double L[] = {1.0};
  const double no_g[] = {0.0};
  const std::uint32_t repeated_m[] = {4, 4, 2};
  const std::uint32_t zero_m[] = {4, 0};
  const core::Penalty linear[] = {core::Penalty::kLinear};
  const replay::CostGrid repeats{bsp_m, no_g, L, repeated_m, linear};
  const auto repeated = replay::recost_batch(tape, {&repeats, 1});
  ASSERT_EQ(repeated.size(), 3u);
  EXPECT_TRUE(bits_equal(repeated[0], repeated[1]));
  const replay::CostGrid zero{bsp_m, no_g, L, zero_m, linear};
  EXPECT_THROW((void)replay::recost_batch(tape, {&zero, 1}),
               std::invalid_argument);
}

TEST(RecostBatch, BitEqualOnEveryCompiledKernelPath) {
  // The bit-equality contract holds per dispatch path, not just for
  // whichever one the host picks: pin each compiled+supported kernel in
  // turn and require identical bits across randomized tapes and batch
  // shapes (tails shorter than a vector, ragged tails, multi-group runs).
  const auto paths = replay::available_kernel_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), simd::Path::kScalar);
  for (const std::uint64_t seed : {5u, 99u}) {
    const auto tape = random_tape(seed, 1 + seed % 48);
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{7}, std::size_t{257},
          std::size_t{4096}}) {
      const auto points = cost_points(count);
      const auto grids = point_grids(points);
      std::vector<engine::SimTime> reference;
      {
        const simd::ScopedPath pin(simd::Path::kScalar);
        reference = replay::recost_batch(tape, grids);
      }
      for (const simd::Path path : paths) {
        const simd::ScopedPath pin(path);
        replay::BatchInfo info;
        const auto out = replay::recost_batch(tape, grids, nullptr, &info);
        EXPECT_EQ(info.path, path);
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t k = 0; k < out.size(); ++k) {
          ASSERT_TRUE(bits_equal(out[k], reference[k]))
              << simd::path_name(path) << " seed " << seed << " count "
              << count << " point " << k;
        }
      }
    }
  }
}

TEST(RecostBatch, ThreadPoolResultBitEqualToInline) {
  // Tasks write disjoint output ranges, so the thread count must never
  // change a single bit.  20k one-point grids are 20k pool tasks; the wide
  // grid's blocks are longer than one task, so they split.
  const auto tape = random_tape(7, 25);
  const auto points = cost_points(20000);
  const auto grids = point_grids(points);
  const auto inline_totals = replay::recost_batch(tape, grids);
  util::ThreadPool pool(4);
  replay::BatchInfo info;
  const auto pooled = replay::recost_batch(tape, grids, &pool, &info);
  ASSERT_EQ(pooled.size(), inline_totals.size());
  for (std::size_t k = 0; k < pooled.size(); ++k) {
    ASSERT_TRUE(bits_equal(pooled[k], inline_totals[k])) << "point " << k;
  }
  EXPECT_GE(info.threads, 1u);
  EXPECT_EQ(info.points, 20000u);

  const replay::ModelFamily families[] = {
      replay::ModelFamily::kBspG, replay::ModelFamily::kBspM,
      replay::ModelFamily::kQsmG, replay::ModelFamily::kQsmM,
      replay::ModelFamily::kSelfSchedulingBspM};
  std::vector<double> g, L;
  std::vector<std::uint32_t> m;
  for (int k = 0; k < 9000; ++k) g.push_back(1.0 + 0.25 * k);
  for (int k = 0; k < 3; ++k) L.push_back(1.0 + 7.0 * k);
  for (std::uint32_t k = 1; k <= 3000; ++k) m.push_back(k);
  const core::Penalty penalties[] = {core::Penalty::kLinear,
                                     core::Penalty::kExponential};
  const replay::CostGrid wide{families, g, L, m, penalties};
  const auto wide_inline = replay::recost_batch(tape, {&wide, 1});
  const auto wide_pooled = replay::recost_batch(tape, {&wide, 1}, &pool, &info);
  ASSERT_EQ(wide_pooled.size(), wide.size());
  ASSERT_EQ(wide_inline.size(), wide.size());
  for (std::size_t k = 0; k < wide_pooled.size(); ++k) {
    ASSERT_TRUE(bits_equal(wide_pooled[k], wide_inline[k])) << "point " << k;
  }
  EXPECT_GE(info.threads, 2u);
}

TEST(RecostBatch, EmptyBatchReturnsBeforeTouchingTheTape) {
  // Regression: an empty batch must return immediately — no term-array
  // derivation, no allocations.  Observable contract: an empty result,
  // and `info` still carrying its reset defaults (the call returns before
  // any work is counted).
  const auto tape = random_tape(3, 64);
  replay::BatchInfo info;
  info.points = 1234;
  info.cm_slots = 5678;
  info.threads = 99;
  const auto out = replay::recost_batch(
      tape, std::span<const replay::CostGrid>{}, nullptr, &info);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(info.points, 0u);
  EXPECT_EQ(info.cm_slots, 0u);
  EXPECT_EQ(info.threads, 1u);
  EXPECT_TRUE(
      replay::recost_batch(tape, std::vector<replay::CostGrid>{}).empty());
  // A grid whose read axis is empty holds no points either.
  const replay::ModelFamily bsp_g[] = {replay::ModelFamily::kBspG};
  const double g[] = {2.0};
  const replay::CostGrid no_L{bsp_g, g, {}, {}, {}};
  EXPECT_TRUE(replay::recost_batch(tape, {&no_L, 1}, nullptr, &info).empty());
  EXPECT_EQ(info.points, 0u);
}

TEST(RecostBatch, InfoReportsPathThreadsPointsAndSlots) {
  const auto tape = random_tape(13, 9);
  // bsp-g twice, bsp-m @ (m=32, exp) and qsm-g: four points, one c_m
  // column.
  std::vector<replay::CostPointSpec> points(4);
  points[0].family = replay::ModelFamily::kBspG;
  points[1].family = replay::ModelFamily::kBspG;
  points[1].g = 3.0;
  points[2].family = replay::ModelFamily::kBspM;
  points[2].m = 32;
  points[2].penalty = core::Penalty::kExponential;
  points[3].family = replay::ModelFamily::kQsmG;
  // The c_m pass reads every slot once for the summary, then walks again
  // only the supersteps with a slot above m = 32.
  std::uint64_t slots = 0, walked = 0;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const auto step = tape.slots(i);
    slots += step.size();
    if (std::any_of(step.begin(), step.end(),
                    [](std::uint64_t m_t) { return m_t > 32; })) {
      walked += step.size();
    }
  }
  ASSERT_GT(walked, 0u);
  ASSERT_LT(walked, slots);

  obs::Counter& charged =
      obs::MetricsRegistry::global().counter("replay.points_charged");
  obs::Counter& walked_counter =
      obs::MetricsRegistry::global().counter("replay.cm_slots_walked");
  const std::uint64_t charged_before = charged.value();
  const std::uint64_t walked_before = walked_counter.value();
  const simd::ScopedPath pin(simd::Path::kScalar);
  replay::BatchInfo info;
  (void)replay::recost_batch(tape, point_grids(points), nullptr, &info);
  EXPECT_EQ(info.path, simd::Path::kScalar);
  EXPECT_EQ(info.threads, 1u);
  EXPECT_EQ(info.points, 4u);
  EXPECT_EQ(info.cm_slots, slots + walked);
  EXPECT_EQ(charged.value() - charged_before, 4u);
  EXPECT_EQ(walked_counter.value() - walked_before, slots + walked);

  // No c_m family, no c_m pass.
  points.pop_back();
  points.erase(points.begin() + 2);
  (void)replay::recost_batch(tape, point_grids(points), nullptr, &info);
  EXPECT_EQ(info.points, 2u);
  EXPECT_EQ(info.cm_slots, 0u);
}

TEST(RecostBatch, ForceScalarEnvironmentPinsTheKernel) {
  // PBW_SIMD=scalar is the ops-facing override; it must reach the batch
  // dispatcher and must not change a single output bit.
  const auto tape = random_tape(21, 17);
  const auto points = cost_points(300);
  const auto grids = point_grids(points);
  const auto reference = replay::recost_batch(tape, grids);
  std::optional<std::string> previous;
  if (const char* old = std::getenv("PBW_SIMD")) previous = old;
  ASSERT_EQ(::setenv("PBW_SIMD", "scalar", 1), 0);
  replay::BatchInfo info;
  const auto forced = replay::recost_batch(tape, grids, nullptr, &info);
  if (previous) {
    ::setenv("PBW_SIMD", previous->c_str(), 1);
  } else {
    ::unsetenv("PBW_SIMD");
  }
  EXPECT_EQ(info.path, simd::Path::kScalar);
  ASSERT_EQ(forced.size(), reference.size());
  for (std::size_t k = 0; k < forced.size(); ++k) {
    ASSERT_TRUE(bits_equal(forced[k], reference[k])) << "point " << k;
  }
}

// ---- recorder scoping -----------------------------------------------------

TEST(TapeRecorder, ScopedInstallAndNesting) {
  EXPECT_EQ(replay::current_tape_recorder(), nullptr);
  replay::TapeRecorder outer;
  {
    replay::ScopedTapeRecorder outer_scope(&outer);
    EXPECT_EQ(replay::current_tape_recorder(), &outer);
    replay::TapeRecorder inner;
    {
      replay::ScopedTapeRecorder inner_scope(&inner);
      EXPECT_EQ(replay::current_tape_recorder(), &inner);
      replay::ScopedTapeRecorder suppressed(nullptr);
      EXPECT_EQ(replay::current_tape_recorder(), nullptr);
    }
    EXPECT_EQ(replay::current_tape_recorder(), &outer);
  }
  EXPECT_EQ(replay::current_tape_recorder(), nullptr);
}

TEST(TapeRecorder, MachineCapturesThroughThreadLocalScope) {
  const core::BspG model(params(8, 2, 4, 1));
  replay::TapeRecorder recorder;
  {
    replay::ScopedTapeRecorder scope(&recorder);
    MixedProgram program;
    Machine machine(model);
    (void)machine.run(program);
    (void)machine.run(program);  // one tape per run
  }
  EXPECT_EQ(recorder.tapes().size(), 2u);
  const auto taken = recorder.take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(recorder.tapes().empty());

  // Outside every scope a run captures nothing.
  MixedProgram program;
  Machine machine(model);
  (void)machine.run(program);
  EXPECT_EQ(machine.tape(), nullptr);
  EXPECT_TRUE(recorder.tapes().empty());
}

// ---- LRU cache ------------------------------------------------------------

std::shared_ptr<replay::TapeGroup> group_of_bytes(std::size_t target) {
  auto group = std::make_shared<replay::TapeGroup>();
  group->trials.emplace_back();
  auto& tape = group->trials.back().tapes.emplace_back();
  while (group->memory_bytes() < target) {
    tape.append(engine::SuperstepStats{});
  }
  return group;
}

TEST(TapeCache, HitMissPromoteEvict) {
  const std::size_t unit = group_of_bytes(0)->memory_bytes();
  replay::TapeCache cache(3 * unit + 16);
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.put("a", group_of_bytes(0));
  cache.put("b", group_of_bytes(0));
  cache.put("c", group_of_bytes(0));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_NE(cache.get("a"), nullptr);  // promotes a over b
  EXPECT_EQ(cache.hits(), 1u);

  cache.put("d", group_of_bytes(0));  // evicts b (least recently used)
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_NE(cache.get("d"), nullptr);
}

TEST(TapeCache, ReplaceUpdatesBytes) {
  replay::TapeCache cache(1 << 20);
  cache.put("k", group_of_bytes(0));
  const auto small = cache.bytes();
  cache.put("k", group_of_bytes(4096));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), small);
}

TEST(TapeCache, OversizedGroupDroppedButCallerKeepsIt) {
  replay::TapeCache cache(64);  // smaller than any group
  auto group = group_of_bytes(4096);
  cache.put("big", group);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.get("big"), nullptr);
  EXPECT_GE(group->memory_bytes(), 4096u);  // caller's reference unaffected
}

TEST(TapeCache, ZeroCapDisables) {
  replay::TapeCache cache(0);
  cache.put("k", group_of_bytes(0));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.get("k"), nullptr);
  EXPECT_EQ(cache.rejected(), 1u);
}

TEST(TapeCache, OversizedReplacementKeepsExistingEntry) {
  // Regression: put() used to erase the existing entry for the key before
  // discovering the replacement was over cap, leaving NEITHER group cached
  // — every later get() re-simulated.  The oversized replacement must be
  // rejected without touching the entry already serving hits.
  const std::size_t unit = group_of_bytes(0)->memory_bytes();
  replay::TapeCache cache(2 * unit);
  auto original = group_of_bytes(0);
  cache.put("k", original);
  ASSERT_EQ(cache.entries(), 1u);

  cache.put("k", group_of_bytes(16 * unit));  // over cap: reject, keep old
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.rejected(), 1u);
  EXPECT_EQ(cache.get("k"), original);
  EXPECT_EQ(cache.bytes(), original->memory_bytes());
}

TEST(TapeCache, EvictionDrainsToTheLastEntry) {
  // Regression: evict_over_cap stopped at lru_.size() > 1, so the cache
  // could sit permanently over cap with one resident entry.  A fitting
  // insertion must be able to evict EVERY older entry to get under cap.
  const auto big = group_of_bytes(4096);
  const std::size_t big_bytes = big->memory_bytes();
  replay::TapeCache cache(big_bytes + big_bytes / 2);
  cache.put("a", big);
  cache.put("b", group_of_bytes(4096));  // a + b over cap: a must go
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("b"), nullptr);
  EXPECT_LE(cache.bytes(), big_bytes + big_bytes / 2);
}

// ---- axis partition -------------------------------------------------------

campaign::ParamSet point_of(const campaign::Scenario& scenario,
                            std::initializer_list<
                                std::pair<const char*, const char*>>
                                overrides) {
  campaign::ParamSet params;
  for (const auto& p : scenario.params) params.set(p.name, p.default_value);
  for (const auto& [k, v] : overrides) params.set(k, v);
  return params;
}

TEST(AxisSplit, GridScenarioIsAllCostOnlyButStructure) {
  const auto* grid = campaign::Registry::instance().find("grid.pattern");
  ASSERT_NE(grid, nullptr);
  const auto split = campaign::split_axes(*grid, point_of(*grid, {}));
  EXPECT_EQ(split.structural,
            (std::vector<std::string>{"pattern", "p", "h", "rounds"}));
  EXPECT_EQ(split.cost_only,
            (std::vector<std::string>{"model", "g", "L", "m", "penalty"}));
}

TEST(AxisSplit, Table1OneToAllDependsOnFamily) {
  const auto* s = campaign::Registry::instance().find("table1.one_to_all");
  ASSERT_NE(s, nullptr);
  const auto bsp = campaign::split_axes(*s, point_of(*s, {{"family", "bsp"}}));
  EXPECT_EQ(bsp.cost_only, (std::vector<std::string>{"g", "L"}));
  const auto qsm = campaign::split_axes(*s, point_of(*s, {{"family", "qsm"}}));
  EXPECT_EQ(qsm.cost_only, (std::vector<std::string>{"L"}));
}

TEST(AxisSplit, PenaltyMDependsOnSchedule) {
  const auto* s = campaign::Registry::instance().find("sched.penalty");
  ASSERT_NE(s, nullptr);
  const auto naive =
      campaign::split_axes(*s, point_of(*s, {{"schedule", "naive"}}));
  EXPECT_EQ(naive.cost_only, (std::vector<std::string>{"m", "penalty"}));
  const auto offline =
      campaign::split_axes(*s, point_of(*s, {{"schedule", "offline"}}));
  EXPECT_EQ(offline.cost_only, (std::vector<std::string>{"penalty"}));
}

TEST(AxisSplit, NonReplayableScenarioIsAllStructural) {
  const auto* s = campaign::Registry::instance().find("broadcast.bounds");
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->replayable());
  const auto split = campaign::split_axes(*s, point_of(*s, {}));
  EXPECT_TRUE(split.cost_only.empty());
  EXPECT_EQ(split.structural.size(), s->params.size());
}

TEST(AxisSplit, KeysDropOnlyCostOnlyAxes) {
  const auto* s = campaign::Registry::instance().find("grid.pattern");
  ASSERT_NE(s, nullptr);
  campaign::Job job;
  job.scenario = s;
  job.params = point_of(*s, {{"g", "2"}, {"m", "64"}});
  job.seed = 9;
  job.trials = 3;
  EXPECT_EQ(job.rng_key(),
            "grid.pattern|h=8,p=256,pattern=random,rounds=4|seed=9");
  EXPECT_EQ(job.structural_key(), job.rng_key() + "|trials=3");

  const auto* plain = campaign::Registry::instance().find("broadcast.bounds");
  campaign::Job other;
  other.scenario = plain;
  other.params = point_of(*plain, {});
  other.seed = 2;
  EXPECT_EQ(other.rng_key(), other.base_key());
}

// ---- executor-level equivalence -------------------------------------------

std::string temp_out(const std::string& stem) {
  const auto path =
      (std::filesystem::temp_directory_path() / (stem + ".jsonl")).string();
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  return path;
}

const char* kEquivalenceSpec = R"(
[sweep]
scenario = grid.pattern
trials   = 2
seeds    = 1
pattern  = ring
p        = 32
h        = 6
rounds   = 3
model    = bsp-g, bsp-m, qsm-m, ss-bsp-m
g        = 2, 8
L        = 4, 32
m        = 4, 64
penalty  = linear, exp
[sweep]
scenario = table1.one_to_all
trials   = 2
seeds    = 1, 2
family   = bsp, qsm
p        = 64
g        = 4, 8
L        = 8, 64
[sweep]
scenario = table1.summation
trials   = 1
seeds    = 1
family   = bsp, qsm
p        = 64
L        = 8, 64
[sweep]
scenario = sched.penalty
trials   = 2
seeds    = 1
p        = 32
n        = 512
schedule = naive, offline
m        = 4, 16
penalty  = linear, exp
)";

/// Runs the spec with the given options and returns key -> aggregated
/// metrics JSON text.  With `per_point`, every job runs against a copy of
/// its scenario without the replay_batch hook, so recosted members take
/// the per-point replay path.
std::map<std::string, std::string> run_spec(
    const std::string& stem, const campaign::ExecutorOptions& options,
    campaign::RunStats* stats_out = nullptr, bool per_point = false) {
  const auto specs = campaign::parse_spec(kEquivalenceSpec);
  auto jobs = campaign::expand_all(specs, campaign::Registry::instance());
  std::map<std::string, campaign::Scenario> unbatched;
  if (per_point) {
    for (auto& job : jobs) {
      auto& copy =
          unbatched.try_emplace(job.scenario->name, *job.scenario).first->second;
      copy.replay_batch = nullptr;
      job.scenario = &copy;
    }
  }
  const auto path = temp_out(stem);
  std::map<std::string, std::string> rows;
  {
    campaign::Recorder recorder(path, "test");
    const auto stats = campaign::run_campaign(jobs, recorder, options);
    if (stats_out != nullptr) *stats_out = stats;
  }
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto rec = util::Json::parse(line);
    rows[rec.get("key")->as_string()] = rec.get("metrics")->dump();
  }
  return rows;
}

TEST(ExecutorReplay, RecostedRowsBitEqualForcedSimulation) {
  campaign::ExecutorOptions with_replay;
  with_replay.threads = 4;
  campaign::RunStats replay_stats;
  const auto replayed =
      run_spec("pbw_replay_on", with_replay, &replay_stats);
  EXPECT_GT(replay_stats.recosted, 0u);
  // grid.pattern has a replay_batch hook and a multi-member cost-only
  // group, so at least its members go through the batched path.
  EXPECT_GT(replay_stats.batched, 0u);
  EXPECT_LT(replay_stats.simulated, replay_stats.executed);
  EXPECT_EQ(replay_stats.simulated + replay_stats.recosted,
            replay_stats.executed);

  campaign::ExecutorOptions no_replay;
  no_replay.threads = 4;
  no_replay.replay = false;
  campaign::RunStats sim_stats;
  const auto simulated = run_spec("pbw_replay_off", no_replay, &sim_stats);
  EXPECT_EQ(sim_stats.recosted, 0u);
  EXPECT_EQ(sim_stats.simulated, sim_stats.executed);

  ASSERT_EQ(replayed.size(), simulated.size());
  for (const auto& [key, metrics] : simulated) {
    const auto it = replayed.find(key);
    ASSERT_NE(it, replayed.end()) << key;
    EXPECT_EQ(it->second, metrics) << key;
  }
}

TEST(ExecutorReplay, ReplayCheckPassesOnEveryRecostedJob) {
  campaign::ExecutorOptions options;
  options.threads = 4;
  options.replay_check = true;
  campaign::RunStats stats;
  (void)run_spec("pbw_replay_check", options, &stats);
  EXPECT_GT(stats.recosted, 0u);
  EXPECT_GT(stats.batched, 0u);  // the check covers batch-recosted jobs too
  EXPECT_EQ(stats.checked, stats.recosted);
}

TEST(ExecutorReplay, BatchedRowsBitEqualPerPointReplay) {
  // The batched path must record exactly the rows the per-point replay
  // path records.  The same spec run with and without the replay_batch
  // hooks pins the two paths against each other.
  campaign::ExecutorOptions batched;
  batched.threads = 2;
  campaign::RunStats batched_stats;
  const auto batch_rows =
      run_spec("pbw_replay_batched", batched, &batched_stats);
  EXPECT_GT(batched_stats.batched, 0u);

  campaign::ExecutorOptions per_point;
  per_point.threads = 2;
  campaign::RunStats per_point_stats;
  const auto point_rows = run_spec("pbw_replay_per_point", per_point,
                                   &per_point_stats, /*per_point=*/true);
  EXPECT_EQ(per_point_stats.batched, 0u);
  EXPECT_GT(per_point_stats.recosted, 0u);

  ASSERT_EQ(batch_rows.size(), point_rows.size());
  for (const auto& [key, metrics] : point_rows) {
    const auto it = batch_rows.find(key);
    ASSERT_NE(it, batch_rows.end()) << key;
    EXPECT_EQ(it->second, metrics) << key;
  }
}

TEST(ExecutorReplay, CheckCatchesBrokenReplay) {
  // A scenario whose replay deliberately disagrees with run: the check
  // must fail the campaign.
  campaign::Registry registry;
  campaign::Scenario s;
  s.name = "toy.broken";
  s.params = {{"x", "1", "", /*cost_only=*/true}};
  s.run = [](const campaign::ParamSet& params, util::Xoshiro256&) {
    return campaign::MetricRow{{"v", params.get_double("x")}};
  };
  s.replay = [](const campaign::ParamSet&, const replay::CapturedTrial&) {
    return campaign::MetricRow{{"v", -1.0}};
  };
  registry.add(std::move(s));

  campaign::SweepSpec spec;
  spec.scenario = "toy.broken";
  spec.axes = {{"x", {"1", "2"}}};
  const auto jobs = campaign::expand(spec, registry);

  campaign::ExecutorOptions options;
  options.replay_check = true;
  campaign::Recorder recorder(temp_out("pbw_replay_broken"), "test");
  EXPECT_THROW(campaign::run_campaign(jobs, recorder, options),
               std::runtime_error);
}

}  // namespace
