// Programs that name their participants step only those processors.
//
// List ranking, both reductions and sample sort name a prefix narrower
// than p for most of their supersteps.  Their runs are pinned here to the
// outputs of the engine that stepped every processor in every superstep:
// the tape fingerprint, the bits of the total time, the superstep count
// and the correctness verdict, on both models of each Table 1 pair, at
// 1 and 3 host threads.  The processor-step counts are pinned exactly.
// Under validate, a message or a read that only a skipped processor could
// receive throws.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/list_ranking.hpp"
#include "algos/reduce.hpp"
#include "algos/sorting.hpp"
#include "core/model/models.hpp"
#include "engine/error.hpp"
#include "engine/machine.hpp"
#include "replay/recorder.hpp"
#include "util/rng.hpp"

namespace {

using namespace pbw;

core::ModelParams params(std::uint32_t p) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = 4;
  prm.m = p / 16;
  prm.L = 4;
  return prm;
}

std::vector<engine::Word> words(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<engine::Word> out(n);
  for (auto& w : out) w = static_cast<engine::Word>(rng.below(1u << 20));
  return out;
}

/// One pinned run: an opted-in program on one model at one p.
struct Pin {
  const char* name;
  std::uint32_t p;
  std::uint64_t fingerprint;
  std::uint64_t time_bits;
  std::uint64_t supersteps;
  bool correct;
  std::uint64_t processor_steps;
  std::uint64_t processor_steps_skipped;
};

using Runner = std::function<algos::AlgoResult(engine::MachineOptions)>;

/// The program and model a pin names, at the pin's p.
Runner runner(const std::string& name, std::uint32_t p) {
  const auto prm = params(p);
  const std::uint32_t m = prm.m;
  const auto family = name.substr(name.find('/') + 1);
  auto model = [prm, family]() -> std::unique_ptr<engine::CostModel> {
    if (family == "qsm-g") return std::make_unique<core::QsmG>(prm);
    if (family == "qsm-m") return std::make_unique<core::QsmM>(prm);
    if (family == "bsp-g") return std::make_unique<core::BspG>(prm);
    return std::make_unique<core::BspM>(prm);
  };
  if (name.starts_with("list_rank_qsm")) {
    return [=](engine::MachineOptions o) {
      return algos::list_rank_qsm(*model(), algos::random_list(4 * p, 7), m, m, o);
    };
  }
  if (name.starts_with("reduce_bsp")) {
    return [=](engine::MachineOptions o) {
      return algos::reduce_bsp(*model(), words(p, 5), m, 4, algos::ReduceOp::kSum, o);
    };
  }
  if (name.starts_with("reduce_qsm")) {
    return [=](engine::MachineOptions o) {
      return algos::reduce_qsm(*model(), words(p, 5), m, 2, m, algos::ReduceOp::kXor, o);
    };
  }
  return [=](engine::MachineOptions o) {
    return algos::sample_sort_bsp(*model(), words(4 * p, 3), m, 1, o);
  };
}

// Fingerprint, time bits, supersteps S and verdict are the values the
// engine that stepped all p processors recorded.  Steps, with c = m = p/16
// collectors and s sorters: list ranking c·S; reduce_bsp p + c·(S - 1);
// reduce_qsm c·S; sample sort 2p + s·(S - 2) (s = 32 at p = 64, 128 at
// p = 256, 512 at p = 1024).  Skipped = p·S - steps.
constexpr Pin kPins[] = {
    {"list_rank_qsm/qsm-g", 64, 0xc1b00b0630fe4406ull, 0x40c9fe0000000000ull, 310, true, 1240, 18600},
    {"list_rank_qsm/qsm-m", 64, 0xc1b00b0630fe4406ull, 0x40a8a00000000000ull, 310, true, 1240, 18600},
    {"reduce_bsp/bsp-g", 64, 0x55c6585cf718d2a7ull, 0x4055000000000000ull, 3, true, 72, 120},
    {"reduce_bsp/bsp-m", 64, 0x55c6585cf718d2a7ull, 0x4042000000000000ull, 3, true, 72, 120},
    {"reduce_qsm/qsm-g", 64, 0xe006c48bcef95d8dull, 0x4059000000000000ull, 7, true, 28, 420},
    {"reduce_qsm/qsm-m", 64, 0xe006c48bcef95d8dull, 0x4042000000000000ull, 7, true, 28, 420},
    {"sample_sort_bsp/bsp-g", 64, 0x31632759be399eccull, 0x4080a5af5afbb2dcull, 14, true, 512, 384},
    {"sample_sort_bsp/bsp-m", 64, 0x31632759be399eccull, 0x408995af5afbb2dcull, 14, true, 512, 384},
    {"list_rank_qsm/qsm-g", 256, 0x28ef92bc912912b5ull, 0x40cfd40000000000ull, 370, true, 5920, 88800},
    {"list_rank_qsm/qsm-m", 256, 0x28ef92bc912912b5ull, 0x40ae260000000000ull, 370, true, 5920, 88800},
    {"reduce_bsp/bsp-g", 256, 0xeca706aa12493970ull, 0x4058000000000000ull, 4, true, 304, 720},
    {"reduce_bsp/bsp-m", 256, 0xeca706aa12493970ull, 0x4044000000000000ull, 4, true, 304, 720},
    {"reduce_qsm/qsm-g", 256, 0xa07cf92a41b59b6aull, 0x405d000000000000ull, 11, true, 176, 2640},
    {"reduce_qsm/qsm-m", 256, 0xa07cf92a41b59b6aull, 0x4044000000000000ull, 11, true, 176, 2640},
    {"sample_sort_bsp/bsp-g", 256, 0x3a7d0466b9f551afull, 0x409818781d813b51ull, 18, true, 2560, 2048},
    {"sample_sort_bsp/bsp-m", 256, 0x3a7d0466b9f551afull, 0x40a4563c0ec09da8ull, 18, true, 2560, 2048},
    // The benchmark's Table 1 sorting shape: 512 sorters under m = 64.
    {"sample_sort_bsp/bsp-g", 1024, 0x0a15a1cace5b6074ull, 0x40b3e215773133f4ull, 22, true, 12288, 10240},
    {"sample_sort_bsp/bsp-m", 1024, 0x0a15a1cace5b6074ull, 0x40c2288abb9899faull, 22, true, 12288, 10240},
};

TEST(Participants, OptedInProgramsKeepParentTapes) {
  for (const Pin& pin : kPins) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(pin.name) + " p=" + std::to_string(pin.p) +
                   " threads=" + std::to_string(threads));
      replay::TapeRecorder recorder;
      engine::MachineOptions options;
      options.seed = 11;
      options.threads = threads;
      options.tape_recorder = &recorder;
      const auto result = runner(pin.name, pin.p)(options);
      ASSERT_EQ(recorder.tapes().size(), 1u);
      const auto& tape = recorder.tapes().front();
      EXPECT_EQ(tape.fingerprint(), pin.fingerprint);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.time), pin.time_bits);
      EXPECT_EQ(result.supersteps, pin.supersteps);
      EXPECT_EQ(result.correct, pin.correct);
      EXPECT_EQ(tape.counters.processor_steps, pin.processor_steps);
      EXPECT_EQ(tape.counters.processor_steps_skipped, pin.processor_steps_skipped);
    }
  }
}

/// Processor 3 of 4 acts in superstep 0, which steps all four; superstep
/// 1 steps only processors 0 and 1.  It sends to `dst`, or reads.
class StrayProgram final : public engine::SuperstepProgram {
 public:
  static constexpr engine::ProcId kRead = 99;
  explicit StrayProgram(engine::ProcId dst) : dst_(dst) {}
  std::uint32_t participants(std::uint64_t superstep) const override {
    return superstep == 0 ? 4 : 2;
  }
  void setup(engine::Machine& machine) override { machine.resize_shared(4); }
  bool step(engine::ProcContext& ctx) override {
    if (ctx.superstep() == 0 && ctx.id() == 3) {
      if (dst_ == kRead) {
        ctx.read(0);
      } else {
        ctx.send(dst_, 7);
      }
    }
    return ctx.superstep() == 0;
  }

 private:
  engine::ProcId dst_;
};

void run_stray(engine::ProcId dst, bool validate) {
  auto prm = params(64);
  prm.p = 4;
  const core::BspM model(prm);
  engine::MachineOptions options;
  options.validate = validate;
  engine::Machine machine(model, options);
  StrayProgram program(dst);
  (void)machine.run(program);
}

TEST(Participants, SendToProcessorThatDoesNotStepNextThrows) {
  EXPECT_NO_THROW(run_stray(1, true));
  EXPECT_THROW(run_stray(2, true), engine::SimulationError);
  EXPECT_NO_THROW(run_stray(2, false));  // unchecked, the message is lost
}

TEST(Participants, ReadWhoseIssuerDoesNotStepNextThrows) {
  EXPECT_THROW(run_stray(StrayProgram::kRead, true), engine::SimulationError);
  EXPECT_NO_THROW(run_stray(StrayProgram::kRead, false));
}

}  // namespace
