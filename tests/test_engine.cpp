// Unit tests for the SPMD superstep engine: message delivery, slot
// accounting, shared-memory semantics, contention, validation, halting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/model/models.hpp"
#include "engine/error.hpp"
#include "engine/machine.hpp"
#include "replay/recorder.hpp"

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

/// Ring program: proc i sends its id to (i+1) mod p; checks receipt.
class RingProgram : public SuperstepProgram {
 public:
  explicit RingProgram(std::uint32_t p) : got_(p, -1) {}
  bool step(ProcContext& ctx) override {
    if (ctx.superstep() == 0) {
      ctx.send((ctx.id() + 1) % ctx.p(), ctx.id());
      return true;
    }
    for (const auto& m : ctx.inbox()) got_[ctx.id()] = m.payload;
    return false;
  }
  std::vector<engine::Word> got_;
};

TEST(Engine, RingDelivery) {
  const core::BspG model(params(8, 2, 4, 1));
  Machine machine(model);
  RingProgram prog(8);
  const auto result = machine.run(prog);
  EXPECT_EQ(result.supersteps, 2u);
  EXPECT_EQ(result.total_messages, 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(prog.got_[i], static_cast<engine::Word>((i + 7) % 8));
  }
}

TEST(Engine, BspGCostIsGTimesH) {
  // 8 procs each send 3 messages; g=2, L=1 -> superstep cost = g*h = 6,
  // plus the drain superstep at cost L=1.
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      for (int k = 0; k < 3; ++k) ctx.send((ctx.id() + 1) % ctx.p(), k);
      return true;
    }
  } prog;
  const core::BspG model(params(8, 2, 4, 1));
  Machine machine(model);
  const auto result = machine.run(prog);
  EXPECT_DOUBLE_EQ(result.total_time, 6.0 + 1.0);
}

TEST(Engine, AutoSlotsAreBackToBack) {
  // One proc sends 5 unscheduled messages: slots 1..5, one per slot.
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0 || ctx.id() != 0) return false;
      for (int k = 0; k < 5; ++k) ctx.send(1, k);
      return true;
    }
  } prog;
  const core::BspM model(params(4, 1, 2, 1));
  replay::TapeRecorder recorder;
  MachineOptions opts;
  opts.tape_recorder = &recorder;
  Machine machine(model, opts);
  machine.run(prog);
  ASSERT_FALSE(recorder.tapes().front().empty());
  const auto counts = recorder.tapes().front().slots(0);
  ASSERT_EQ(counts.size(), 5u);
  for (auto c : counts) EXPECT_EQ(c, 1u);
}

TEST(Engine, SlotCollisionThrows) {
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      if (ctx.id() == 0) {
        ctx.send(1, 0, /*slot=*/3);
        ctx.send(1, 1, /*slot=*/3);  // same slot: model contract violation
      }
      return true;
    }
  } prog;
  const core::BspM model(params(4, 1, 2, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, LongMessageOccupiesConsecutiveSlots) {
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      if (ctx.id() == 0) ctx.send(1, 7, /*slot=*/2, /*length=*/4);
      return true;
    }
  } prog;
  const core::BspM model(params(4, 1, 2, 1));
  replay::TapeRecorder recorder;
  MachineOptions opts;
  opts.tape_recorder = &recorder;
  Machine machine(model, opts);
  const auto result = machine.run(prog);
  const auto counts = recorder.tapes().front().slots(0);
  ASSERT_EQ(counts.size(), 5u);  // slots 1..5; occupied 2..5
  EXPECT_EQ(counts[0], 0u);
  for (int t = 1; t < 5; ++t) EXPECT_EQ(counts[t], 1u);
  EXPECT_EQ(result.total_flits, 4u);
  EXPECT_EQ(result.total_messages, 1u);
}

TEST(Engine, FlitOverlapWithinProcThrows) {
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      if (ctx.id() == 0) {
        ctx.send(1, 0, /*slot=*/1, /*length=*/3);
        ctx.send(2, 1, /*slot=*/2, /*length=*/1);  // inside previous message
      }
      return true;
    }
  } prog;
  const core::BspM model(params(4, 1, 2, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, SharedMemoryReadAfterWrite) {
  // Superstep 0: proc 0 writes 42 to cell 5.
  // Superstep 1: all procs read cell 5.  Superstep 2: check value.
  class P : public SuperstepProgram {
   public:
    explicit P(std::uint32_t p) : got_(p, -1) {}
    void setup(Machine& m) override { m.resize_shared(16); }
    bool step(ProcContext& ctx) override {
      switch (ctx.superstep()) {
        case 0:
          if (ctx.id() == 0) ctx.write(5, 42);
          return true;
        case 1:
          ctx.read(5);
          return true;
        default:
          got_[ctx.id()] = ctx.reads()[0];
          return false;
      }
    }
    std::vector<engine::Word> got_;
  } prog(4);
  const core::QsmM model(params(4, 1, 2, 1));
  Machine machine(model);
  machine.run(prog);
  for (auto v : prog.got_) EXPECT_EQ(v, 42);
}

TEST(Engine, ReadsSeePreSuperstepState) {
  // A read and a write to *different* cells in the same superstep: the
  // read must observe the value from before the superstep.
  class P : public SuperstepProgram {
   public:
    void setup(Machine& m) override {
      m.resize_shared(4);
      m.poke_shared(0, 7);
    }
    bool step(ProcContext& ctx) override {
      switch (ctx.superstep()) {
        case 0:
          if (ctx.id() == 0) {
            ctx.read(0);
            ctx.write(1, 9);
          }
          return true;
        case 1:
          if (ctx.id() == 0) seen_ = ctx.reads()[0];
          return false;
        default:
          return false;
      }
    }
    engine::Word seen_ = -1;
  } prog;
  const core::QsmM model(params(2, 1, 1, 1));
  Machine machine(model);
  machine.run(prog);
  EXPECT_EQ(prog.seen_, 7);
}

TEST(Engine, QsmRaceDetected) {
  class P : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(4); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      if (ctx.id() == 0) ctx.read(2);
      if (ctx.id() == 1) ctx.write(2, 1);
      return true;
    }
  } prog;
  const core::QsmM model(params(2, 1, 1, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, ConcurrentWriteArbitraryRuleIsDeterministic) {
  // All procs write their id to cell 0; the highest-ranked writer wins.
  class P : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(1); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.write(0, ctx.id());
      return true;
    }
  } prog;
  const core::QsmM model(params(8, 1, 4, 1));
  Machine machine(model);
  machine.run(prog);
  EXPECT_EQ(machine.shared_at(0), 7);
}

TEST(Engine, KappaCountsMaxContention) {
  // 6 procs read cell 0, 2 procs read cell 1 -> kappa = 6.
  class P : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(2); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.read(ctx.id() < 6 ? 0 : 1);
      return true;
    }
  } prog;
  const core::QsmM model(params(8, 1, 8, 1));
  replay::TapeRecorder recorder;
  MachineOptions opts;
  opts.tape_recorder = &recorder;
  Machine machine(model, opts);
  machine.run(prog);
  EXPECT_EQ(recorder.tapes().front().kappa[0], 6u);
}

TEST(Engine, OutOfRangeAddressThrows) {
  class P : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(2); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.read(99);
      return true;
    }
  } prog;
  const core::QsmM model(params(2, 1, 1, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, DestinationOutOfRangeThrows) {
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      ctx.send(ctx.p(), 0);  // invalid
      return false;
    }
  } prog;
  const core::BspG model(params(2, 1, 1, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, SuperstepLimitEnforced) {
  class Forever : public SuperstepProgram {
   public:
    bool step(ProcContext&) override { return true; }
  } prog;
  const core::BspG model(params(2, 1, 1, 1));
  MachineOptions opts;
  opts.max_supersteps = 10;
  Machine machine(model, opts);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, WorkChargeDominatesWhenLarge) {
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.charge(123.0);
      return true;
    }
  } prog;
  const core::BspG model(params(4, 2, 2, 5));
  Machine machine(model);
  const auto result = machine.run(prog);
  // Superstep 0 costs max(w=123, L=5) = 123; drain superstep costs L=5.
  EXPECT_DOUBLE_EQ(result.total_time, 128.0);
}

TEST(Engine, DeterministicAcrossThreadCounts) {
  // The same randomized program must produce identical results with 1 and
  // 4 host threads (per-(proc, superstep) RNG streams).
  class P : public SuperstepProgram {
   public:
    explicit P(std::uint32_t p) : sums_(p, 0) {}
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() >= 3) return false;
      const auto dst = static_cast<engine::ProcId>(ctx.rng().below(ctx.p()));
      ctx.send(dst, static_cast<engine::Word>(ctx.rng().below(1000)));
      for (const auto& m : ctx.inbox()) sums_[ctx.id()] += m.payload;
      return true;
    }
    std::vector<engine::Word> sums_;
  };

  const core::BspM model(params(16, 1, 4, 1));
  MachineOptions seq;
  seq.threads = 1;
  MachineOptions par;
  par.threads = 4;
  P prog1(16), prog2(16);
  Machine m1(model, seq), m2(model, par);
  const auto r1 = m1.run(prog1);
  const auto r2 = m2.run(prog2);
  EXPECT_DOUBLE_EQ(r1.total_time, r2.total_time);
  EXPECT_EQ(prog1.sums_, prog2.sums_);
}

TEST(Engine, InboxOrderedBySourceThenSlot) {
  class P : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() == 0) {
        if (ctx.id() == 1) {
          ctx.send(0, 20, /*slot=*/5);
          ctx.send(0, 10, /*slot=*/1);
        }
        if (ctx.id() == 2) ctx.send(0, 30, /*slot=*/2);
        return true;
      }
      if (ctx.id() == 0) {
        for (const auto& m : ctx.inbox()) order_.push_back(m.payload);
      }
      return false;
    }
    std::vector<engine::Word> order_;
  } prog;
  const core::BspM model(params(4, 1, 4, 1));
  Machine machine(model);
  machine.run(prog);
  ASSERT_EQ(prog.order_.size(), 3u);
  EXPECT_EQ(prog.order_[0], 10);  // src 1, slot 1
  EXPECT_EQ(prog.order_[1], 20);  // src 1, slot 5
  EXPECT_EQ(prog.order_[2], 30);  // src 2
}

}  // namespace
