// Unit tests for the SPMD superstep engine: message delivery, slot
// accounting, shared-memory semantics, contention, validation, halting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "algos/common.hpp"
#include "core/model/models.hpp"
#include "engine/error.hpp"
#include "engine/machine.hpp"
#include "replay/recorder.hpp"
#include "util/rng.hpp"

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
  // Only processor 1's outbox is out of slot order; processor 2's one
  // message is not sorted, and neither slot check copies its intervals.
  EXPECT_EQ(machine.counters().outbox_sorts, 1u);
  EXPECT_EQ(machine.counters().outbox_sorts_skipped, 1u);
  EXPECT_EQ(machine.counters().slot_check_sorts, 0u);
}

// ---- the slot check ---------------------------------------------------------

/// One operation a processor issues: a send of `length` flits, a read or a
/// write.  Slot 0 takes the processor's next free slot.
struct Op {
  enum Kind { kSend, kRead, kWrite } kind = kSend;
  engine::Slot slot = 0;
  std::uint32_t length = 1;
};

/// Issues each processor's operations in superstep 0: sends to the next
/// processor, reads of cell id and writes of cell p + id (never a race).
class OpsProgram final : public SuperstepProgram {
 public:
  explicit OpsProgram(std::vector<std::vector<Op>> ops) : ops_(std::move(ops)) {}
  void setup(Machine& machine) override { machine.resize_shared(2 * ops_.size()); }
  bool step(ProcContext& ctx) override {
    if (ctx.superstep() > 0) return false;
    for (const Op& op : ops_[ctx.id()]) {
      switch (op.kind) {
        case Op::kSend:
          ctx.send((ctx.id() + 1) % ctx.p(), 0, op.slot, op.length);
          break;
        case Op::kRead:
          ctx.read(ctx.id(), op.slot);
          break;
        case Op::kWrite:
          ctx.write(ctx.p() + ctx.id(), 1, op.slot);
          break;
      }
    }
    return true;
  }

 private:
  std::vector<std::vector<Op>> ops_;
};

/// The error text of a run, or "" when it completes.
std::string run_error(Machine& machine, SuperstepProgram& program) {
  try {
    machine.run(program);
  } catch (const engine::SimulationError& e) {
    return e.what();
  }
  return "";
}

/// The operations with every slot 0 replaced by the slot the engine picks:
/// the one past every slot taken so far.
std::vector<Op> resolved(std::vector<Op> ops) {
  engine::Slot next = 1;
  for (Op& op : ops) {
    if (op.slot == 0) op.slot = next;
    next = std::max(next, op.slot + op.length);
  }
  return ops;
}

/// The rule the one-pass check replaced, kept here as its reference: copy
/// every occupied interval, sort the copy, and name the first interval
/// that begins before its predecessor ends.
std::string reference_error(engine::ProcId id, const std::vector<Op>& ops) {
  std::vector<std::pair<engine::Slot, engine::Slot>> intervals;
  for (const Op& op : resolved(ops)) {
    intervals.emplace_back(op.slot, op.slot + op.length);
  }
  std::sort(intervals.begin(), intervals.end());
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first < intervals[i - 1].second) {
      return "processor " + std::to_string(id) + " injected two flits into slot " +
             std::to_string(intervals[i].first);
    }
  }
  return "";
}

/// Whether the operations of one kind take their slots in slot order, and
/// whether there is any.
std::pair<bool, bool> in_slot_order(const std::vector<Op>& ops, Op::Kind kind) {
  std::vector<engine::Slot> slots;
  for (const Op& op : resolved(ops)) {
    if (op.kind == kind) slots.push_back(op.slot);
  }
  return {std::is_sorted(slots.begin(), slots.end()), !slots.empty()};
}

/// `n` operations in slot order with gaps of 0-2 slots and no collision;
/// sends take 1-3 slots.
std::vector<Op> ordered_ops(util::Xoshiro256& rng, std::size_t n) {
  std::vector<Op> ops;
  engine::Slot next = 1;
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.kind = static_cast<Op::Kind>(rng.below(3));
    op.length = op.kind == Op::kSend ? 1 + static_cast<std::uint32_t>(rng.below(3)) : 1;
    op.slot = next + static_cast<engine::Slot>(rng.below(3));
    next = op.slot + op.length;
    ops.push_back(op);
  }
  return ops;
}

// Random operation lists, in slot order and shuffled, with and without a
// collision, at 1 and 4 host threads: the engine throws exactly when the
// reference does, with the same text, and counts the sorts it made.
TEST(SlotCheck, OnePassMatchesTheSortingReference) {
  constexpr std::uint32_t kProcs = 6;
  const core::QsmM model(params(kProcs, 1, 2, 1));
  MachineOptions one;
  one.threads = 1;
  MachineOptions four;
  four.threads = 4;
  Machine machines[] = {Machine(model, one), Machine(model, four)};
  util::Xoshiro256 rng(41);
  std::size_t throws = 0;
  constexpr int kTrials = 1200;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool in_order = trial % 2 == 0;
    const bool collide = trial % 4 >= 2;
    std::vector<Op> subject = ordered_ops(rng, 2 + rng.below(11));
    if (collide) {
      // Start an operation inside the interval of the one before it: the
      // list stays in slot order.
      const std::size_t i = 1 + rng.below(subject.size() - 1);
      const Op& before = subject[i - 1];
      subject[i].slot = before.slot + static_cast<engine::Slot>(rng.below(before.length));
    }
    if (in_order) {
      // Leave to the engine each slot it would pick itself.
      engine::Slot next = 1;
      for (Op& op : subject) {
        const engine::Slot slot = op.slot;
        if (slot == next && rng.below(2) == 0) op.slot = 0;
        next = std::max(next, slot + op.length);
      }
    } else {
      for (std::size_t i = subject.size(); i > 1; --i) {
        std::swap(subject[i - 1], subject[rng.below(i)]);
      }
      // Slot 0 after a shuffle: the slot past every one taken so far.
      if (rng.below(2) == 0) subject.push_back(Op{Op::kWrite, 0, 1});
    }
    const auto id = static_cast<engine::ProcId>(rng.below(kProcs));
    std::vector<std::vector<Op>> ops(kProcs, std::vector<Op>{Op{}});
    ops[id] = subject;
    OpsProgram program(ops);
    Machine& machine = machines[trial % 3 == 0 ? 1 : 0];
    const std::string expected = reference_error(id, subject);
    ASSERT_EQ(run_error(machine, program), expected);
    if (!expected.empty()) {
      ++throws;
      continue;
    }
    const auto [sends_sorted, any_send] = in_slot_order(subject, Op::kSend);
    const bool requests_sorted = in_slot_order(subject, Op::kRead).first &&
                                 in_slot_order(subject, Op::kWrite).first;
    EXPECT_EQ(machine.counters().outbox_sorts, sends_sorted ? 0u : 1u);
    EXPECT_EQ(machine.counters().outbox_sorts_skipped,
              kProcs - 1 + (sends_sorted && any_send ? 1u : 0u));
    EXPECT_EQ(machine.counters().slot_check_sorts, requests_sorted ? 0u : 1u);
  }
  // Every collision trial throws, and no other does.
  EXPECT_EQ(throws, static_cast<std::size_t>(kTrials / 2));
}

TEST(SlotCheck, PinnedCollisionTexts) {
  const core::QsmM model(params(4, 1, 2, 1));
  Machine machine(model);
  const auto error = [&machine](engine::ProcId id, std::vector<Op> subject) {
    std::vector<std::vector<Op>> ops(4);
    ops[id] = std::move(subject);
    OpsProgram program(ops);
    return run_error(machine, program);
  };
  // Two sends in one slot.
  EXPECT_EQ(error(0, {{Op::kSend, 3, 1}, {Op::kSend, 3, 1}}),
            "processor 0 injected two flits into slot 3");
  // A send inside a long message's slots.
  EXPECT_EQ(error(2, {{Op::kSend, 1, 3}, {Op::kSend, 2, 1}}),
            "processor 2 injected two flits into slot 2");
  // A read in a slot a send occupies.
  EXPECT_EQ(error(1, {{Op::kSend, 4, 2}, {Op::kRead, 5, 1}}),
            "processor 1 injected two flits into slot 5");
  // A read and a write in one slot, in slot order and then out of it.
  EXPECT_EQ(error(3, {{Op::kRead, 2, 1}, {Op::kWrite, 2, 1}}),
            "processor 3 injected two flits into slot 2");
  EXPECT_EQ(error(3, {{Op::kRead, 7, 1}, {Op::kWrite, 9, 1}, {Op::kRead, 4, 1},
                      {Op::kWrite, 4, 1}}),
            "processor 3 injected two flits into slot 4");
}

/// Superstep 0 steps all four processors and superstep 1 only the first
/// two.  Processor 3 sends to the processors in `dsts` at `slots`.
class StraySends final : public SuperstepProgram {
 public:
  StraySends(std::vector<engine::ProcId> dsts, std::vector<engine::Slot> slots)
      : dsts_(std::move(dsts)), slots_(std::move(slots)) {}
  std::uint32_t participants(std::uint64_t superstep) const override {
    return superstep == 0 ? 4 : 2;
  }
  bool step(ProcContext& ctx) override {
    if (ctx.superstep() == 0 && ctx.id() == 3) {
      for (std::size_t i = 0; i < dsts_.size(); ++i) ctx.send(dsts_[i], 0, slots_[i]);
    }
    return ctx.superstep() == 0;
  }

 private:
  std::vector<engine::ProcId> dsts_;
  std::vector<engine::Slot> slots_;
};

TEST(SlotCheck, SlotErrorOutranksReceiverError) {
  const core::BspM model(params(4, 1, 2, 1));
  Machine machine(model);
  // Both rules broken: the slot error is the one reported.
  StraySends both({3, 1}, {4, 4});
  EXPECT_EQ(run_error(machine, both), "processor 3 injected two flits into slot 4");
  // The receiver error names the first offending message in issue order,
  // even when the outbox is out of slot order and so sorted.
  StraySends receiver({1, 3, 2}, {5, 9, 2});
  EXPECT_EQ(run_error(machine, receiver),
            "processor 3 sent to processor 3, which does not step in superstep 1");
}

TEST(SlotCheck, StaggeredProgramSortsNothing) {
  // Eight processors stagger five sends each under m = 2, then read at
  // the next free slots: every list is issued in slot order.
  class P final : public SuperstepProgram {
   public:
    void setup(Machine& machine) override { machine.resize_shared(8); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      for (std::uint64_t k = 0; k < 5; ++k) {
        ctx.send(static_cast<engine::ProcId>((ctx.id() + k) % ctx.p()), 0,
                 algos::stagger_slot(ctx.id(), k, ctx.p(), 2));
      }
      ctx.read(ctx.id());
      ctx.read((ctx.id() + 1) % ctx.p());
      return true;
    }
  } prog;
  const core::QsmM model(params(8, 1, 2, 1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MachineOptions opts;
    opts.threads = threads;
    Machine machine(model, opts);
    machine.run(prog);
    EXPECT_EQ(machine.counters().outbox_sorts, 0u);
    EXPECT_EQ(machine.counters().outbox_sorts_skipped, 8u);
    EXPECT_EQ(machine.counters().slot_check_sorts, 0u);
  }
}

}  // namespace
