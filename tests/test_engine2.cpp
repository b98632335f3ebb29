// Second wave of engine tests: trace contents, long-message accounting,
// shared-memory lifecycle, machine reuse, halting semantics, stress under
// host threads, and parameterized determinism sweeps.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "core/model/models.hpp"
#include "engine/error.hpp"
#include "engine/machine.hpp"
#include "util/thread_pool.hpp"
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

TEST(ThreadPool, ParallelForCoversAllIndices) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyConsecutiveDispatches) {
  util::ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(17, [&](std::size_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 200ull * (16 * 17 / 2));
}

TEST(ThreadPool, CallersOnSeveralThreadsShareOnePool) {
  // Two callers dispatching at once used to overwrite each other's jobs
  // and wait forever on the barrier.
  util::ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 100; ++round) {
        pool.parallel_for(17, [&](std::size_t i) { sum += i; });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(sum.load(), 3ull * 100 * (16 * 17 / 2));
}

TEST(ThreadPool, SingleThreadInline) {
  util::ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for(5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, EmptyRange) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, WorkerExceptionRethrownOnCaller) {
  // Regression: an exception on a worker thread used to escape the worker
  // loop and call std::terminate.  It must surface on the calling thread.
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 87) {  // lands on a worker chunk
                                     throw engine::SimulationError("boom");
                                   }
                                 }),
               engine::SimulationError);
}

TEST(ThreadPool, CallerChunkExceptionRethrownAfterBarrier) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 0) {  // the calling thread's chunk
                                     throw std::runtime_error("first");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, PoolUsableAfterException) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(
                     60, [](std::size_t i) { if (i % 20 == 19) throw 42; }),
                 int);
    std::atomic<int> calls{0};
    pool.parallel_for(60, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 60);
  }
}

TEST(Engine, TraceRecordsEverySuperstep) {
  class P final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() < 3 && ctx.id() == 0) ctx.send(1, 1);
      return ctx.superstep() < 3;
    }
  } prog;
  const core::BspM model(params(4, 2, 2, 1));
  replay::TapeRecorder recorder;
  MachineOptions opts;
  opts.tape_recorder = &recorder;
  Machine machine(model, opts);
  const auto run = machine.run(prog);
  const replay::StatsTape& tape = recorder.tapes().front();
  ASSERT_EQ(tape.size(), run.supersteps);
  double sum = 0;
  for (const double cost : replay::recost(tape, model).costs) sum += cost;
  EXPECT_DOUBLE_EQ(sum, run.total_time);
  EXPECT_EQ(tape.step_flits[0], 1u);
}

TEST(Engine, LongMessageHCountsFlits) {
  class P final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      if (ctx.id() == 0) ctx.send(1, 1, 1, /*length=*/6);
      return true;
    }
  } prog;
  const core::BspG model(params(4, 3, 2, 1));
  Machine machine(model);
  const auto run = machine.run(prog);
  // h = 6 flits sent -> g*h = 18, plus the drain superstep at L = 1.
  EXPECT_DOUBLE_EQ(run.total_time, 19.0);
}

TEST(Engine, SelfSendDelivers) {
  class P final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() == 0) {
        ctx.send(ctx.id(), 42);
        return true;
      }
      got_ = ctx.inbox().size() == 1 && ctx.inbox()[0].payload == 42;
      return false;
    }
    bool got_ = false;
  } prog;
  const core::BspM model(params(1, 1, 1, 1));
  Machine machine(model);
  machine.run(prog);
  EXPECT_TRUE(prog.got_);
}

TEST(Engine, MachineReuseAcrossRuns) {
  class P final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() == 0) {
        ctx.send((ctx.id() + 1) % ctx.p(), 1);
        return true;
      }
      count_ += ctx.inbox().size();
      return false;
    }
    std::atomic<int> count_{0};
  };
  const core::BspM model(params(8, 2, 4, 1));
  Machine machine(model);
  P prog1, prog2;
  const auto r1 = machine.run(prog1);
  const auto r2 = machine.run(prog2);
  EXPECT_EQ(prog1.count_.load(), 8);
  EXPECT_EQ(prog2.count_.load(), 8);  // fresh inboxes on the second run
  EXPECT_DOUBLE_EQ(r1.total_time, r2.total_time);
}

TEST(Engine, SharedMemoryPersistsAcrossSuperstepsNotRuns) {
  class Writer final : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(2); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() == 0 && ctx.id() == 0) ctx.write(0, 5);
      return ctx.superstep() == 0;
    }
  };
  const core::QsmM model(params(2, 1, 1, 1));
  Machine machine(model);
  Writer w1;
  machine.run(w1);
  EXPECT_EQ(machine.shared_at(0), 5);
  Writer w2;  // setup() re-zeroes shared memory
  machine.run(w2);
  EXPECT_EQ(machine.shared_at(0), 5);
}

TEST(Engine, HaltsOnlyWhenAllProcessorsStop) {
  class Straggler final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.id() == 0) return ctx.superstep() < 5;
      return false;  // everyone else wants to stop immediately
    }
  } prog;
  const core::BspG model(params(4, 1, 1, 1));
  Machine machine(model);
  const auto run = machine.run(prog);
  EXPECT_EQ(run.supersteps, 6u);
}

TEST(Engine, ZeroLengthMessageRejected) {
  class P final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      ctx.send(0, 1, 1, /*length=*/0);
      return false;
    }
  } prog;
  const core::BspG model(params(2, 1, 1, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, WildExplicitSlotRejected) {
  class P final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      ctx.send(0, 1, /*slot=*/(1u << 25));
      return false;
    }
  } prog;
  const core::BspG model(params(2, 1, 1, 1));
  Machine machine(model);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, SlotBoundsCheckDoesNotWrap) {
  // A slot or length near 2^32 wraps slot + length below the cap in 32
  // bits; it must still be rejected.
  class P final : public SuperstepProgram {
   public:
    P(engine::Slot slot, std::uint32_t length) : slot_(slot), length_(length) {}
    bool step(ProcContext& ctx) override {
      if (ctx.id() == 0) ctx.send(1, 1, slot_, length_);
      return false;
    }

   private:
    engine::Slot slot_;
    std::uint32_t length_;
  };
  const core::BspM model(params(2, 1, 1, 1));
  for (const auto& [slot, length] :
       {std::pair<engine::Slot, std::uint32_t>{0xFFFFFFFFu, 1},
        {1, 0xFFFFFFFFu}, {0xFFFFFFF0u, 0x20}}) {
    P prog(slot, length);
    Machine machine(model);
    EXPECT_THROW(machine.run(prog), engine::SimulationError);
  }
}

TEST(Engine, ValidationCanBeDisabled) {
  // With validation off, a QSM read/write race is tolerated (reads see
  // the pre-superstep value).
  class P final : public SuperstepProgram {
   public:
    void setup(Machine& m) override {
      m.resize_shared(1);
      m.poke_shared(0, 3);
    }
    bool step(ProcContext& ctx) override {
      switch (ctx.superstep()) {
        case 0:
          if (ctx.id() == 0) ctx.read(0);
          if (ctx.id() == 1) ctx.write(0, 9);
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
  MachineOptions opts;
  opts.validate = false;
  Machine machine(model, opts);
  machine.run(prog);
  EXPECT_EQ(prog.seen_, 3);
  EXPECT_EQ(machine.shared_at(0), 9);
}

TEST(Engine, MixedMessagesAndSharedMemoryInOneSuperstep) {
  // A program may use both primitives; the stats must account for both.
  class P final : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(8); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() > 0) return false;
      ctx.send((ctx.id() + 1) % ctx.p(), 1, 1);
      ctx.write(ctx.id(), 7, 2);
      return true;
    }
  } prog;
  const core::QsmM model(params(8, 2, 4, 1));
  replay::TapeRecorder recorder;
  MachineOptions opts;
  opts.tape_recorder = &recorder;
  Machine machine(model, opts);
  const auto run = machine.run(prog);
  EXPECT_EQ(run.total_messages, 8u);
  EXPECT_EQ(run.total_writes, 8u);
  const auto counts = recorder.tapes().front().slots(0);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 8u);  // messages at slot 1
  EXPECT_EQ(counts[1], 8u);  // writes at slot 2
}

TEST(Engine, StepExceptionPropagatesFromWorkerThreads) {
  // Regression: a SimulationError raised by program.step inside the
  // parallel phase (here: destination out of range on the last processor,
  // which a 4-thread pool steps on a worker) used to kill the process.
  class Bad final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.id() == ctx.p() - 1) ctx.send(ctx.p(), 0);
      return false;
    }
  } prog;
  const core::BspM model(params(64, 1, 8, 1));
  MachineOptions opts;
  opts.threads = 4;
  Machine machine(model, opts);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, ValidationErrorPropagatesFromWorkerThreads) {
  class Collide final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.id() == ctx.p() - 1) {
        ctx.send(0, 1, /*slot=*/2);
        ctx.send(0, 2, /*slot=*/2);  // slot collision caught by validate
      }
      return false;
    }
  } prog;
  const core::BspM model(params(64, 1, 8, 1));
  MachineOptions opts;
  opts.threads = 4;
  Machine machine(model, opts);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, MergeExceptionPropagatesFromWorkerThreads) {
  // Out-of-range shared read detected during the sharded merge phase.
  class Bad final : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(4); }
    bool step(ProcContext& ctx) override {
      if (ctx.id() == ctx.p() - 1) ctx.read(99);
      return false;
    }
  } prog;
  const core::QsmM model(params(64, 1, 8, 1));
  MachineOptions opts;
  opts.threads = 4;
  Machine machine(model, opts);
  EXPECT_THROW(machine.run(prog), engine::SimulationError);
}

TEST(Engine, MachineUsableAfterStepException) {
  class Bad final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      ctx.send(ctx.p(), 0);
      return false;
    }
  };
  class Ring final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() == 0) {
        ctx.send((ctx.id() + 1) % ctx.p(), 1);
        return true;
      }
      count_ += ctx.inbox().size();
      return false;
    }
    std::atomic<int> count_{0};
  };
  const core::BspM model(params(16, 1, 4, 1));
  MachineOptions opts;
  opts.threads = 4;
  Machine machine(model, opts);
  Bad bad;
  EXPECT_THROW(machine.run(bad), engine::SimulationError);
  Ring ring;
  machine.run(ring);
  EXPECT_EQ(ring.count_.load(), 16);
}

// ---- zero-copy delivery / buffer reuse -------------------------------------

TEST(Engine, SteadyStateDeliveryReusesQueues) {
  // Ring traffic across 6 supersteps; a second run on the same machine must
  // perform zero queue growth — every inbox and read buffer is reused at
  // capacity (the counters expose the double-buffered delivery path).
  class Ring final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() < 5) ctx.send((ctx.id() + 1) % ctx.p(), 1);
      return ctx.superstep() < 5;
    }
  };
  const core::BspM model(params(16, 1, 4, 1));
  Machine machine(model);
  Ring r1, r2;
  machine.run(r1);
  const auto first = machine.counters();
  EXPECT_GT(first.merge_flits, 0u);
  EXPECT_GT(first.inbox_grows, 0u);  // cold queues grow once per buffer
  machine.run(r2);
  const auto second = machine.counters();
  EXPECT_EQ(second.merge_flits, first.merge_flits);
  EXPECT_EQ(second.inbox_grows, 0u);
  EXPECT_EQ(second.read_buffer_grows, 0u);
}

TEST(Engine, InboxDoubleBuffersAlternateWithoutCopies) {
  // A message is delivered every superstep for 8 supersteps; once both
  // buffers are warm the inbox span's data pointer must alternate between
  // exactly two stable addresses (swap, not copy-and-reallocate).
  class Probe final : public SuperstepProgram {
   public:
    bool step(ProcContext& ctx) override {
      if (ctx.id() == 0) {
        ptrs_.push_back(ctx.inbox().data());
        if (ctx.superstep() < 7) ctx.send(0, 1);
      }
      return ctx.superstep() < 7;
    }
    std::vector<const engine::Message*> ptrs_;
  } prog;
  const core::BspM model(params(4, 1, 2, 1));
  Machine machine(model);
  machine.run(prog);
  ASSERT_EQ(prog.ptrs_.size(), 8u);
  // Superstep 1 delivers into buffer B, superstep 2 into buffer A; both
  // are warm from there on and simply swap.
  EXPECT_NE(prog.ptrs_[1], prog.ptrs_[2]);
  for (std::size_t s = 3; s < prog.ptrs_.size(); ++s) {
    EXPECT_EQ(prog.ptrs_[s], prog.ptrs_[s - 2]) << "superstep " << s;
  }
}

TEST(Engine, ReadResultBuffersReusedAcrossSupersteps) {
  class Reader final : public SuperstepProgram {
   public:
    void setup(Machine& m) override { m.resize_shared(8); }
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() < 5) ctx.read(ctx.id() % 8);
      return ctx.superstep() < 5;
    }
  };
  const core::QsmM model(params(8, 1, 8, 1));
  Machine machine(model);
  Reader r1, r2;
  machine.run(r1);
  machine.run(r2);
  EXPECT_EQ(machine.counters().read_buffer_grows, 0u);
}

// Determinism sweep: wall order of host threads never changes results.
struct DetCase {
  std::uint32_t p;
  std::size_t threads;
};

// ctest names a case by gtest's print of its parameter (tests/CMakeLists.txt).
void PrintTo(const DetCase& c, std::ostream* os) {
  *os << "p" << c.p << "_threads" << c.threads;
}

class DeterminismSweep : public ::testing::TestWithParam<DetCase> {};

TEST_P(DeterminismSweep, SameResultAnyThreadCount) {
  const auto c = GetParam();

  class Random final : public SuperstepProgram {
   public:
    explicit Random(std::uint32_t p) : acc_(p, 0) {}
    bool step(ProcContext& ctx) override {
      if (ctx.superstep() >= 4) return false;
      ctx.send(static_cast<engine::ProcId>(ctx.rng().below(ctx.p())),
               static_cast<engine::Word>(ctx.rng().below(997)));
      for (const auto& m : ctx.inbox()) acc_[ctx.id()] ^= m.payload + 1;
      return true;
    }
    std::vector<engine::Word> acc_;
  };

  const core::BspM model(params(c.p, 2, std::max(1u, c.p / 4), 2));
  MachineOptions ref_opts;
  ref_opts.threads = 1;
  Random ref(c.p);
  Machine ref_machine(model, ref_opts);
  const auto ref_run = ref_machine.run(ref);

  MachineOptions opts;
  opts.threads = c.threads;
  Random prog(c.p);
  Machine machine(model, opts);
  const auto run = machine.run(prog);
  EXPECT_DOUBLE_EQ(run.total_time, ref_run.total_time);
  EXPECT_EQ(prog.acc_, ref.acc_);
}

INSTANTIATE_TEST_SUITE_P(Threads, DeterminismSweep,
                         ::testing::Values(DetCase{8, 2}, DetCase{8, 4},
                                           DetCase{64, 2}, DetCase{64, 8},
                                           DetCase{256, 4}));

}  // namespace
