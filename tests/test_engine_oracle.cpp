// The engine against the paper's superstep semantics, restated from a
// communication plan.
//
// A seeded generator writes random plans: per superstep a participant
// prefix [0, k) that grows and shrinks, and per participating processor a
// sequence of sends (explicit slots and slot 0, long messages), reads and
// writes on a race-free split of the cells, and work charges.  A program
// replays each plan on a Machine, and every SuperstepStats field, every
// inbox and every reads() span it sees is compared with what the plan
// alone implies.  The expected values use no engine code; the rules are
// these:
//   - slot 0 takes the issuing processor's next free slot: one past the
//     end of everything it issued so far this superstep, from slot 1;
//   - a message of length l occupies l consecutive slots and counts l
//     flits toward s_i, r_i, the total and every m_t it covers;
//   - kappa is the larger of a location's read and write request counts,
//     maximized over locations;
//   - a read returns the cell as it stood at the start of its superstep,
//     in the next superstep, in issue order; writes land at the barrier in
//     ascending processor and issue order, so the highest-ranked writer
//     wins;
//   - an inbox holds the messages sent to it in the previous superstep,
//     ordered by (source, slot, issue order), and nothing older.
// The machine must also step exactly the named prefix, or all p when the
// program names none, and count those steps.  Every plan runs at 1 and at
// 4 host threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "replay/recorder.hpp"
#include "util/rng.hpp"

namespace {

using namespace pbw;

/// One action of one processor in one superstep, in issue order.
struct Op {
  enum Kind { kSend, kRead, kWrite, kWork } kind = kWork;
  std::uint32_t dst = 0;
  std::uint64_t addr = 0;
  std::int64_t value = 0;  ///< payload of a send, value of a write
  std::uint32_t slot = 0;  ///< 0: the next free slot
  std::uint32_t length = 1;
  std::uint64_t tag = 0;
  double work = 0.0;
};

struct Plan {
  std::uint32_t p = 1;
  std::vector<std::int64_t> init;            ///< shared memory at setup
  std::vector<std::uint32_t> participants;   ///< k per superstep, 1..p
  std::vector<std::vector<std::vector<Op>>> ops;  ///< [superstep][proc < k]
  [[nodiscard]] std::size_t supersteps() const { return participants.size(); }
};

/// A message as the oracle expects it in an inbox.
struct Delivered {
  std::uint32_t src, dst;
  std::int64_t payload;
  std::uint64_t tag;
  std::uint32_t length, slot;
  bool operator==(const Delivered&) const = default;
};

/// What one processor saw at the start of one superstep.
struct Seen {
  bool stepped = false;
  std::vector<Delivered> inbox;
  std::vector<std::int64_t> reads;
};

/// The expected per-superstep stats, field by field.
struct Stats {
  double max_work = 0.0;
  std::uint64_t max_sent = 0, max_received = 0, total_flits = 0;
  std::uint64_t max_reads = 0, max_writes = 0, kappa = 0, total_requests = 0;
  std::vector<std::uint64_t> slot_counts;
};

struct Expected {
  std::vector<Stats> stats;
  std::vector<std::vector<Seen>> seen;  ///< [superstep][proc], stepped unset
  std::vector<std::int64_t> memory;     ///< after the last superstep
  std::uint64_t messages = 0, flits = 0, reads = 0, writes = 0;
};

/// A free explicit slot for an injection of `length` flits, or 0 when a
/// few random tries all overlap this processor's earlier injections.
std::uint32_t free_slot(util::Xoshiro256& rng,
                        const std::vector<std::pair<std::uint32_t, std::uint32_t>>& used,
                        std::uint32_t length) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto slot = static_cast<std::uint32_t>(1 + rng.below(24));
    bool clear = true;
    for (const auto& [b, e] : used) clear = clear && (slot + length <= b || slot >= e);
    if (clear) return slot;
  }
  return 0;
}

Plan make_plan(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Plan plan;
  plan.p = static_cast<std::uint32_t>(1 + rng.below(32));
  const auto cells = 1 + rng.below(40);
  for (std::uint64_t a = 0; a < cells; ++a) {
    plan.init.push_back(static_cast<std::int64_t>(rng.below(1000)));
  }
  const auto supersteps = 2 + rng.below(10);
  for (std::uint64_t s = 0; s < supersteps; ++s) {
    // Full width now and then, else anywhere in [1, p]: the prefix grows,
    // shrinks and leaves gaps a processor later rejoins.
    plan.participants.push_back(
        rng.below(4) == 0 ? plan.p : static_cast<std::uint32_t>(1 + rng.below(plan.p)));
  }
  plan.ops.resize(supersteps);
  for (std::uint64_t s = 0; s < supersteps; ++s) {
    const bool last = s + 1 == supersteps;
    // Messages and reads reach only processors that step next; the last
    // superstep issues neither.
    const std::uint32_t next = last ? 0 : plan.participants[s + 1];
    // Race-free split: this superstep each cell is read or written, not both.
    std::vector<std::uint64_t> readable, writable;
    for (std::uint64_t a = 0; a < cells; ++a) {
      (rng.below(2) == 0 ? readable : writable).push_back(a);
    }
    plan.ops[s].resize(plan.participants[s]);
    for (std::uint32_t i = 0; i < plan.participants[s]; ++i) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> used;  // [begin, end)
      std::uint32_t next_free = 1;
      const auto count = rng.below(7);
      for (std::uint64_t n = 0; n < count; ++n) {
        Op op;
        switch (rng.below(4)) {
          case 0:
            if (next == 0) continue;
            op.kind = Op::kSend;
            op.dst = static_cast<std::uint32_t>(rng.below(next));
            op.length = rng.below(3) == 0 ? static_cast<std::uint32_t>(2 + rng.below(4)) : 1;
            op.value = static_cast<std::int64_t>(rng.below(1u << 20));
            op.tag = rng.below(1u << 16);
            break;
          case 1:
            if (i >= next || readable.empty()) continue;  // must step next
            op.kind = Op::kRead;
            op.addr = readable[rng.below(readable.size())];
            break;
          case 2:
            if (writable.empty()) continue;
            op.kind = Op::kWrite;
            op.addr = writable[rng.below(writable.size())];
            op.value = static_cast<std::int64_t>(rng.below(1u << 20));
            break;
          default:
            op.work = static_cast<double>(rng.below(64)) / 8.0;
            plan.ops[s][i].push_back(op);
            continue;
        }
        if (op.kind != Op::kSend) op.length = 1;
        op.slot = rng.below(2) == 0 ? free_slot(rng, used, op.length) : 0;
        const std::uint32_t begin = op.slot == 0 ? next_free : op.slot;
        used.emplace_back(begin, begin + op.length);
        next_free = std::max(next_free, begin + op.length);
        plan.ops[s][i].push_back(op);
      }
    }
  }
  return plan;
}

/// The plan's outcome, from the rules in the header comment alone.
Expected expect(const Plan& plan) {
  Expected ex;
  ex.memory = plan.init;
  ex.seen.assign(plan.supersteps(), std::vector<Seen>(plan.p));
  for (std::size_t s = 0; s < plan.supersteps(); ++s) {
    Stats st;
    std::vector<std::uint64_t> received(plan.p, 0);
    std::vector<std::uint64_t> readers(ex.memory.size(), 0), writers(ex.memory.size(), 0);
    std::vector<Delivered> sent;
    std::vector<std::pair<std::uint64_t, std::int64_t>> writes;  // landing order
    for (std::uint32_t i = 0; i < plan.participants[s]; ++i) {
      double work = 0.0;
      std::uint64_t flits = 0, reads = 0, writes_issued = 0;
      std::uint32_t next_free = 1;
      for (const Op& op : plan.ops[s][i]) {
        if (op.kind == Op::kWork) {
          work += op.work;
          continue;
        }
        const std::uint32_t slot = op.slot == 0 ? next_free : op.slot;
        const std::uint32_t end = slot + op.length;
        next_free = std::max(next_free, end);
        if (st.slot_counts.size() < end - 1) st.slot_counts.resize(end - 1, 0);
        for (std::uint32_t t = slot; t < end; ++t) ++st.slot_counts[t - 1];
        switch (op.kind) {
          case Op::kSend:
            flits += op.length;
            received[op.dst] += op.length;
            sent.push_back({i, op.dst, op.value, op.tag, op.length, slot});
            ++ex.messages;
            break;
          case Op::kRead:
            ++reads;
            ++readers[op.addr];
            if (s + 1 < plan.supersteps()) {
              ex.seen[s + 1][i].reads.push_back(ex.memory[op.addr]);
            }
            break;
          case Op::kWrite:
            ++writes_issued;
            ++writers[op.addr];
            writes.emplace_back(op.addr, op.value);
            break;
          case Op::kWork:
            break;
        }
      }
      st.max_work = std::max(st.max_work, work);
      st.max_sent = std::max(st.max_sent, flits);
      st.total_flits += flits;
      st.max_reads = std::max(st.max_reads, reads);
      st.max_writes = std::max(st.max_writes, writes_issued);
      st.total_requests += reads + writes_issued;
      ex.reads += reads;
      ex.writes += writes_issued;
    }
    for (const auto r : received) st.max_received = std::max(st.max_received, r);
    for (std::size_t a = 0; a < ex.memory.size(); ++a) {
      st.kappa = std::max({st.kappa, readers[a], writers[a]});
    }
    ex.flits += st.total_flits;
    if (s + 1 < plan.supersteps()) {
      // Sources ascend and each source's messages are in issue order, so a
      // stable sort by (source, slot) yields (source, slot, issue order).
      std::stable_sort(sent.begin(), sent.end(), [](const Delivered& a, const Delivered& b) {
        return a.src != b.src ? a.src < b.src : a.slot < b.slot;
      });
      for (const auto& msg : sent) ex.seen[s + 1][msg.dst].inbox.push_back(msg);
    }
    for (const auto& [addr, value] : writes) ex.memory[addr] = value;
    ex.stats.push_back(std::move(st));
  }
  return ex;
}

/// Replays a plan.  Processors outside the superstep's prefix do nothing
/// and return false; with `declare` the program also names the prefix, so
/// the machine need not step them at all.
class PlanProgram final : public engine::SuperstepProgram {
 public:
  PlanProgram(const Plan& plan, bool declare)
      : plan_(plan),
        declare_(declare),
        seen_(plan.supersteps(), std::vector<Seen>(plan.p)) {}

  std::uint32_t participants(std::uint64_t superstep) const override {
    return declare_ && superstep < plan_.supersteps() ? plan_.participants[superstep]
                                                       : plan_.p;
  }

  void setup(engine::Machine& machine) override {
    machine.resize_shared(plan_.init.size());
    for (std::size_t a = 0; a < plan_.init.size(); ++a) machine.poke_shared(a, plan_.init[a]);
  }

  bool step(engine::ProcContext& ctx) override {
    const auto s = ctx.superstep();
    const auto i = ctx.id();
    Seen& seen = seen_[s][i];
    seen.stepped = true;
    for (const auto& m : ctx.inbox()) {
      seen.inbox.push_back({m.src, m.dst, m.payload, m.tag, m.length, m.slot});
    }
    seen.reads.assign(ctx.reads().begin(), ctx.reads().end());
    if (i >= plan_.participants[s]) return false;
    for (const Op& op : plan_.ops[s][i]) {
      switch (op.kind) {
        case Op::kSend: ctx.send(op.dst, op.value, op.slot, op.length, op.tag); break;
        case Op::kRead: ctx.read(op.addr, op.slot); break;
        case Op::kWrite: ctx.write(op.addr, op.value, op.slot); break;
        case Op::kWork: ctx.charge(op.work); break;
      }
    }
    return s + 1 < plan_.supersteps();
  }

  [[nodiscard]] const std::vector<std::vector<Seen>>& seen() const { return seen_; }

 private:
  const Plan& plan_;
  bool declare_;
  std::vector<std::vector<Seen>> seen_;  ///< [superstep][proc]; one writer each
};

core::ModelParams params(std::uint32_t p) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = 2;
  prm.m = 4;
  prm.L = 3;
  return prm;
}

void expect_stats(const Stats& want, const engine::SuperstepStats& got) {
  EXPECT_EQ(got.max_work, want.max_work);  // exact: the same sums in the same order
  EXPECT_EQ(got.max_sent, want.max_sent);
  EXPECT_EQ(got.max_received, want.max_received);
  EXPECT_EQ(got.total_flits, want.total_flits);
  EXPECT_EQ(got.max_reads, want.max_reads);
  EXPECT_EQ(got.max_writes, want.max_writes);
  EXPECT_EQ(got.kappa, want.kappa);
  EXPECT_EQ(got.total_requests, want.total_requests);
  EXPECT_EQ(got.slot_counts, want.slot_counts);
}

void run_plan(const Plan& plan, const Expected& want, bool declare, std::size_t threads) {
  const core::BspM model(params(plan.p));
  replay::TapeRecorder recorder;
  engine::MachineOptions options;
  options.threads = threads;
  options.tape_recorder = &recorder;
  engine::Machine machine(model, options);
  PlanProgram program(plan, declare);
  const auto run = machine.run(program);

  ASSERT_EQ(run.supersteps, plan.supersteps());
  EXPECT_EQ(run.total_messages, want.messages);
  EXPECT_EQ(run.total_flits, want.flits);
  EXPECT_EQ(run.total_reads, want.reads);
  EXPECT_EQ(run.total_writes, want.writes);
  const auto& tape = recorder.tapes().front();
  ASSERT_EQ(tape.size(), plan.supersteps());
  for (std::size_t s = 0; s < plan.supersteps(); ++s) {
    SCOPED_TRACE("superstep " + std::to_string(s));
    expect_stats(want.stats[s], tape.step(s));
    for (std::uint32_t i = 0; i < plan.p; ++i) {
      const Seen& seen = program.seen()[s][i];
      if (!seen.stepped) continue;
      EXPECT_EQ(seen.inbox, want.seen[s][i].inbox) << "inbox of processor " << i;
      EXPECT_EQ(seen.reads, want.seen[s][i].reads) << "reads of processor " << i;
    }
  }
  for (std::size_t a = 0; a < want.memory.size(); ++a) {
    EXPECT_EQ(machine.shared_at(a), want.memory[a]) << "cell " << a;
  }
  // A declared prefix steps exactly its processors; otherwise all p step.
  std::uint64_t steps = 0;
  for (std::size_t s = 0; s < plan.supersteps(); ++s) {
    const std::uint32_t k = declare ? plan.participants[s] : plan.p;
    steps += k;
    for (std::uint32_t i = 0; i < plan.p; ++i) {
      EXPECT_EQ(program.seen()[s][i].stepped, i < k)
          << "superstep " << s << ", processor " << i;
    }
  }
  EXPECT_EQ(machine.counters().processor_steps, steps);
  EXPECT_EQ(machine.counters().processor_steps_skipped, plan.p * plan.supersteps() - steps);
}

constexpr std::uint64_t kPlans = 60;

void run_all(bool declare) {
  for (std::uint64_t seed = 1; seed <= kPlans; ++seed) {
    const Plan plan = make_plan(seed);
    const Expected want = expect(plan);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("plan " + std::to_string(seed) + ", p=" + std::to_string(plan.p) +
                   ", threads=" + std::to_string(threads));
      run_plan(plan, want, declare, threads);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EngineOracle, PlansCoverEveryRule) {
  // The cases the rules single out occur in the generated plans: long
  // messages at explicit slots and at slot 0, contended cells, and a
  // processor that read, sat out a superstep and stepped again.
  std::uint64_t long_explicit = 0, long_auto = 0, contended = 0, rejoined = 0;
  for (std::uint64_t seed = 1; seed <= kPlans; ++seed) {
    const Plan plan = make_plan(seed);
    const Expected want = expect(plan);
    for (std::size_t s = 0; s < plan.supersteps(); ++s) {
      contended += want.stats[s].kappa > 1;
      for (const auto& ops : plan.ops[s]) {
        for (const Op& op : ops) {
          if (op.kind != Op::kSend || op.length == 1) continue;
          ++(op.slot == 0 ? long_auto : long_explicit);
        }
      }
      for (std::uint32_t i = 0; s >= 3 && i < plan.participants[s]; ++i) {
        const bool read_before = i < plan.participants[s - 3] &&
                                 std::any_of(plan.ops[s - 3][i].begin(),
                                             plan.ops[s - 3][i].end(),
                                             [](const Op& op) { return op.kind == Op::kRead; });
        rejoined += read_before && i >= plan.participants[s - 1];
      }
    }
  }
  EXPECT_GT(long_explicit, 0u);
  EXPECT_GT(long_auto, 0u);
  EXPECT_GT(contended, 0u);
  EXPECT_GT(rejoined, 0u);
}

TEST(EngineOracle, EveryProcessorStepping) { run_all(false); }

TEST(EngineOracle, DeclaredPrefixStepping) { run_all(true); }

}  // namespace
