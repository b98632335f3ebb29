#include "engine/machine.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "engine/error.hpp"
#include "obs/telemetry/span.hpp"
#include "replay/recorder.hpp"

namespace pbw::engine {
namespace {

// A superstep occupying more slots than this is almost certainly a program
// bug (a wild explicit slot); the cap bounds slot_counts memory.
constexpr Slot kMaxSlot = 1u << 24;

/// Orders messages and shared-memory requests by injection slot.
constexpr auto by_slot = [](const auto& a, const auto& b) { return a.slot < b.slot; };

std::atomic<bool> g_profile_default{false};

}  // namespace

void set_profile_default(bool on) noexcept {
  g_profile_default.store(on, std::memory_order_relaxed);
}

bool profile_default() noexcept {
  return g_profile_default.load(std::memory_order_relaxed);
}

void ProcContext::send(ProcId dst, Word payload, Slot slot, std::uint32_t length,
                       std::uint64_t tag) {
  if (length == 0) throw SimulationError("send: zero-length message");
  if (dst >= p_) throw SimulationError("send: destination out of range");
  if (slot == 0) slot = next_auto_slot_;
  next_auto_slot_ = std::max(next_auto_slot_, slot + length);
  // In 64 bits, so a slot or length near 2^32 cannot wrap past the cap.
  if (std::uint64_t{slot} + length > kMaxSlot) {
    throw SimulationError("send: slot out of bounds");
  }
  outbox_.push_back(Message{id_, dst, payload, tag, length, slot});
}

void ProcContext::read(Addr addr, Slot slot) {
  if (slot == 0) slot = next_auto_slot_;
  next_auto_slot_ = std::max(next_auto_slot_, slot + 1);
  if (slot >= kMaxSlot) throw SimulationError("read: slot out of bounds");
  read_reqs_.push_back(ReadReq{addr, slot});
}

void ProcContext::write(Addr addr, Word value, Slot slot) {
  if (slot == 0) slot = next_auto_slot_;
  next_auto_slot_ = std::max(next_auto_slot_, slot + 1);
  if (slot >= kMaxSlot) throw SimulationError("write: slot out of bounds");
  write_reqs_.push_back(WriteReq{addr, value, slot});
}

Machine::Machine(const CostModel& model, MachineOptions options)
    : model_(model),
      options_(options),
      p_(model.processors()),
      streams_(options.seed),
      pool_(options.threads),
      contexts_(p_),
      inboxes_(p_),
      next_inboxes_(p_),
      read_results_(p_),
      next_read_results_(p_),
      recv_flits_(p_, 0),
      active_(p_, 1) {
  if (p_ == 0) throw SimulationError("Machine: model has zero processors");
  // The process-wide profile default reaches Machines constructed deep
  // inside scenarios (pbw-campaign --profile) without plumbing a flag
  // through every call site.
  options_.profile = options_.profile || profile_default();
  shards_.resize(pool_.size());
}

void Machine::resize_shared(std::size_t cells, Word init) {
  shared_.assign(cells, init);
  cont_reads_.assign(cells, 0);
  cont_writes_.assign(cells, 0);
  cont_stamp_.assign(cells, 0);
  cont_epoch_ = 0;
}

RunResult Machine::run(SuperstepProgram& program) {
  RunResult result;
  superstep_ = 0;
  counters_ = EngineCounters{};
  // Stats-tape capture: explicit option, then the thread-local recorder,
  // then the --trace recorder, else off (see replay/recorder.hpp).
  // Resolved once per run so the per-superstep cost of disabled capture
  // is one null check.  One tape per run, carrying the model that charged
  // it so a trace can be derived from it afterwards.
  replay::TapeRecorder* tape_recorder = options_.tape_recorder != nullptr
                                            ? options_.tape_recorder
                                            : replay::current_tape_recorder();
  tape_ = nullptr;
  if (tape_recorder != nullptr) {
    tape_ = &tape_recorder->begin_tape(p_, options_.seed);
    tape_->captured_model = model_.name();
    tape_->model = model_.clone();
  }
  for (auto& inbox : inboxes_) inbox.clear();
  for (auto& inbox : next_inboxes_) inbox.clear();
  for (auto& reads : read_results_) reads.clear();
  for (auto& reads : next_read_results_) reads.clear();
  inbox_hw_ = next_inbox_hw_ = read_hw_ = next_read_hw_ = 0;
  program.setup(*this);
  bool any_active = true;
  while (any_active) {
    if (superstep_ >= options_.max_supersteps) {
      throw SimulationError("Machine: superstep limit exceeded");
    }
    any_active = execute_superstep(program, result);
    ++superstep_;
    ++result.supersteps;
  }
  if (tape_ != nullptr) {
    tape_->total_messages = result.total_messages;
    tape_->total_flits = result.total_flits;
    tape_->total_reads = result.total_reads;
    tape_->total_writes = result.total_writes;
    tape_->counters = counters_;
  }
  return result;
}

bool Machine::validate_slots(const ProcContext& ctx) const {
  // Each processor may inject at most one flit per slot (BSP(m)/QSM(m)
  // definition: "each processor may initiate at most one message send" per
  // step): taken in slot order, each occupied interval must begin at or
  // after the end of the one before.  The first that does not names its
  // slot, which is the same for any order of equal begins.
  const auto collision = [&ctx](Slot slot) {
    return SimulationError("processor " + std::to_string(ctx.id_) +
                           " injected two flits into slot " +
                           std::to_string(slot));
  };
  const auto& sends = ctx.outbox_;
  const auto& reads = ctx.read_reqs_;
  const auto& writes = ctx.write_reqs_;
  if (std::is_sorted(reads.begin(), reads.end(), by_slot) &&
      std::is_sorted(writes.begin(), writes.end(), by_slot)) {
    // With the outbox, all three lists are in slot order: one merge pass,
    // no copy.  Every slot is below kMaxSlot, so it marks a spent list.
    std::size_t s = 0, r = 0, w = 0;
    Slot busy_until = 0;  // one past the last slot taken so far
    while (s < sends.size() || r < reads.size() || w < writes.size()) {
      const Slot read_slot = r < reads.size() ? reads[r].slot : kMaxSlot;
      const Slot write_slot = w < writes.size() ? writes[w].slot : kMaxSlot;
      Slot begin = 0;
      Slot end = 0;
      if (s < sends.size() && sends[s].slot <= std::min(read_slot, write_slot)) {
        begin = sends[s].slot;
        end = sends[s++].slot_end();
      } else {
        begin = std::min(read_slot, write_slot);
        end = begin + 1;
        ++(read_slot <= write_slot ? r : w);
      }
      if (begin < busy_until) throw collision(begin);
      busy_until = end;
    }
    return false;
  }
  // A read or write list out of slot order: copy the intervals and sort.
  std::vector<std::pair<Slot, Slot>> intervals;  // [begin, end)
  intervals.reserve(sends.size() + reads.size() + writes.size());
  for (const auto& msg : sends) intervals.emplace_back(msg.slot, msg.slot_end());
  for (const auto& req : reads) intervals.emplace_back(req.slot, req.slot + 1);
  for (const auto& req : writes) intervals.emplace_back(req.slot, req.slot + 1);
  std::sort(intervals.begin(), intervals.end());
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first < intervals[i - 1].second) {
      throw collision(intervals[i].first);
    }
  }
  return true;
}

std::string Machine::receiver_error(const ProcContext& ctx,
                                    std::size_t next_participants) const {
  if (next_participants >= p_) return {};  // every processor steps next
  for (const auto& msg : ctx.outbox_) {
    if (msg.dst >= next_participants) {
      return "processor " + std::to_string(ctx.id_) + " sent to processor " +
             std::to_string(msg.dst) + ", which does not step in superstep " +
             std::to_string(superstep_ + 1);
    }
  }
  if (!ctx.read_reqs_.empty() && ctx.id_ >= next_participants) {
    return "processor " + std::to_string(ctx.id_) +
           " read, but does not step in superstep " +
           std::to_string(superstep_ + 1) + " to see the values";
  }
  return {};
}

std::pair<std::size_t, std::size_t> Machine::proc_range(
    std::size_t shard_index, std::size_t shard_count, std::size_t n) noexcept {
  const std::size_t chunk = (n + shard_count - 1) / shard_count;
  const std::size_t begin = std::min(shard_index * chunk, n);
  return {begin, std::min(begin + chunk, n)};
}

std::pair<Addr, Addr> Machine::addr_range(std::size_t shard_index,
                                          std::size_t shard_count) const noexcept {
  const std::size_t chunk = (shared_.size() + shard_count - 1) / shard_count;
  const Addr begin = std::min(shard_index * chunk, shared_.size());
  return {begin, std::min(begin + chunk, shared_.size())};
}

void Machine::merge_collect(std::size_t shard_index, std::size_t shard_count,
                            std::size_t participants) {
  MergeShard& sh = shards_[shard_index];
  sh.max_work = 0.0;
  sh.max_sent = sh.max_received = sh.total_flits = 0;
  sh.max_reads = sh.max_writes = sh.total_requests = 0;
  sh.messages = sh.reads = sh.writes = 0;
  sh.kappa = 0;
  sh.inbox_grows = sh.read_buffer_grows = 0;
  sh.outbox_sorts = sh.outbox_sorts_skipped = sh.slot_check_sorts = 0;
  sh.max_slot_end = 0;
  sh.has_race = false;
  sh.race_addr = 0;
  sh.msg_buckets.resize(shard_count);
  for (auto& bucket : sh.msg_buckets) bucket.clear();
  sh.addr_buckets.resize(shard_count);
  for (auto& bucket : sh.addr_buckets) bucket.clear();

  // This shard's contiguous slice of the stepped sources (sweeps A/A2 and
  // bucketing); destinations are bucketed by merge_deliver's slices of p.
  const auto [s0, s1] = proc_range(shard_index, shard_count, participants);
  const std::size_t proc_chunk = (p_ + shard_count - 1) / shard_count;
  const std::size_t addr_chunk =
      shared_.empty() ? 1 : (shared_.size() + shard_count - 1) / shard_count;

  // Sweep A: per-source statistics, address validation, read-result
  // delivery into this shard's persistent buffers, and bucketing of each
  // message/request by the shard that will consume it in the deliver
  // phase.  Requests land in one tagged bucket in issue order (reads of a
  // source, then its writes) so the consumer's tally order matches a
  // single ascending scan over sources.
  for (std::size_t i = s0; i < s1; ++i) {
    ProcContext& ctx = contexts_[i];
    sh.max_work = std::max(sh.max_work, ctx.work_);

    std::uint64_t sent = 0;
    for (const auto& msg : ctx.outbox_) {
      sent += msg.length;
      sh.max_slot_end = std::max(sh.max_slot_end, msg.slot_end());
      sh.msg_buckets[msg.dst / proc_chunk].push_back(&msg);
    }
    sh.messages += ctx.outbox_.size();
    sh.total_flits += sent;
    sh.max_sent = std::max(sh.max_sent, sent);
    if (!ctx.outbox_.empty()) {
      ++(ctx.outbox_sorted_ ? sh.outbox_sorts : sh.outbox_sorts_skipped);
    }
    if (ctx.slot_check_sorted_) ++sh.slot_check_sorts;

    auto& delivered = next_read_results_[i];
    const std::size_t cap = delivered.capacity();
    delivered.clear();
    delivered.reserve(ctx.read_reqs_.size());
    for (const auto& req : ctx.read_reqs_) {
      if (req.addr >= shared_.size()) {
        throw SimulationError("read: address " + std::to_string(req.addr) +
                              " out of range");
      }
      delivered.push_back(shared_[req.addr]);
      sh.max_slot_end = std::max(sh.max_slot_end, req.slot + 1);
      sh.addr_buckets[req.addr / addr_chunk].push_back({req.addr, false});
    }
    if (delivered.capacity() != cap) ++sh.read_buffer_grows;
    for (const auto& req : ctx.write_reqs_) {
      if (req.addr >= shared_.size()) {
        throw SimulationError("write: address " + std::to_string(req.addr) +
                              " out of range");
      }
      sh.max_slot_end = std::max(sh.max_slot_end, req.slot + 1);
      sh.addr_buckets[req.addr / addr_chunk].push_back({req.addr, true});
    }
    sh.max_reads = std::max(sh.max_reads,
                            static_cast<std::uint64_t>(ctx.read_reqs_.size()));
    sh.max_writes = std::max(sh.max_writes,
                             static_cast<std::uint64_t>(ctx.write_reqs_.size()));
    sh.reads += ctx.read_reqs_.size();
    sh.writes += ctx.write_reqs_.size();
    sh.total_requests += ctx.read_reqs_.size() + ctx.write_reqs_.size();
  }

  // Sweep A2: slot occupancy m_t contributed by this shard's sources, as a
  // difference array — +1 where an injection interval starts, -1 one past
  // where it ends, then one prefix sum — O(messages + slots) instead of
  // O(flits).  Deltas live in slot_counts itself; the transient "-1"
  // entries rely on defined unsigned wraparound and every prefix sum is a
  // true (non-negative) occupancy count.
  const std::size_t slots = sh.max_slot_end == 0 ? 0 : sh.max_slot_end - 1;
  sh.slot_counts.assign(slots, 0);
  for (std::size_t i = s0; i < s1; ++i) {
    const ProcContext& ctx = contexts_[i];
    for (const auto& msg : ctx.outbox_) {
      ++sh.slot_counts[msg.slot - 1];
      const std::size_t end = msg.slot - 1 + msg.length;
      if (end < slots) --sh.slot_counts[end];
    }
    for (const auto& req : ctx.read_reqs_) {
      ++sh.slot_counts[req.slot - 1];
      if (req.slot < slots) --sh.slot_counts[req.slot];
    }
    for (const auto& req : ctx.write_reqs_) {
      ++sh.slot_counts[req.slot - 1];
      if (req.slot < slots) --sh.slot_counts[req.slot];
    }
  }
  for (std::size_t t = 1; t < slots; ++t) {
    sh.slot_counts[t] += sh.slot_counts[t - 1];
  }
}

void Machine::merge_deliver(std::size_t shard_index, std::size_t shard_count) {
  MergeShard& sh = shards_[shard_index];

  // Sweep B: drain the message buckets addressed to this shard's
  // destination range, in ascending source-shard order — sources ascend
  // within each bucket, so each inbox stays ordered by (source, slot,
  // issue order) exactly as a full ascending source scan would produce.
  // Only the queues below the buffer's high-water mark can hold messages
  // of its last fill, so only those are emptied; past the highest
  // destination filled now, every queue is empty and every recv_flits_
  // zero.  Queues keep their capacity across supersteps.
  const auto [s0, s1] = proc_range(shard_index, shard_count, p_);
  sh.inbox_hw = 0;
  if (s0 < s1) {
    sh.caps.resize(s1 - s0);
    for (std::size_t d = s0; d < std::min(s1, next_inbox_hw_); ++d) {
      next_inboxes_[d].clear();
    }
    std::size_t hw = 0;
    for (std::size_t src_shard = 0; src_shard < shard_count; ++src_shard) {
      for (const Message* msg : shards_[src_shard].msg_buckets[shard_index]) {
        const std::size_t d = msg->dst;
        if (recv_flits_[d] == 0) sh.caps[d - s0] = next_inboxes_[d].capacity();
        next_inboxes_[d].push_back(*msg);
        recv_flits_[d] += msg->length;
        hw = std::max(hw, d + 1);
      }
    }
    for (std::size_t d = s0; d < hw; ++d) {
      if (recv_flits_[d] == 0) continue;
      if (next_inboxes_[d].capacity() != sh.caps[d - s0]) ++sh.inbox_grows;
      sh.max_received = std::max(sh.max_received, recv_flits_[d]);
      recv_flits_[d] = 0;
    }
    sh.inbox_hw = hw;
  }

  // Sweep C: contention tally over this shard's address range via the flat
  // epoch-stamped counters, draining the request buckets addressed here in
  // ascending source-shard order (same relative order as the old full scan,
  // so the first-detected race address is unchanged).
  if (!shared_.empty()) {
    sh.touched.clear();
    for (std::size_t src_shard = 0; src_shard < shard_count; ++src_shard) {
      for (const auto [addr, is_write] :
           shards_[src_shard].addr_buckets[shard_index]) {
        if (cont_stamp_[addr] != cont_epoch_) {
          cont_stamp_[addr] = cont_epoch_;
          cont_reads_[addr] = 0;
          cont_writes_[addr] = 0;
          sh.touched.push_back(addr);
        }
        if (is_write) {
          ++cont_writes_[addr];
        } else {
          ++cont_reads_[addr];
        }
      }
    }
    for (const Addr addr : sh.touched) {
      const std::uint64_t reads = cont_reads_[addr];
      const std::uint64_t writes = cont_writes_[addr];
      if (options_.validate && reads > 0 && writes > 0 && !sh.has_race) {
        sh.has_race = true;
        sh.race_addr = addr;
      }
      sh.kappa = std::max({sh.kappa, reads, writes});
    }
  }
}

bool Machine::execute_superstep(SuperstepProgram& program, RunResult& result) {
  // Only the prefix [0, k) steps; the processors past it count as having
  // returned false, and nothing below reads their stale contexts.
  const std::size_t k = std::min<std::size_t>(program.participants(superstep_), p_);
  const std::size_t next_k =
      options_.validate
          ? std::min<std::size_t>(program.participants(superstep_ + 1), p_)
          : p_;
  counters_.processor_steps += k;
  counters_.processor_steps_skipped += p_ - k;

  // Phase wall-clock flows through the span profiler (obs/telemetry):
  // the same measurement feeds EngineCounters, the captured tape (so the
  // trace derived from it carries the clocks), the metrics registry
  // (span.engine.* series) and the Chrome span flamegraph.  Gated on
  // options_.profile so unprofiled supersteps stay clock-free.
  obs::Span step_span("engine.step", options_.profile);

  // Phase 1: step the participants into private buffers (parallel).
  pool_.parallel_for(k, [&](std::size_t i) {
    ProcContext& ctx = contexts_[i];
    ctx.id_ = static_cast<ProcId>(i);
    ctx.p_ = p_;
    ctx.superstep_ = superstep_;
    ctx.work_ = 0.0;
    ctx.next_auto_slot_ = 1;
    ctx.rng_ = streams_.stream(0x70726F63ULL, i, superstep_);
    ctx.inbox_ = std::span<const Message>(inboxes_[i]);
    ctx.read_results_ = std::span<const Word>(read_results_[i]);
    ctx.outbox_.clear();
    ctx.read_reqs_.clear();
    ctx.write_reqs_.clear();
    active_[i] = program.step(ctx) ? 1 : 0;
    // A receiver error names the first bad message in issue order, so it
    // is found before the sort; a slot collision, found after, outranks it.
    const std::string receiver =
        options_.validate ? receiver_error(ctx, next_k) : std::string();
    // Deliver in slot order within a source so inbox order is
    // (source, slot, issue order).  Staggered and auto-slot sends are
    // issued in slot order already, and the sort allocates, so only an
    // outbox out of order is sorted.
    auto& outbox = ctx.outbox_;
    ctx.outbox_sorted_ = !std::is_sorted(outbox.begin(), outbox.end(), by_slot);
    if (ctx.outbox_sorted_) std::stable_sort(outbox.begin(), outbox.end(), by_slot);
    ctx.slot_check_sorted_ = options_.validate && validate_slots(ctx);
    if (!receiver.empty()) throw SimulationError(receiver);
  });

  const std::uint64_t step_ns = step_span.stop();
  counters_.step_ns += step_ns;
  obs::Span merge_span("engine.merge", options_.profile);

  // Phase 2: sharded parallel merge in two sub-phases.  Collect: every
  // shard walks its own sources — stats, read delivery, slot occupancy —
  // and buckets each message/request by consuming shard.  Deliver (after
  // the barrier between the two parallel_for calls): every shard drains
  // exactly the buckets addressed to its destination/address range, so the
  // total routing work is O(messages + requests) instead of
  // O(shards x messages).  Shards own disjoint slices of the queues and
  // the contention table, so both sub-phases are race-free; the caller
  // reduces the per-shard accumulators in ascending shard order below.
  ++cont_epoch_;
  // Collect refills the read buffers of [0, k); the rest of what this
  // buffer's last fill reached belongs to processors that do not step now,
  // and would be seen stale when they step again.
  for (std::size_t i = k; i < next_read_hw_; ++i) next_read_results_[i].clear();
  next_read_hw_ = k;
  const std::size_t shard_count = shards_.size();
  pool_.parallel_for(shard_count,
                     [&](std::size_t w) { merge_collect(w, shard_count, k); });
  pool_.parallel_for(shard_count,
                     [&](std::size_t w) { merge_deliver(w, shard_count); });

  SuperstepStats& stats = stats_;
  stats.max_work = 0.0;
  stats.max_sent = stats.max_received = stats.total_flits = 0;
  stats.max_reads = stats.max_writes = stats.kappa = stats.total_requests = 0;

  Slot max_slot_end = 0;  // exclusive
  for (const MergeShard& sh : shards_) {
    max_slot_end = std::max(max_slot_end, sh.max_slot_end);
  }
  stats.slot_counts.assign(max_slot_end == 0 ? 0 : max_slot_end - 1, 0);

  const MergeShard* race_shard = nullptr;
  next_inbox_hw_ = 0;  // deliver has emptied what the last fill reached
  for (const MergeShard& sh : shards_) {
    stats.max_work = std::max(stats.max_work, sh.max_work);
    stats.max_sent = std::max(stats.max_sent, sh.max_sent);
    stats.max_received = std::max(stats.max_received, sh.max_received);
    stats.total_flits += sh.total_flits;
    stats.max_reads = std::max(stats.max_reads, sh.max_reads);
    stats.max_writes = std::max(stats.max_writes, sh.max_writes);
    stats.total_requests += sh.total_requests;
    stats.kappa = std::max(stats.kappa, sh.kappa);
    for (std::size_t t = 0; t < sh.slot_counts.size(); ++t) {
      stats.slot_counts[t] += sh.slot_counts[t];
    }
    result.total_messages += sh.messages;
    result.total_flits += sh.total_flits;
    result.total_reads += sh.reads;
    result.total_writes += sh.writes;
    counters_.merge_flits += sh.total_flits;
    counters_.merge_requests += sh.total_requests;
    counters_.inbox_grows += sh.inbox_grows;
    counters_.read_buffer_grows += sh.read_buffer_grows;
    counters_.outbox_sorts += sh.outbox_sorts;
    counters_.outbox_sorts_skipped += sh.outbox_sorts_skipped;
    counters_.slot_check_sorts += sh.slot_check_sorts;
    next_inbox_hw_ = std::max(next_inbox_hw_, sh.inbox_hw);
    if (race_shard == nullptr && sh.has_race) race_shard = &sh;
  }
  if (race_shard != nullptr) {
    throw SimulationError("QSM race: address " +
                          std::to_string(race_shard->race_addr) +
                          " both read and written in one superstep");
  }

  // Apply writes after all reads observed the pre-superstep state.  The
  // Arbitrary concurrent-write rule is made deterministic: ascending
  // processor order means the highest-ranked writer wins.  The shard
  // accumulators already counted the writes, so a write-free superstep
  // (the common case for message-passing programs) skips the serial scan
  // over the k stepped contexts.
  std::uint64_t writes_issued = 0;
  for (const MergeShard& sh : shards_) writes_issued += sh.writes;
  if (writes_issued != 0) {
    for (std::size_t i = 0; i < k; ++i) {
      for (const auto& req : contexts_[i].write_reqs_) shared_[req.addr] = req.value;
    }
  }

  result.total_time += model_.superstep_cost(stats);
  if (tape_ != nullptr) tape_->append(stats);

  std::swap(inboxes_, next_inboxes_);
  std::swap(inbox_hw_, next_inbox_hw_);
  std::swap(read_results_, next_read_results_);
  std::swap(read_hw_, next_read_hw_);

  const std::uint64_t merge_ns = merge_span.stop();
  counters_.merge_ns += merge_ns;
  if (tape_ != nullptr && options_.profile) {
    tape_->step_ns.push_back(step_ns);
    tape_->merge_ns.push_back(merge_ns);
  }
  return std::any_of(active_.begin(), active_.begin() + static_cast<std::ptrdiff_t>(k),
                     [](unsigned char a) { return a != 0; });
}

}  // namespace pbw::engine
