// The bulk-synchronous machine simulator.
//
// Executes a SuperstepProgram on p logical processors against a pluggable
// CostModel (BSP(g), BSP(m), QSM(g), QSM(m), self-scheduling BSP(m)),
// charging each superstep exactly what the model's definition in Section 2
// of the paper prescribes.  Message routing and shared memory semantics are
// implemented here; the model only maps SuperstepStats to time.
//
// Each superstep runs in two phases: a parallel step phase (every processor
// of the program's participant prefix mutates only its own buffers; the
// rest are not stepped) and a parallel sharded merge phase — collect
// (per-source stats over the prefix, slot occupancy via a difference
// array, and bucketing of messages/requests by consuming shard) then
// deliver (each shard drains exactly its own buckets into its destination
// queues and contention tallies), reduced in fixed shard order.  Results are
// bit-identical for every host thread count; see DESIGN.md ("Engine
// internals").  A replay::TapeRecorder captures the per-superstep
// SuperstepStats stream, the run's one record: trace-replay recosting and
// every cost-attribution trace are derived from that tape (src/replay).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/cost.hpp"
#include "engine/proc_context.hpp"
#include "engine/program.hpp"
#include "util/thread_pool.hpp"
#include "engine/types.hpp"
#include "util/rng.hpp"

namespace pbw::replay {
class TapeRecorder;
struct StatsTape;
}  // namespace pbw::replay

namespace pbw::engine {

/// Process-wide default for MachineOptions::profile.  When on, every
/// Machine measures phase wall-clock (and emits engine.step/engine.merge
/// spans) even if its own options left profile false — how
/// `pbw-campaign --profile` reaches the Machines its scenarios construct
/// internally.  Cleared by default; model-time results are unaffected.
void set_profile_default(bool on) noexcept;
[[nodiscard]] bool profile_default() noexcept;

struct MachineOptions {
  std::uint64_t seed = 1;
  /// Host threads used to step processors; 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Validate model contracts (slot collisions, QSM read/write races).
  bool validate = true;
  /// Measure wall-clock time of the step and merge phases (EngineCounters
  /// step_ns/merge_ns, and per superstep on a captured tape); off by
  /// default to keep tiny supersteps clock-free.
  bool profile = false;
  /// Stats-tape capture (src/replay).  nullptr falls back to
  /// replay::current_tape_recorder() (the thread-local ScopedTapeRecorder);
  /// when that is also null, capture costs one pointer check per
  /// superstep.  Each run() appends one StatsTape.
  replay::TapeRecorder* tape_recorder = nullptr;
  /// Abort (throw) if the program exceeds this many supersteps.
  std::uint64_t max_supersteps = 1u << 20;
};

struct RunResult {
  SimTime total_time = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;  ///< messages (not flits) delivered
  std::uint64_t total_flits = 0;
  std::uint64_t total_reads = 0;
  std::uint64_t total_writes = 0;
};

/// Host-side engine observability, reset by each run().  The *_grows
/// counters expose the double-buffered delivery path: a steady-state
/// workload re-runs with zero grows because every per-processor queue is
/// reused at capacity (no per-superstep allocation or copying).
struct EngineCounters {
  std::uint64_t processor_steps = 0;          ///< step() calls: k per superstep
  std::uint64_t processor_steps_skipped = 0;  ///< processors past the prefix: p - k
  std::uint64_t step_ns = 0;   ///< wall-clock in the step phase (profile only)
  std::uint64_t merge_ns = 0;  ///< wall-clock in the merge phase (profile only)
  std::uint64_t merge_flits = 0;     ///< flits routed by the merge phase
  std::uint64_t merge_requests = 0;  ///< shared-memory requests merged
  std::uint64_t inbox_grows = 0;       ///< inbox queues that had to reallocate
  std::uint64_t read_buffer_grows = 0; ///< read-result buffers that reallocated
  /// Non-empty outboxes out of slot order, which the step phase sorts, and
  /// those already in slot order, which it leaves as they are.
  std::uint64_t outbox_sorts = 0;
  std::uint64_t outbox_sorts_skipped = 0;
  /// Slot checks (validate only) that copied and sorted the intervals
  /// because a read or write list was out of slot order.
  std::uint64_t slot_check_sorts = 0;
};

class Machine {
 public:
  /// The model is borrowed and must outlive the machine.
  Machine(const CostModel& model, MachineOptions options = {});

  [[nodiscard]] std::uint32_t p() const noexcept { return p_; }
  [[nodiscard]] const CostModel& model() const noexcept { return model_; }
  [[nodiscard]] const MachineOptions& options() const noexcept { return options_; }

  /// QSM shared memory.  Programs size it in setup(); addresses must stay
  /// in range or the run throws.
  void resize_shared(std::size_t cells, Word init = 0);
  [[nodiscard]] std::size_t shared_size() const noexcept { return shared_.size(); }
  [[nodiscard]] Word shared_at(Addr addr) const { return shared_.at(addr); }
  void poke_shared(Addr addr, Word value) { shared_.at(addr) = value; }

  /// Runs the program to completion and returns the accumulated result.
  RunResult run(SuperstepProgram& program);

  /// Engine-host observability for the most recent (or in-progress) run.
  [[nodiscard]] const EngineCounters& counters() const noexcept { return counters_; }

  /// The tape the most recent run() appended to, or nullptr when that run
  /// was not captured.  Owned by the recorder the run resolved.
  [[nodiscard]] const replay::StatsTape* tape() const noexcept { return tape_; }

 private:
  /// Per-shard merge accumulator.  Each shard owns a contiguous range of
  /// source processors, destination processors, and shared-memory
  /// addresses; shards never write the same cell, and the caller reduces
  /// them in ascending shard order after the barrier.  Every reduced
  /// quantity is an integer sum/max or a floating max, so the reduction is
  /// bit-identical regardless of the shard count.
  struct alignas(64) MergeShard {
    double max_work = 0.0;
    std::uint64_t max_sent = 0;
    std::uint64_t max_received = 0;
    std::uint64_t total_flits = 0;
    std::uint64_t max_reads = 0;
    std::uint64_t max_writes = 0;
    std::uint64_t total_requests = 0;
    std::uint64_t messages = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t kappa = 0;
    std::uint64_t inbox_grows = 0;
    std::uint64_t read_buffer_grows = 0;
    std::uint64_t outbox_sorts = 0;
    std::uint64_t outbox_sorts_skipped = 0;
    std::uint64_t slot_check_sorts = 0;
    std::size_t inbox_hw = 0;  ///< one past the highest destination filled
    Slot max_slot_end = 0;  ///< exclusive, over this shard's sources
    bool has_race = false;  ///< read+write on one address (validate only)
    Addr race_addr = 0;
    std::vector<std::uint64_t> slot_counts;  ///< this shard's sources' m_t
    std::vector<Addr> touched;     ///< contention cells touched this superstep
    /// Scratch: a destination's inbox capacity before its first append.
    std::vector<std::size_t> caps;
    /// One shared-memory request of this shard's sources, in issue order,
    /// bucketed by the address shard that will tally it.
    struct AddrRef {
      Addr addr;
      bool is_write;
    };
    // Outgoing work bucketed by receiving shard during the collect phase
    // (msg_buckets[d] = this shard's sources' messages whose destination
    // lies in shard d's processor range; addr_buckets[d] = their requests
    // whose address lies in shard d's address range).  The deliver phase
    // drains buckets addressed to it in ascending source-shard order, so
    // each consumer walks exactly its own messages/requests instead of
    // scanning every source context.  Capacity persists across supersteps.
    std::vector<std::vector<const Message*>> msg_buckets;
    std::vector<std::vector<AddrRef>> addr_buckets;
  };

  /// Runs one superstep; true when a stepped processor asked for another.
  bool execute_superstep(SuperstepProgram& program, RunResult& result);
  void merge_collect(std::size_t shard_index, std::size_t shard_count,
                     std::size_t participants);
  void merge_deliver(std::size_t shard_index, std::size_t shard_count);
  /// Throws when two of the processor's flits share a slot.  Expects the
  /// outbox in slot order; true when a read or write list was not, and the
  /// check copied and sorted the intervals.
  bool validate_slots(const ProcContext& ctx) const;
  /// The error unless every destination, and the processor itself if it
  /// read, steps in the next superstep (the first `next_participants`);
  /// empty when they do.  Names the first such message in issue order.
  [[nodiscard]] std::string receiver_error(const ProcContext& ctx,
                                           std::size_t next_participants) const;
  /// A shard's contiguous [begin, end) slice of the processors [0, n).
  [[nodiscard]] static std::pair<std::size_t, std::size_t> proc_range(
      std::size_t shard_index, std::size_t shard_count, std::size_t n) noexcept;
  [[nodiscard]] std::pair<Addr, Addr> addr_range(
      std::size_t shard_index, std::size_t shard_count) const noexcept;

  const CostModel& model_;
  MachineOptions options_;
  std::uint32_t p_;
  util::RngStreams streams_;
  util::ThreadPool pool_;
  std::uint64_t superstep_ = 0;
  replay::StatsTape* tape_ = nullptr;  ///< capture target, resolved per run()
  std::vector<Word> shared_;
  std::vector<ProcContext> contexts_;
  // Persistent double-buffered per-processor delivery queues: contexts read
  // spans over inboxes_/read_results_ while the merge refills the next_*
  // buffers in place (capacity reused), then the pairs are swapped.  Each
  // buffer's high-water mark (swapped with it) is one past the highest
  // queue its last fill may have left non-empty, so a refill empties only
  // [0, mark) instead of all p queues.
  std::vector<std::vector<Message>> inboxes_;
  std::vector<std::vector<Message>> next_inboxes_;
  std::vector<std::vector<Word>> read_results_;
  std::vector<std::vector<Word>> next_read_results_;
  std::size_t inbox_hw_ = 0;
  std::size_t next_inbox_hw_ = 0;
  std::size_t read_hw_ = 0;
  std::size_t next_read_hw_ = 0;
  /// Flits a destination receives this superstep; deliver zeroes each
  /// entry as it reads it, so all are zero between supersteps.
  std::vector<std::uint64_t> recv_flits_;
  std::vector<MergeShard> shards_;
  // Flat epoch-stamped contention tallies, one cell per shared-memory
  // address (replaces a per-superstep hash map).  A cell whose stamp is not
  // the current epoch counts as zero; touched cells are tracked per shard.
  std::vector<std::uint32_t> cont_reads_;
  std::vector<std::uint32_t> cont_writes_;
  std::vector<std::uint64_t> cont_stamp_;
  std::uint64_t cont_epoch_ = 0;
  SuperstepStats stats_;  ///< reused across supersteps (slot_counts capacity)
  EngineCounters counters_;
  // One byte per processor (not vector<bool>: the step phase writes these
  // concurrently, and bit-packing would race on the shared words).  Only
  // the current superstep's prefix is meaningful.
  std::vector<unsigned char> active_;
};

}  // namespace pbw::engine
