// Per-processor, per-superstep view of the machine.
//
// A SuperstepProgram's step() receives one ProcContext per logical
// processor.  All mutation goes into processor-private buffers, so steps
// are safe to execute concurrently; the Machine merges the buffers at the
// superstep barrier and computes the model charge.
//
// Delivery is zero-copy: inbox() and reads() are spans over the machine's
// persistent double-buffered per-processor queues, valid only for the
// duration of the current step() call (the merge refills the other buffer
// and the pair is swapped at the barrier — nothing is copied per
// superstep).  Programs that need the data later must copy it out.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/types.hpp"
#include "util/rng.hpp"

namespace pbw::engine {

class Machine;

class ProcContext {
 public:
  /// This processor's id in [0, p).
  [[nodiscard]] ProcId id() const noexcept { return id_; }
  /// Number of processors.
  [[nodiscard]] std::uint32_t p() const noexcept { return p_; }
  /// Current superstep index, starting at 0.
  [[nodiscard]] std::uint64_t superstep() const noexcept { return superstep_; }

  /// Deterministic per-(seed, proc, superstep) random stream.
  [[nodiscard]] util::Xoshiro256& rng() noexcept { return rng_; }

  /// Adds `amount` units of local work to this processor's w_i.
  void charge(double amount) noexcept { work_ += amount; }

  // ---- message passing (BSP-style) -------------------------------------

  /// Sends `length` flits of payload to dst, starting at injection slot
  /// `slot` (1-based) and occupying `length` consecutive slots.  slot == 0
  /// lets the engine schedule the flits back-to-back after this
  /// processor's previously issued flits (unscheduled sending).
  void send(ProcId dst, Word payload, Slot slot = 0, std::uint32_t length = 1,
            std::uint64_t tag = 0);

  /// Messages delivered at the start of this superstep (sent during the
  /// previous superstep), ordered by (source, slot, issue order).
  [[nodiscard]] std::span<const Message> inbox() const noexcept { return inbox_; }

  // ---- shared memory (QSM-style) ----------------------------------------

  /// Issues a shared-memory read of address `addr` at slot `slot` (same
  /// slot semantics as send).  Its value — the cell content at the *start*
  /// of this superstep — appears in reads() during the next superstep, in
  /// issue order (QSM: values returned by reads are usable only in the
  /// subsequent phase).
  void read(Addr addr, Slot slot = 0);

  /// Issues a shared-memory write of `value` to `addr` at slot `slot`.
  /// Visible from the next superstep.  Concurrent writers to one address
  /// are resolved by the Arbitrary rule (the engine deterministically
  /// picks the highest-ranked writer).
  void write(Addr addr, Word value, Slot slot = 0);

  /// Results of the reads issued in the previous superstep, in issue order.
  [[nodiscard]] std::span<const Word> reads() const noexcept { return read_results_; }

 private:
  friend class Machine;

  struct ReadReq {
    Addr addr;
    Slot slot;
  };
  struct WriteReq {
    Addr addr;
    Word value;
    Slot slot;
  };

  ProcId id_ = 0;
  std::uint32_t p_ = 0;
  std::uint64_t superstep_ = 0;
  double work_ = 0.0;
  Slot next_auto_slot_ = 1;
  util::Xoshiro256 rng_{};
  std::span<const Message> inbox_;
  std::span<const Word> read_results_;
  std::vector<Message> outbox_;
  std::vector<ReadReq> read_reqs_;
  std::vector<WriteReq> write_reqs_;
  // What the step phase did with this superstep's lists, tallied into
  // EngineCounters by the merge.
  bool outbox_sorted_ = false;      ///< the outbox was out of slot order
  bool slot_check_sorted_ = false;  ///< the slot check copied and sorted
};

}  // namespace pbw::engine
