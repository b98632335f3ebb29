// The SPMD program interface.
//
// A program is a superstep state machine.  In superstep s the machine
// calls step() once for each processor of the prefix [0, k), where
// k = min(participants(s), p), and runs supersteps until every processor
// it stepped returns false in the same superstep.  A processor outside
// the prefix counts as having returned false: it is not called, draws no
// random numbers and sends, reads and writes nothing.  Per-processor
// state lives in vectors owned by the program, indexed by ctx.id() — this
// keeps p much larger than the host core count cheap (no stacks, no
// fibers).
#pragma once

#include <cstdint>
#include <limits>

#include "engine/proc_context.hpp"

namespace pbw::engine {

class Machine;

class SuperstepProgram {
 public:
  /// participants() value that steps every processor.
  static constexpr std::uint32_t kAllProcessors =
      std::numeric_limits<std::uint32_t>::max();

  virtual ~SuperstepProgram() = default;

  /// Called once before the first superstep (e.g. to size shared memory).
  virtual void setup(Machine& /*machine*/) {}

  /// How many processors step in `superstep`: the prefix [0, k) steps,
  /// k = min(participants(superstep), p); the default steps all p.  It
  /// must depend on the superstep alone.  Name a narrower prefix only
  /// where the processors past it would do nothing and return false.
  /// What a superstep sends or reads is seen in the next superstep, so
  /// every message's destination and every reader must lie inside the
  /// next superstep's prefix; under MachineOptions::validate the machine
  /// throws otherwise.  A processor that steps again after a gap sees an
  /// empty inbox() and reads() unless the superstep before sent to it.
  [[nodiscard]] virtual std::uint32_t participants(std::uint64_t /*superstep*/) const {
    return kAllProcessors;
  }

  /// One processor's actions for the current superstep.  Return true to
  /// request another superstep; the run ends when all stepped processors
  /// return false in the same superstep.
  virtual bool step(ProcContext& ctx) = 0;
};

}  // namespace pbw::engine
