// Tape capture: how a StatsTape gets recorded.
//
// The tape is the one record a Machine::run() leaves: every trace is
// derived from it afterwards (trace_run, replay/tape.hpp), and the
// campaign writes those to its trace files (campaign/trace_files.hpp).
// The engine resolves a recorder per run — an explicit MachineOptions
// recorder wins, else the thread-local one a ScopedTapeRecorder installs —
// and appends one tape per run.  With no recorder resolved, capture costs one
// null-pointer check per run plus one per superstep.  Subsystems that
// charge costs without a Machine (e.g. the slot-schedule evaluator behind
// sched.penalty) may call begin_tape() themselves and fill the tape with
// synthetic stats; such a tape has no model, so no trace shows it.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>

#include "replay/tape.hpp"

namespace pbw::replay {

/// The tapes of one capture, in run order.  A deque so that references
/// returned by begin_tape() stay valid while later runs append (the engine
/// holds the reference for the duration of its run).
using TapeList = std::deque<StatsTape>;

/// Collects one StatsTape per captured run, in run order.  begin_tape()
/// and take() are thread-safe; filling a begun tape and reading tapes()
/// are not, so scope one recorder per logical job (the campaign executor
/// installs one per trial on the worker thread).
class TapeRecorder {
 public:
  /// Starts a new tape; the returned reference stays valid for the
  /// recorder's lifetime.
  StatsTape& begin_tape(std::uint32_t p, std::uint64_t seed);

  [[nodiscard]] TapeList& tapes() noexcept { return tapes_; }
  [[nodiscard]] const TapeList& tapes() const noexcept { return tapes_; }

  /// Moves the captured tapes out, leaving the recorder empty.
  [[nodiscard]] TapeList take();

 private:
  std::mutex mutex_;
  TapeList tapes_;
};

/// The recorder the engine resolves when MachineOptions carries none: the
/// one the innermost live ScopedTapeRecorder on this thread installed,
/// else nullptr.
[[nodiscard]] TapeRecorder* current_tape_recorder() noexcept;

/// Scopes a thread-local recorder (nullptr suppresses capture on this
/// thread).  Used by the campaign executor so each job's tapes stay
/// separate even though jobs share worker threads.
class ScopedTapeRecorder {
 public:
  explicit ScopedTapeRecorder(TapeRecorder* recorder) noexcept;
  ~ScopedTapeRecorder();
  ScopedTapeRecorder(const ScopedTapeRecorder&) = delete;
  ScopedTapeRecorder& operator=(const ScopedTapeRecorder&) = delete;

 private:
  TapeRecorder* previous_;
};

}  // namespace pbw::replay
