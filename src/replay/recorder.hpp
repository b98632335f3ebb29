// Tape capture: how a StatsTape gets recorded, and the --trace file.
//
// The tape is the one record a Machine::run() leaves: every trace is
// derived from it afterwards (trace_run, replay/tape.hpp).  The engine
// resolves a recorder per run — an explicit MachineOptions recorder wins,
// else the thread-local one a ScopedTapeRecorder installs — and appends
// one tape per run.  With no recorder resolved, capture costs one
// null-pointer check per run plus one per superstep.  Subsystems that
// charge costs without a Machine (e.g. the slot-schedule evaluator behind
// sched.penalty) may call begin_tape() themselves and fill the tape with
// synthetic stats; such a tape has no model, so no trace shows it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

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

/// Installs the file behind `pbw-campaign --trace`: the runs added to it
/// are written to `path` when the process exits (or on an explicit
/// flush_file_trace()), each as trace_run(tape, *tape.model) with ids in
/// file order.  `format` is "jsonl" (default), "chrome", or "both" (JSONL
/// at `path` plus Chrome trace at `path + ".chrome.json"`); any other
/// format exits 2.
void install_file_trace(std::string path, std::string format = "jsonl");

/// True once install_file_trace() has run.
[[nodiscard]] bool file_trace_installed() noexcept;

/// Adds one job's runs (tapes carrying their models) to the --trace file
/// under `order`.  The file lists jobs by order and each job's runs as
/// given, so it does not depend on the order jobs finish in.  Thread-safe.
void add_file_trace(std::size_t order, std::vector<StatsTape> runs);

/// Writes the runs added so far (once; also runs at exit).
void flush_file_trace();

}  // namespace pbw::replay
