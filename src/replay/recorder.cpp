#include "replay/recorder.hpp"

#include <utility>

namespace pbw::replay {

namespace {

// The recorder the innermost live ScopedTapeRecorder installed.
thread_local TapeRecorder* tl_recorder = nullptr;

}  // namespace

StatsTape& TapeRecorder::begin_tape(std::uint32_t p, std::uint64_t seed) {
  std::lock_guard lock(mutex_);
  StatsTape& tape = tapes_.emplace_back();
  tape.p = p;
  tape.seed = seed;
  return tape;
}

TapeList TapeRecorder::take() {
  std::lock_guard lock(mutex_);
  return std::move(tapes_);
}

TapeRecorder* current_tape_recorder() noexcept { return tl_recorder; }

ScopedTapeRecorder::ScopedTapeRecorder(TapeRecorder* recorder) noexcept
    : previous_(tl_recorder) {
  tl_recorder = recorder;
}

ScopedTapeRecorder::~ScopedTapeRecorder() { tl_recorder = previous_; }

}  // namespace pbw::replay
