// Stall watchdog: flags long-running tasks on a heartbeat.
//
// The campaign executor publishes, per worker, which job it is running
// and for how long; each check() polls that board and fires a callback
// the first time a task crosses the stall threshold (and once more if the
// same task recovers and stalls again — tracking is per task name per
// episode, so a 10-minute job does not spam stderr every tick).  The
// watchdog has no thread of its own: `pbw-campaign run` calls check() on
// its supervisor's 100 ms tick.  The poll and callback are injected, so
// tests drive check() directly with a fake board.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace pbw::obs {

/// One in-flight task as the watchdog sees it.
struct WatchdogTask {
  std::string name;     ///< task identity (campaign job base key)
  double seconds = 0.0; ///< how long it has been running
};

class Watchdog {
 public:
  using Poll = std::function<std::vector<WatchdogTask>()>;
  using OnStall = std::function<void(const WatchdogTask&)>;

  /// Tasks running longer than `stall_seconds` are stalled.  `poll`
  /// snapshots the in-flight tasks; `on_stall` fires once per stall
  /// episode, from the check() caller.
  Watchdog(double stall_seconds, Poll poll, OnStall on_stall);

  /// One heartbeat: polls the board, fires on_stall for tasks newly over
  /// the threshold, forgets tasks that left the board, and returns every
  /// currently-stalled task.  Not thread-safe: call it from one thread.
  std::vector<WatchdogTask> check();

  /// Stall episodes detected so far (monotone).
  [[nodiscard]] std::uint64_t stalls_detected() const noexcept {
    return stalls_;
  }

 private:
  const double stall_seconds_;
  Poll poll_;
  OnStall on_stall_;
  std::set<std::string> flagged_;  ///< tasks already reported this episode
  std::uint64_t stalls_ = 0;
};

}  // namespace pbw::obs
