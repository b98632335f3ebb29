#include "obs/telemetry/watchdog.hpp"

#include <iterator>
#include <utility>

namespace pbw::obs {

Watchdog::Watchdog(double stall_seconds, Poll poll, OnStall on_stall)
    : stall_seconds_(stall_seconds),
      poll_(std::move(poll)),
      on_stall_(std::move(on_stall)) {}

std::vector<WatchdogTask> Watchdog::check() {
  const std::vector<WatchdogTask> tasks = poll_ ? poll_() : std::vector<WatchdogTask>{};
  std::vector<WatchdogTask> stalled;
  std::set<std::string> seen;
  for (const auto& task : tasks) {
    if (task.seconds < stall_seconds_) continue;
    stalled.push_back(task);
    seen.insert(task.name);
    if (flagged_.insert(task.name).second) {
      ++stalls_;
      if (on_stall_) on_stall_(task);
    }
  }
  // A task that finished (or dipped back under the threshold after the
  // board restarted it) starts a fresh episode next time it stalls.
  for (auto it = flagged_.begin(); it != flagged_.end();) {
    it = seen.count(*it) ? std::next(it) : flagged_.erase(it);
  }
  return stalled;
}

}  // namespace pbw::obs
