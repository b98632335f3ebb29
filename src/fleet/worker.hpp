// Fleet worker: lease → execute → stream results, forever.
//
// A worker is a loop around the same shard executor the local thread pool
// uses (campaign::execute_shard): poll the coordinator for a lease,
// rebuild the shard's jobs from the wire, run them (one simulation per
// structural group + recosts), and POST the trial rows back.  A
// heartbeat thread renews the lease while the shard runs; if a renewal
// comes back rejected the lease was lost (the worker stalled past the
// deadline and the shard was reassigned), so the worker cancels the
// shard and reports its partial rows under a dead token — the
// coordinator merges them (manifest dedup makes that safe) without
// completing the shard for the new owner.
//
// Workers hold no durable state: SIGKILL at any instant loses at most
// the in-flight shard, which the coordinator re-leases after expiry.
//
// A worker exits when the coordinator reports every submitted campaign
// done (the idle reply's "drain"), when the stop flag fires, or after 30
// consecutive failed lease requests (the coordinator is gone).  It keeps
// a 256 MiB tape cache across shards.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pbw::fleet {

class Worker {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Worker identity shown on the coordinator's /status board.
    /// Empty selects "w-<pid>".
    std::string id;
    /// Idle poll interval.
    double poll_seconds = 0.5;
    /// Cooperative stop (obs::shutdown_flag() for the CLI).
    const std::atomic<bool>* stop = nullptr;
  };

  struct Stats {
    std::size_t shards = 0;  ///< shards completed and acked
    std::size_t rows = 0;    ///< job rows reported (including duplicates)
    std::size_t errors = 0;  ///< shards that failed in execution
    std::size_t stale = 0;   ///< shards lost to lease expiry mid-run
  };

  explicit Worker(Options options);

  /// Runs the lease loop until drain, stop, or coordinator loss.
  /// Blocking; run it on a thread for in-process fleets.
  Stats run();

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  Options options_;
  std::string id_;
};

}  // namespace pbw::fleet
