// A small persistent thread pool with a blocking parallel_for.
//
// Lives in util (the base layer) so both the engine — which steps its p
// logical processors with a pool — and replay::recost_batch — which tiles
// charge blocks across one — can share the implementation without a
// dependency cycle.
//
// On a single-core host the pool degenerates to inline execution with no
// loss of determinism (parallel phases never share mutable state — all
// communication is mediated by per-task buffers merged afterwards).
//
// Exception contract: the first exception thrown by any worker (or by the
// calling thread's own chunk) is captured and rethrown on the calling
// thread after every worker has reached the barrier.  Remaining iterations
// are abandoned on a best-effort basis once an exception is pending, so a
// SimulationError raised inside a parallel phase aborts the dispatch
// quickly instead of calling std::terminate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pbw::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs fn(i) for i in [0, n), partitioned into contiguous chunks across
  /// the pool plus the calling thread.  Blocks until all iterations finish.
  /// If any iteration throws, the first captured exception is rethrown here
  /// (after the barrier) and the remaining iterations may be skipped.
  /// Callers on several threads may share one pool: their dispatches run
  /// one after another.  fn must not recursively call parallel_for on the
  /// same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t worker_index);
  /// Runs fn over [job.begin, job.end), capturing the first exception.
  void run_job(const Job& job, const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  /// Held for a whole multi-threaded dispatch: fn_, jobs_ and pending_
  /// describe one call at a time.
  std::mutex dispatch_mutex_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<Job> jobs_;
  std::size_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  /// First exception thrown by any chunk of the current dispatch (guarded
  /// by mutex_); error_pending_ lets other chunks bail out early.
  std::exception_ptr first_error_;
  std::atomic<bool> error_pending_{false};
};

}  // namespace pbw::util
