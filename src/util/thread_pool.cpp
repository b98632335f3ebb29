#include "util/thread_pool.hpp"

#include <algorithm>

namespace pbw::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  // The calling thread participates, so spawn threads-1 workers.
  const std::size_t workers = threads - 1;
  jobs_.resize(workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_job(const Job& job,
                         const std::function<void(std::size_t)>& fn) {
  try {
    for (std::size_t i = job.begin; i < job.end; ++i) {
      if (error_pending_.load(std::memory_order_relaxed)) return;
      fn(i);
    }
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
    error_pending_.store(true, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t parts = size();
  if (parts == 1 || n == 1) {
    // Inline execution: exceptions propagate naturally.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::lock_guard dispatch(dispatch_mutex_);
  const std::size_t chunk = (n + parts - 1) / parts;
  Job own{0, std::min(chunk, n)};
  {
    std::lock_guard lock(mutex_);
    fn_ = &fn;
    pending_ = 0;
    first_error_ = nullptr;
    error_pending_.store(false, std::memory_order_relaxed);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const std::size_t begin = std::min((w + 1) * chunk, n);
      const std::size_t end = std::min((w + 2) * chunk, n);
      jobs_[w] = Job{begin, end};
      if (begin < end) ++pending_;
    }
    ++generation_;
  }
  start_cv_.notify_all();
  run_job(own, fn);
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = std::move(first_error_);
    first_error_ = nullptr;
    error_pending_.store(false, std::memory_order_relaxed);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_generation = 0;
  for (;;) {
    Job job;
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = jobs_[worker_index];
      fn = fn_;
    }
    if (job.begin < job.end && fn != nullptr) {
      run_job(job, *fn);
      std::lock_guard lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace pbw::util
