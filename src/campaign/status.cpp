#include "campaign/status.hpp"

#include "obs/telemetry/http_server.hpp"
#include "obs/telemetry/span.hpp"

namespace pbw::campaign {

CampaignStatus::CampaignStatus()
    : epoch_(std::chrono::steady_clock::now()) {}

double CampaignStatus::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void CampaignStatus::begin(std::size_t total, std::size_t skipped,
                           std::size_t workers) {
  std::lock_guard lock(mutex_);
  state_ = "running";
  total_ = total;
  skipped_ = skipped;
  done_ = simulated_ = recosted_ = failed_ = 0;
  cache_hits_ = cache_misses_ = cache_evictions_ = 0;
  cache_bytes_ = 0;
  workers_.assign(workers, WorkerSlot{});
  scenarios_.clear();
  stalled_.clear();
  rate_ = obs::RateEstimator();
  rate_.observe(now_seconds(), 0);
}

void CampaignStatus::finish(bool interrupted) {
  std::lock_guard lock(mutex_);
  state_ = interrupted ? "interrupted" : "done";
  for (auto& slot : workers_) slot = WorkerSlot{};
}

void CampaignStatus::worker_begin(std::size_t worker,
                                  const std::string& job_key) {
  std::lock_guard lock(mutex_);
  if (worker >= workers_.size()) workers_.resize(worker + 1);
  workers_[worker] = WorkerSlot{true, job_key, now_seconds()};
}

void CampaignStatus::worker_end(std::size_t worker) {
  std::lock_guard lock(mutex_);
  if (worker < workers_.size()) workers_[worker] = WorkerSlot{};
}

void CampaignStatus::job_done(const std::string& scenario, double seconds,
                              bool recosted) {
  std::lock_guard lock(mutex_);
  ++done_;
  (recosted ? recosted_ : simulated_) += 1;
  auto& s = scenarios_[scenario];
  ++s.done;
  s.seconds += seconds;
  rate_.observe(now_seconds(), done_);
}

void CampaignStatus::job_failed() {
  std::lock_guard lock(mutex_);
  ++failed_;
}

void CampaignStatus::set_tape_cache(std::uint64_t hits, std::uint64_t misses,
                                    std::uint64_t evictions,
                                    std::uint64_t rejected,
                                    std::size_t bytes) {
  std::lock_guard lock(mutex_);
  cache_hits_ = hits;
  cache_misses_ = misses;
  cache_evictions_ = evictions;
  cache_rejected_ = rejected;
  cache_bytes_ = bytes;
}

void CampaignStatus::set_batch_kernel(const std::string& simd,
                                      std::size_t threads) {
  std::lock_guard lock(mutex_);
  batch_simd_ = simd;
  batch_threads_ = threads;
}

std::vector<obs::WatchdogTask> CampaignStatus::in_flight() const {
  std::lock_guard lock(mutex_);
  const double now = now_seconds();
  std::vector<obs::WatchdogTask> tasks;
  for (const auto& slot : workers_) {
    if (!slot.active) continue;
    tasks.push_back(obs::WatchdogTask{slot.job, now - slot.start_seconds});
  }
  return tasks;
}

void CampaignStatus::mark_stalled(const std::string& job_key) {
  std::lock_guard lock(mutex_);
  stalled_.insert(job_key);
}

util::Json CampaignStatus::to_json() const {
  std::lock_guard lock(mutex_);
  const double now = now_seconds();

  util::Json j = util::Json::object();
  j["state"] = state_;
  j["elapsed_seconds"] = now;

  util::Json jobs = util::Json::object();
  jobs["total"] = total_;
  jobs["skipped"] = skipped_;
  jobs["done"] = done_;
  jobs["simulated"] = simulated_;
  jobs["recosted"] = recosted_;
  jobs["failed"] = failed_;
  const std::uint64_t finished = done_ + failed_;
  const std::uint64_t runnable =
      total_ > skipped_ ? static_cast<std::uint64_t>(total_ - skipped_) : 0;
  const std::uint64_t remaining = runnable > finished ? runnable - finished : 0;
  jobs["remaining"] = remaining;
  j["jobs"] = std::move(jobs);

  util::Json cache = util::Json::object();
  cache["hits"] = cache_hits_;
  cache["misses"] = cache_misses_;
  cache["evictions"] = cache_evictions_;
  cache["rejected"] = cache_rejected_;
  cache["bytes"] = cache_bytes_;
  const std::uint64_t lookups = cache_hits_ + cache_misses_;
  cache["hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache_hits_) /
                         static_cast<double>(lookups);
  j["tape_cache"] = std::move(cache);

  util::Json kernel = util::Json::object();
  kernel["simd"] = batch_simd_;
  kernel["threads"] = batch_threads_;
  j["batch_kernel"] = std::move(kernel);

  util::Json scenarios = util::Json::object();
  for (const auto& [name, s] : scenarios_) {
    util::Json entry = util::Json::object();
    entry["done"] = s.done;
    entry["seconds"] = s.seconds;
    entry["jobs_per_second"] =
        s.seconds > 0.0 ? static_cast<double>(s.done) / s.seconds : 0.0;
    scenarios[name] = std::move(entry);
  }
  j["scenarios"] = std::move(scenarios);

  j["rate_jobs_per_second"] = rate_.rate();
  j["eta_seconds"] = rate_.eta_seconds(remaining);

  util::Json workers = util::Json::array();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerSlot& slot = workers_[w];
    util::Json entry = util::Json::object();
    entry["worker"] = w;
    entry["job"] = slot.active ? slot.job : "";
    entry["seconds"] = slot.active ? now - slot.start_seconds : 0.0;
    entry["stalled"] = util::Json(slot.active && stalled_.count(slot.job) != 0);
    workers.push_back(std::move(entry));
  }
  j["workers"] = std::move(workers);

  util::Json stalled = util::Json::array();
  for (const auto& job : stalled_) stalled.push_back(util::Json(job));
  j["stalled"] = std::move(stalled);

  // The span profiler's loss ledger: non-zero means the event buffer
  // overflowed and any exported flamegraph is missing that many slices.
  j["span_events_dropped"] = obs::SpanRegistry::global().dropped();
  // Connections the telemetry server closed without an answer.
  j["http_dropped"] = obs::HttpServer::dropped();

  return j;
}

}  // namespace pbw::campaign
