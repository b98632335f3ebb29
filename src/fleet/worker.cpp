#include "fleet/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/scenario.hpp"
#include "campaign/sweep.hpp"
#include "fleet/http_client.hpp"
#include "fleet/wire.hpp"
#include "obs/telemetry/context.hpp"
#include "obs/telemetry/span.hpp"
#include "replay/cache.hpp"
#include "util/json.hpp"
#include "util/notification.hpp"
#include "util/thread_pool.hpp"

namespace pbw::fleet {

namespace {

/// Consecutive failed lease requests after which the coordinator is taken
/// to be gone.
constexpr std::size_t kMaxTransportFailures = 30;

/// The cross-shard tape cache's byte cap.
constexpr std::size_t kTapeCacheBytes = std::size_t{256} << 20;

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// POST with a few retries: a lost result batch costs a whole lease
/// timeout (the shard must expire and re-run), so transient transport
/// blips are worth absorbing here.
HttpResult post_with_retries(const Worker::Options& options,
                             const std::string& path, const std::string& body) {
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    HttpResult res = http_post(options.host, options.port, path, body);
    if (res.ok || attempt == kAttempts) return res;
    sleep_seconds(0.2 * attempt);
  }
}

}  // namespace

Worker::Worker(Options options) : options_(std::move(options)) {
  id_ = options_.id.empty() ? "w-" + std::to_string(::getpid()) : options_.id;
}

Worker::Stats Worker::run() {
  Stats stats;
  replay::TapeCache cache(kTapeCacheBytes);
  // A worker executes its shard's jobs serially, so its host cores are
  // idle during a replay batch — lend them to recost_batch.  Rows stay
  // bit-identical at any thread count, and a single-core host just skips
  // the lend (the pool would be inline anyway).
  util::ThreadPool batch_pool;
  util::ThreadPool* batch_pool_ptr = batch_pool.size() > 1 ? &batch_pool : nullptr;

  util::Json lease_request = util::Json::object();
  lease_request["worker"] = id_;
  const std::string lease_body = lease_request.dump();

  std::size_t transport_failures = 0;

  while (options_.stop == nullptr || !options_.stop->load()) {
    // Bracket the lease round-trip on our span clock: the grant carries
    // the coordinator's clock (coord_ns) sampled somewhere inside this
    // window, so its offset from the window's midpoint aligns our span
    // timestamps onto the coordinator's axis to within half an RTT.
    const std::uint64_t lease_t0 = obs::SpanRegistry::now_ns();
    const HttpResult res =
        http_post(options_.host, options_.port, "/lease", lease_body);
    const std::uint64_t lease_t1 = obs::SpanRegistry::now_ns();
    if (!res.ok || res.status != 200) {
      if (++transport_failures >= kMaxTransportFailures) break;
      sleep_seconds(options_.poll_seconds);
      continue;
    }
    transport_failures = 0;

    util::Json grant;
    try {
      grant = util::Json::parse(res.body);
    } catch (const util::JsonError&) {
      sleep_seconds(options_.poll_seconds);
      continue;
    }

    if (grant.get("idle") != nullptr) {
      const util::Json* drain = grant.get("drain");
      if (drain != nullptr && drain->as_bool()) break;
      sleep_seconds(options_.poll_seconds);
      continue;
    }

    // ---- decode the grant -------------------------------------------------
    // A grant that does not decode is left to expire.
    std::string job_id;
    std::uint64_t shard = 0;
    std::uint64_t token = 0;
    double lease_seconds = 0.0;
    obs::TraceContext shard_trace;
    std::int64_t clock_offset_ns = 0;
    const util::Json* jobs_json = nullptr;
    try {
      job_id = require(grant, "job").as_string();
      shard = require(grant, "shard").as_u64();
      token = require(grant, "lease").as_u64();
      lease_seconds = require(grant, "lease_seconds").as_double();
      // The shard runs under a child of the campaign trace, and its span
      // clock aligns against coord_ns.
      shard_trace =
          obs::TraceContext::parse(require(grant, "trace").as_string());
      const std::uint64_t coord_ns =
          u64_from_string(require(grant, "coord_ns").as_string(), "coord_ns");
      const std::uint64_t midpoint = lease_t0 + (lease_t1 - lease_t0) / 2;
      clock_offset_ns = static_cast<std::int64_t>(coord_ns) -
                        static_cast<std::int64_t>(midpoint);
      jobs_json = &require(grant, "jobs");
    } catch (const std::exception&) {
      sleep_seconds(options_.poll_seconds);
      continue;
    }

    campaign::ShardOptions shard_options;
    shard_options.cache = &cache;
    shard_options.batch_pool = batch_pool_ptr;

    util::Json report = util::Json::object();
    report["worker"] = id_;
    report["shard"] = shard;

    std::vector<campaign::Job> jobs;
    try {
      jobs.reserve(jobs_json->size());
      for (std::size_t i = 0; i < jobs_json->size(); ++i) {
        jobs.push_back(
            job_from_json(jobs_json->at(i), campaign::Registry::instance()));
      }
    } catch (const std::exception& e) {
      // Version skew (unknown scenario / malformed job): fail the shard
      // loudly so the coordinator counts the attempt instead of the shard
      // bouncing between silent workers forever.
      report["lease"] = token;
      report["error"] = std::string("wire decode: ") + e.what();
      post_with_retries(options_, "/results/" + job_id, report.dump());
      ++stats.errors;
      continue;
    }

    // ---- execute under a heartbeat ----------------------------------------
    std::atomic<bool> cancel{false};
    std::atomic<bool> lease_lost{false};
    util::Notification shard_finished;
    std::thread heartbeat([&] {
      util::Json renew = util::Json::object();
      renew["worker"] = id_;
      renew["job"] = job_id;
      renew["shard"] = shard;
      renew["lease"] = token;
      const std::string renew_body = renew.dump();
      using Clock = std::chrono::steady_clock;
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(std::max(0.2, lease_seconds / 3.0)));
      // Wakes at the renewal deadline, and every 50 ms to poll the stop
      // flag (a signal handler sets it and cannot notify); the end of the
      // shard wakes it at once.
      constexpr auto kStopCheck = std::chrono::milliseconds(50);
      auto renew_at = Clock::now() + interval;
      while (!shard_finished.wait_until(
          std::min(renew_at, Clock::now() + kStopCheck))) {
        if (options_.stop != nullptr && options_.stop->load()) {
          cancel.store(true, std::memory_order_release);
        }
        if (Clock::now() < renew_at) continue;
        renew_at = Clock::now() + interval;
        const HttpResult r = http_post(options_.host, options_.port, "/renew",
                                       renew_body, 5.0);
        if (!r.ok || r.status != 200) continue;  // expiry handles real loss
        try {
          const util::Json doc = util::Json::parse(r.body);
          const util::Json* ok = doc.get("ok");
          if (ok != nullptr && !ok->as_bool()) {
            // The shard has a new owner; stop burning cycles on it.
            lease_lost.store(true, std::memory_order_release);
            cancel.store(true, std::memory_order_release);
          }
        } catch (const util::JsonError&) {
        }
      }
    });

    util::Json rows = util::Json::array();
    campaign::ShardCallbacks callbacks;
    callbacks.done = [&](const campaign::Job& job,
                         const std::vector<campaign::MetricRow>& trials, bool,
                         double) {
      util::Json entry = util::Json::object();
      entry["job"] = job_to_json(job);
      entry["trials"] = rows_to_json(trials);
      rows.push_back(std::move(entry));
    };
    shard_options.stop = &cancel;

    std::vector<const campaign::Job*> ptrs;
    ptrs.reserve(jobs.size());
    for (const campaign::Job& job : jobs) ptrs.push_back(&job);

    bool failed = false;
    bool completed = false;
    // The collector diverts this thread's span events from the process
    // buffer into a private batch we ship with the results — crucially NOT
    // a tee, so an in-process worker (tests) can't double-count its spans
    // in the coordinator's merged trace.  The shard runs under the
    // grant's context: every span is stamped with the campaign trace.
    obs::ScopedSpanCollector collector;
    try {
      obs::ScopedContext trace_scope(shard_trace);
      PBW_SPAN("fleet.shard");
      const campaign::ShardStats shard_stats =
          campaign::execute_shard(ptrs, shard_options, callbacks);
      completed = !shard_stats.stopped;
    } catch (const campaign::ShardError& e) {
      failed = true;
      report["error"] = e.job_key() + ": " + e.what();
    } catch (const std::exception& e) {
      failed = true;
      report["error"] = e.what();
    }
    std::vector<obs::SpanEvent> shard_spans = collector.take();
    shard_finished.notify();
    heartbeat.join();

    if (failed) {
      report["lease"] = token;
      post_with_retries(options_, "/results/" + job_id, report.dump());
      ++stats.errors;
      continue;
    }

    // A completed shard acks with its token; a cancelled one reports its
    // partial rows under token 0 (never granted, so never acked) — the
    // coordinator merges what finished without marking the shard done.
    report["lease"] = completed ? token : std::uint64_t{0};
    report["rows"] = std::move(rows);
    // Telemetry sidecar: only under a valid trace.  Results stay
    // bit-identical either way — spans never touch the rows.
    if (shard_trace.valid() && !shard_spans.empty()) {
      report["spans"] = span_events_to_json(shard_spans);
      report["clock_offset_ns"] = std::to_string(clock_offset_ns);
    }
    stats.rows += report.get("rows")->size();
    post_with_retries(options_, "/results/" + job_id, report.dump());
    if (completed) {
      ++stats.shards;
    } else if (lease_lost.load()) {
      ++stats.stale;
    }
    if (!completed && !lease_lost.load()) break;  // stop flag fired
  }
  return stats;
}

}  // namespace pbw::fleet
