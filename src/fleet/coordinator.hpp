// Fleet coordinator: campaign-as-a-service over the embedded HTTP server.
//
// Clients POST sweep specs to /submit; the coordinator expands them with
// the same parser/expander the local CLI uses, shards the grid into
// structural groups (campaign::group_jobs with replay on — the unit one
// simulation can serve), and hands shards to workers through a lease
// table (fleet/lease.hpp).  Workers stream trial rows back to
// /results/<id>; each POST's rows merge in one commit through the
// campaign's git-keyed resume manifest (Recorder::commit, dropping
// recorded keys), so a crashed-and-reassigned lease delivering twice
// records once, and a coordinator restarted over the same out directory
// resumes instead of recomputing.  A shard that fails three times fails
// for good.  Submitting a spec is idempotent: the job id is a hash of the
// spec text and the code version, so a client retrying a submit joins the
// existing campaign.
//
// Protocol (docs/FLEET.md):
//   POST /submit        spec text                       -> {"job": id, ...}
//   POST /lease         {"worker": id}                  -> shard or idle
//   POST /renew         {"worker","job","shard","lease"} -> {"ok": bool}
//   POST /results/<id>  {"worker","shard","lease","rows":[...]}
//   GET  /jobs/<id>     one campaign's progress document
//   GET  /results/<id>  the merged JSON Lines artifact
//   GET  /status        fleet-wide progress (workers, leases, rows/s, ETA)
//   GET  /metrics       Prometheus text (fleet gauges + process counters)
//   GET  /healthz       "ok"
//   POST /plan          bandwidth-planner query (planner/service.hpp,
//                       docs/PLANNER.md) — answered inline, not sharded

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/recorder.hpp"
#include "campaign/sweep.hpp"
#include "fleet/lease.hpp"
#include "obs/telemetry/context.hpp"
#include "obs/telemetry/http_server.hpp"
#include "obs/telemetry/rate.hpp"
#include "obs/telemetry/span.hpp"
#include "planner/service.hpp"
#include "util/json.hpp"

namespace pbw::fleet {

class Coordinator {
 public:
  struct Options {
    std::uint16_t port = 0;          ///< 0 picks an ephemeral port
    std::string bind = "127.0.0.1";  ///< pass 0.0.0.0 for a real fleet
    std::string out_dir = ".";       ///< <out_dir>/<job_id>.jsonl + .manifest
    double lease_seconds = 30.0;     ///< unrenewed leases are reassigned
    std::string access_log;          ///< JSONL access log path ("" = off)
  };

  explicit Coordinator(Options options);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds and starts serving.  Throws std::runtime_error on bind failure.
  void start();
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

  // ---- in-process API (the HTTP handlers call these too) -------------------

  /// Expands and registers a sweep; returns the job id.  Idempotent for
  /// identical spec text.  Throws std::invalid_argument on a bad spec.
  std::string submit(const std::string& spec_text);

  /// One campaign's progress document, or JSON null for an unknown id.
  [[nodiscard]] util::Json job_status(const std::string& id) const;

  /// True once every shard of `id` is done or terminally failed.
  [[nodiscard]] bool finished(const std::string& id) const;

  /// The campaign's JSONL artifact path ("" for an unknown id).
  [[nodiscard]] std::string results_path(const std::string& id) const;

  /// The fleet-wide /status document.
  [[nodiscard]] util::Json status() const;

  /// Monotone seconds since construction (lease clock origin).
  [[nodiscard]] double now_seconds() const;

 private:
  /// One worker's shipped span events for this campaign, clock-aligned by
  /// the offset it measured over its lease round-trip.
  struct WorkerSpanBatch {
    std::string worker;
    std::int64_t clock_offset_ns = 0;
    std::vector<obs::SpanEvent> events;
  };

  struct CampaignState {
    std::string id;
    std::vector<campaign::Job> jobs;
    /// Shards as index lists into `jobs` (stable storage).
    std::vector<std::vector<std::size_t>> shards;
    std::unique_ptr<LeaseTable> leases;
    std::unique_ptr<campaign::Recorder> recorder;
    std::size_t resumed = 0;  ///< jobs already in the manifest at submit
    std::uint64_t merged_rows = 0;
    std::uint64_t duplicate_rows = 0;
    std::vector<std::string> errors;
    /// Campaign root trace: every grant hands out a child, every shipped
    /// span and coordinator-side span joins it, GET /trace/<id> merges it.
    obs::TraceContext trace;
    std::vector<WorkerSpanBatch> worker_spans;
    std::size_t worker_span_events = 0;  ///< total stored, for the cap
  };

  struct WorkerInfo {
    double last_seen = 0.0;
    /// Last heartbeat (/renew or a fresh grant), -1 before any: /status
    /// separates a stalled-but-leased worker from an active one.
    double last_renew = -1.0;
    std::uint64_t rows = 0;
    std::uint64_t shards_done = 0;
    obs::RateEstimator rate{30.0};
  };

  // HTTP handlers.
  obs::HttpResponse handle_submit(const obs::HttpRequest& request);
  obs::HttpResponse handle_lease(const obs::HttpRequest& request);
  obs::HttpResponse handle_renew(const obs::HttpRequest& request);
  obs::HttpResponse handle_results(const obs::HttpRequest& request);
  obs::HttpResponse handle_job_get(const obs::HttpRequest& request);
  obs::HttpResponse handle_results_get(const obs::HttpRequest& request);
  obs::HttpResponse handle_trace_get(const obs::HttpRequest& request);
  obs::HttpResponse handle_status() const;
  obs::HttpResponse handle_metrics();

  /// Reclaims expired leases across all campaigns.  Caller holds mutex_.
  void expire_leases_locked(double now);
  util::Json campaign_json_locked(const CampaignState& c) const;
  WorkerInfo& touch_worker_locked(const std::string& id, double now);

  Options options_;
  obs::HttpServer server_;
  /// POST /plan — the bandwidth planner served off the same control plane.
  planner::PlanService planner_;
  mutable std::mutex mutex_;
  /// Submission order preserved: leases hand out older campaigns first.
  std::vector<std::unique_ptr<CampaignState>> campaigns_;
  std::map<std::string, CampaignState*> by_id_;
  std::map<std::string, WorkerInfo> workers_;
  obs::RateEstimator row_rate_{30.0};
  std::uint64_t total_merged_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace pbw::fleet
