#include "fleet/coordinator.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fleet/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "util/fnv1a.hpp"

namespace pbw::fleet {

namespace {

obs::HttpResponse json_response(const util::Json& body, int status = 200) {
  obs::HttpResponse r;
  r.status = status;
  r.content_type = "application/json";
  r.body = body.dump() + "\n";
  return r;
}

obs::HttpResponse error_response(int status, const std::string& message) {
  util::Json doc = util::Json::object();
  doc["error"] = message;
  return json_response(doc, status);
}

/// "/results/<id>" -> "<id>" ("" when nothing follows the prefix).
std::string path_suffix(const std::string& path, const std::string& prefix) {
  if (path.size() <= prefix.size()) return "";
  return path.substr(prefix.size());
}

const std::string* get_string(const util::Json& doc, const char* key) {
  const util::Json* v = doc.get(key);
  if (v == nullptr || !v->is_string()) return nullptr;
  return &v->as_string();
}

/// Reads an integer field; false when it is absent.  A value that is not
/// an integer in [0, 2^64) throws util::JsonError (a 400).
bool get_index(const util::Json& doc, const char* key, std::uint64_t& out) {
  const util::Json* v = doc.get(key);
  if (v == nullptr) return false;
  out = v->as_u64();
  return true;
}

/// Shard errors before the shard fails for good.
constexpr std::size_t kMaxAttempts = 3;

}  // namespace

Coordinator::Coordinator(Options options)
    : options_(std::move(options)), epoch_(std::chrono::steady_clock::now()) {
  server_.route("POST", "/submit",
                [this](const obs::HttpRequest& r) { return handle_submit(r); });
  server_.route("POST", "/lease",
                [this](const obs::HttpRequest& r) { return handle_lease(r); });
  server_.route("POST", "/renew",
                [this](const obs::HttpRequest& r) { return handle_renew(r); });
  server_.route("POST", "/results/*",
                [this](const obs::HttpRequest& r) { return handle_results(r); });
  server_.route("GET", "/results/*", [this](const obs::HttpRequest& r) {
    return handle_results_get(r);
  });
  server_.route("GET", "/jobs/*",
                [this](const obs::HttpRequest& r) { return handle_job_get(r); });
  server_.route("GET", "/trace/*", [this](const obs::HttpRequest& r) {
    return handle_trace_get(r);
  });
  server_.route("GET", "/status",
                [this](const obs::HttpRequest&) { return handle_status(); });
  server_.route("GET", "/metrics",
                [this](const obs::HttpRequest&) { return handle_metrics(); });
  server_.route("GET", "/healthz", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  // The coordinator doubles as the planning endpoint (docs/PLANNER.md):
  // a what-if query is a recost, not a campaign, so it answers inline.
  planner_.mount(server_);
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  if (!options_.access_log.empty()) server_.set_access_log(options_.access_log);
  server_.start(options_.port, options_.bind);
}

void Coordinator::stop() { server_.stop(); }

double Coordinator::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::string Coordinator::submit(const std::string& spec_text) {
  // The id hashes the spec text *and* the code version: a resubmitted spec
  // joins its existing campaign, while a new binary gets a fresh one (its
  // manifest keys would not collide anyway — git= differs).
  char buf[32];
  std::snprintf(buf, sizeof buf, "j%016llx",
                static_cast<unsigned long long>(util::fnv1a64(
                    spec_text + "|git=" + campaign::git_version())));
  const std::string id(buf);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (by_id_.count(id) != 0) return id;
  }

  // Expand outside the lock: parse errors throw std::invalid_argument and
  // grids can be large.
  auto state = std::make_unique<CampaignState>();
  state->id = id;
  // The campaign's root trace is minted here: the submit work below, every
  // lease/merge on this campaign, and every worker's shipped shard spans
  // all join it, so GET /trace/<id> can reassemble one flamegraph.
  state->trace = obs::TraceContext::make_root();
  obs::ScopedContext trace_scope(state->trace);
  PBW_SPAN("fleet.submit");
  state->jobs =
      campaign::expand_all(campaign::parse_spec(spec_text),
                           campaign::Registry::instance());
  if (state->jobs.empty()) {
    throw std::invalid_argument("fleet: spec expands to zero jobs");
  }

  std::vector<const campaign::Job*> ptrs;
  ptrs.reserve(state->jobs.size());
  for (const campaign::Job& job : state->jobs) ptrs.push_back(&job);
  const auto groups = campaign::group_jobs(ptrs, /*replay=*/true);
  state->shards.reserve(groups.size());
  const campaign::Job* base = state->jobs.data();
  for (const auto& group : groups) {
    std::vector<std::size_t> shard;
    shard.reserve(group.size());
    for (const campaign::Job* job : group) {
      shard.push_back(static_cast<std::size_t>(job - base));
    }
    state->shards.push_back(std::move(shard));
  }

  state->recorder = std::make_unique<campaign::Recorder>(options_.out_dir +
                                                         "/" + id + ".jsonl");
  state->leases =
      std::make_unique<LeaseTable>(state->shards.size(), options_.lease_seconds);

  // Resume: shards whose every job is already in the manifest never go out.
  for (std::size_t i = 0; i < state->shards.size(); ++i) {
    bool all_recorded = true;
    for (const std::size_t j : state->shards[i]) {
      if (!state->recorder->already_recorded(state->jobs[j])) {
        all_recorded = false;
      } else {
        ++state->resumed;
      }
    }
    if (all_recorded) state->leases->mark_done(i);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (by_id_.count(id) != 0) return id;  // lost a submit race; same spec
  by_id_[id] = state.get();
  campaigns_.push_back(std::move(state));
  obs::MetricsRegistry::global().counter("fleet.jobs_submitted").add();
  return id;
}

util::Json Coordinator::job_status(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return util::Json();
  return campaign_json_locked(*it->second);
}

bool Coordinator::finished(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_id_.find(id);
  return it != by_id_.end() && it->second->leases->all_done();
}

std::string Coordinator::results_path(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? "" : it->second->recorder->path();
}

void Coordinator::expire_leases_locked(double now) {
  std::size_t reclaimed = 0;
  for (const auto& c : campaigns_) reclaimed += c->leases->expire(now);
  if (reclaimed > 0) {
    obs::MetricsRegistry::global().counter("fleet.leases_expired").add(
        reclaimed);
  }
}

Coordinator::WorkerInfo& Coordinator::touch_worker_locked(const std::string& id,
                                                          double now) {
  WorkerInfo& info = workers_[id];
  info.last_seen = now;
  return info;
}

// ---- HTTP handlers ---------------------------------------------------------

obs::HttpResponse Coordinator::handle_submit(const obs::HttpRequest& request) {
  // The body is the spec file's text.
  if (request.body.empty()) return error_response(400, "empty sweep spec");

  std::string id;
  try {
    id = submit(request.body);
  } catch (const std::invalid_argument& e) {
    return error_response(400, e.what());
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const CampaignState& c = *by_id_.at(id);
  util::Json doc = util::Json::object();
  doc["job"] = id;
  doc["jobs"] = c.jobs.size();
  doc["shards"] = c.shards.size();
  doc["resumed"] = c.resumed;
  doc["results"] = c.recorder->path();
  return json_response(doc);
}

obs::HttpResponse Coordinator::handle_lease(const obs::HttpRequest& request) {
  std::string worker = "anonymous";
  if (!request.body.empty()) {
    try {
      const util::Json doc = util::Json::parse(request.body);
      if (const std::string* w = get_string(doc, "worker")) worker = *w;
    } catch (const util::JsonError& e) {
      return error_response(400, std::string("bad JSON body: ") + e.what());
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();
  expire_leases_locked(now);
  touch_worker_locked(worker, now);

  for (const auto& c : campaigns_) {
    const LeaseTable::Grant grant = c->leases->grant(worker, now);
    if (!grant.granted) continue;
    // The grant span joins the campaign trace (not the lease request's
    // own), so /trace/<id> shows dispatch next to the worker's shard.
    obs::ScopedContext trace_scope(c->trace);
    PBW_SPAN("fleet.lease");
    touch_worker_locked(worker, now).last_renew = now;
    obs::MetricsRegistry::global().counter("fleet.leases_granted").add();
    util::Json doc = util::Json::object();
    doc["job"] = c->id;
    doc["shard"] = grant.shard;
    doc["lease"] = grant.token;
    doc["lease_seconds"] = options_.lease_seconds;
    // Trace propagation: the worker runs its shard under a child of the
    // campaign trace, and aligns its span clock against coord_ns (our
    // span epoch "now", sampled inside the lease round-trip).
    doc["trace"] = c->trace.child().format();
    doc["coord_ns"] = std::to_string(obs::SpanRegistry::now_ns());
    util::Json jobs = util::Json::array();
    for (const std::size_t j : c->shards[grant.shard]) {
      jobs.push_back(job_to_json(c->jobs[j]));
    }
    doc["jobs"] = std::move(jobs);
    return json_response(doc);
  }

  util::Json doc = util::Json::object();
  doc["idle"] = true;
  // Workers started before any submit should keep polling; workers on a
  // drained fleet may exit.  "drain" distinguishes the two.
  bool all_done = !campaigns_.empty();
  for (const auto& c : campaigns_) all_done = all_done && c->leases->all_done();
  doc["drain"] = all_done;
  return json_response(doc);
}

obs::HttpResponse Coordinator::handle_renew(const obs::HttpRequest& request) {
  std::string job;
  std::string worker = "anonymous";
  std::uint64_t shard = 0;
  std::uint64_t token = 0;
  try {
    const util::Json doc = util::Json::parse(request.body);
    const std::string* j = get_string(doc, "job");
    if (j == nullptr || !get_index(doc, "shard", shard) ||
        !get_index(doc, "lease", token)) {
      return error_response(400, "renew needs job, shard, lease");
    }
    job = *j;
    if (const std::string* w = get_string(doc, "worker")) worker = *w;
  } catch (const util::JsonError& e) {
    return error_response(400, std::string("bad JSON body: ") + e.what());
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();
  expire_leases_locked(now);
  touch_worker_locked(worker, now).last_renew = now;
  const auto it = by_id_.find(job);
  if (it == by_id_.end()) return error_response(404, "unknown job " + job);
  util::Json doc = util::Json::object();
  doc["ok"] = it->second->leases->renew(shard, token, now);
  return json_response(doc);
}

obs::HttpResponse Coordinator::handle_results(const obs::HttpRequest& request) {
  const std::string id = path_suffix(request.path, "/results/");
  if (id.empty()) return error_response(404, "missing job id");

  std::string worker = "anonymous";
  std::uint64_t shard = 0;
  std::uint64_t token = 0;
  std::string error;
  // (job, trial rows) pairs, decoded before taking the lock: registry
  // lookups and hex decoding are pure, and a malformed payload must not
  // leave half a shard merged.
  std::vector<std::pair<campaign::Job, std::vector<campaign::MetricRow>>>
      decoded;
  // The worker's shipped shard spans (may be empty), and the clock offset
  // it measured over the lease round-trip.  Span decode failures are
  // deliberately non-fatal: a result batch must never be rejected over
  // its telemetry sidecar.
  std::vector<obs::SpanEvent> shipped_spans;
  std::int64_t clock_offset_ns = 0;
  try {
    const util::Json doc = util::Json::parse(request.body);
    if (const std::string* w = get_string(doc, "worker")) worker = *w;
    if (!get_index(doc, "shard", shard) || !get_index(doc, "lease", token)) {
      return error_response(400, "results need shard and lease");
    }
    if (const util::Json* spans = doc.get("spans");
        spans != nullptr && spans->is_array()) {
      try {
        shipped_spans = span_events_from_json(*spans);
        if (const std::string* off = get_string(doc, "clock_offset_ns")) {
          const char* end = off->data() + off->size();
          const auto [parsed, ec] =
              std::from_chars(off->data(), end, clock_offset_ns);
          if (ec != std::errc{} || parsed != end) {
            throw std::invalid_argument("bad clock_offset_ns");
          }
        }
      } catch (const std::exception&) {
        shipped_spans.clear();
      }
    }
    if (const std::string* e = get_string(doc, "error")) {
      error = e->empty() ? "unspecified worker error" : *e;
    } else {
      const util::Json* rows = doc.get("rows");
      if (rows == nullptr || !rows->is_array()) {
        return error_response(400, "results need rows or error");
      }
      for (std::size_t i = 0; i < rows->size(); ++i) {
        const util::Json& entry = rows->at(i);
        const util::Json* job_json = entry.get("job");
        const util::Json* trials = entry.get("trials");
        if (job_json == nullptr || trials == nullptr) {
          return error_response(400, "row entry needs job and trials");
        }
        decoded.emplace_back(
            job_from_json(*job_json, campaign::Registry::instance()),
            rows_from_json(*trials));
      }
    }
  } catch (const util::JsonError& e) {
    return error_response(400, std::string("bad JSON body: ") + e.what());
  } catch (const std::invalid_argument& e) {
    return error_response(400, e.what());
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();
  expire_leases_locked(now);
  WorkerInfo& info = touch_worker_locked(worker, now);
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return error_response(404, "unknown job " + id);
  CampaignState& c = *it->second;
  auto& metrics = obs::MetricsRegistry::global();

  if (!error.empty()) {
    obs::MetricsRegistry::global().counter("fleet.shard_errors").add();
    if (c.errors.size() < 32) {
      c.errors.push_back("shard " + std::to_string(shard) + " (" + worker +
                         "): " + error);
    }
    const bool retrying =
        c.leases->fail(shard, token, kMaxAttempts);
    util::Json doc = util::Json::object();
    doc["ok"] = true;
    doc["retry"] = retrying;
    return json_response(doc);
  }

  // Store the worker's spans under the campaign trace, clock-shifted at
  // export time.  Bounded like the registry's own buffer: a runaway
  // worker cannot grow coordinator memory without limit, and what is cut
  // shows up in the dropped tally instead of silently vanishing.
  if (!shipped_spans.empty()) {
    const std::size_t room =
        c.worker_span_events < obs::SpanRegistry::kMaxEvents
            ? obs::SpanRegistry::kMaxEvents - c.worker_span_events
            : 0;
    if (shipped_spans.size() > room) {
      obs::SpanRegistry::global().note_dropped(shipped_spans.size() - room);
      shipped_spans.resize(room);
    }
    if (!shipped_spans.empty()) {
      // Shipped events carry no trace ids on the wire (the grant's trace
      // is implied); stamp the campaign trace on ingest.
      for (obs::SpanEvent& event : shipped_spans) {
        event.trace_hi = c.trace.trace_hi;
        event.trace_lo = c.trace.trace_lo;
      }
      c.worker_span_events += shipped_spans.size();
      WorkerSpanBatch batch;
      batch.worker = worker;
      batch.clock_offset_ns = clock_offset_ns;
      batch.events = std::move(shipped_spans);
      c.worker_spans.push_back(std::move(batch));
    }
  }

  // Merge before acking, and merge even when the lease turns out to be
  // stale: the rows are real results, and the manifest drops duplicates.
  obs::ScopedContext trace_scope(c.trace);
  PBW_SPAN("fleet.merge");
  // One commit per POST: the shard's rows, then their keys, each synced
  // once.
  std::vector<campaign::Recorder::Row> rows;
  rows.reserve(decoded.size());
  for (const auto& [job, trials] : decoded) {
    rows.push_back(c.recorder->make_row(job, trials));
  }
  const std::uint64_t merged =
      c.recorder->commit(rows, /*drop_recorded=*/true);
  const std::uint64_t duplicates = rows.size() - merged;
  c.merged_rows += merged;
  c.duplicate_rows += duplicates;
  total_merged_ += merged;
  info.rows += merged;
  row_rate_.observe(now, total_merged_);
  info.rate.observe(now, info.rows);
  metrics.counter("fleet.rows_merged").add(merged);
  metrics.counter("fleet.rows_duplicate").add(duplicates);

  const LeaseTable::Ack ack = c.leases->complete(shard, token);
  if (ack == LeaseTable::Ack::kOk) ++info.shards_done;
  if (ack == LeaseTable::Ack::kStale) {
    metrics.counter("fleet.acks_stale").add();
  }

  util::Json doc = util::Json::object();
  doc["ok"] = true;
  doc["ack"] = ack == LeaseTable::Ack::kOk     ? "ok"
               : ack == LeaseTable::Ack::kDone ? "done"
                                               : "stale";
  doc["merged"] = merged;
  doc["duplicates"] = duplicates;
  return json_response(doc);
}

obs::HttpResponse Coordinator::handle_job_get(const obs::HttpRequest& request) {
  const std::string id = path_suffix(request.path, "/jobs/");
  const util::Json doc = job_status(id);
  if (doc.is_null()) return error_response(404, "unknown job " + id);
  return json_response(doc);
}

obs::HttpResponse Coordinator::handle_results_get(
    const obs::HttpRequest& request) {
  const std::string id = path_suffix(request.path, "/results/");
  const std::string path = results_path(id);
  if (path.empty()) return error_response(404, "unknown job " + id);
  std::ifstream in(path);
  if (!in) return error_response(404, "no results yet for " + id);
  std::ostringstream body;
  body << in.rdbuf();
  obs::HttpResponse r;
  r.content_type = "application/x-ndjson";
  r.body = body.str();
  return r;
}

obs::HttpResponse Coordinator::handle_trace_get(
    const obs::HttpRequest& request) {
  const std::string id = path_suffix(request.path, "/trace/");
  if (id.empty()) return error_response(404, "missing job id");

  // One merged Chrome trace: coordinator spans (filtered from the local
  // registry by the campaign's trace id) plus every worker's shipped
  // shard spans, each worker on its own synthetic tid block and shifted
  // onto the coordinator clock by its lease-round-trip offset.
  util::Json events = util::Json::array();
  const auto push_meta = [&events](const char* name, std::uint64_t tid,
                                   const std::string& value) {
    util::Json meta = util::Json::object();
    meta["name"] = name;
    meta["ph"] = "M";
    meta["pid"] = 0;
    meta["tid"] = tid;
    util::Json args = util::Json::object();
    args["name"] = value;
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));
  };
  const auto push_slice = [&events](const obs::SpanEvent& event,
                                    std::uint64_t tid,
                                    std::int64_t offset_ns) {
    util::Json slice = util::Json::object();
    slice["name"] = event.name;
    slice["ph"] = "X";
    slice["pid"] = 0;
    slice["tid"] = tid;
    const double start_ns =
        static_cast<double>(event.start_ns) + static_cast<double>(offset_ns);
    slice["ts"] = start_ns / 1000.0;                          // µs
    slice["dur"] = static_cast<double>(event.dur_ns) / 1000.0;
    util::Json args = util::Json::object();
    args["depth"] = event.depth;
    char parent[17];
    std::snprintf(parent, sizeof parent, "%016llx",
                  static_cast<unsigned long long>(event.parent_span));
    args["parent_span"] = std::string(parent);
    slice["args"] = std::move(args);
    events.push_back(std::move(slice));
  };

  std::string trace_id;
  std::size_t worker_batches = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return error_response(404, "unknown job " + id);
    const CampaignState& c = *it->second;
    trace_id = c.trace.trace_id_hex();

    push_meta("process_name", 0, "pbw-fleet " + c.id);

    // Coordinator spans keep their real tids (dense, small).  Workers get
    // one tid lane per worker id starting at 1000 — far above any real
    // coordinator tid — so lanes never collide and Perfetto shows each
    // worker as its own named row.
    std::vector<bool> coord_tids;
    for (const obs::SpanEvent& event : obs::SpanRegistry::global().events()) {
      if (event.trace_hi != c.trace.trace_hi ||
          event.trace_lo != c.trace.trace_lo) {
        continue;
      }
      if (event.tid >= coord_tids.size()) coord_tids.resize(event.tid + 1);
      coord_tids[event.tid] = true;
      push_slice(event, event.tid, 0);
    }
    for (std::size_t tid = 0; tid < coord_tids.size(); ++tid) {
      if (coord_tids[tid]) {
        push_meta("thread_name", tid,
                  "coordinator/" + std::to_string(tid));
      }
    }

    std::map<std::string, std::uint64_t> worker_lane;
    worker_batches = c.worker_spans.size();
    for (const WorkerSpanBatch& batch : c.worker_spans) {
      const auto [lane_it, inserted] = worker_lane.try_emplace(
          batch.worker, 1000 * (worker_lane.size() + 1));
      const std::uint64_t lane = lane_it->second;
      if (inserted) push_meta("thread_name", lane, "worker " + batch.worker);
      for (const obs::SpanEvent& event : batch.events) {
        // Distinct worker threads stay distinct inside the lane block.
        push_slice(event, lane + event.tid, batch.clock_offset_ns);
      }
    }
  }

  util::Json doc = util::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["trace_id"] = trace_id;
  doc["worker_batches"] = worker_batches;
  obs::HttpResponse r;
  r.content_type = "application/json";
  r.body = doc.dump() + "\n";
  return r;
}

util::Json Coordinator::campaign_json_locked(const CampaignState& c) const {
  const LeaseTable& leases = *c.leases;
  util::Json doc = util::Json::object();
  doc["id"] = c.id;
  doc["state"] = !leases.all_done() ? "running"
                 : leases.failed() == 0 ? "done"
                                        : "failed";
  doc["jobs"] = c.jobs.size();
  doc["recorded"] = c.recorder->recorded_count();
  doc["resumed"] = c.resumed;
  doc["merged"] = c.merged_rows;
  doc["duplicates"] = c.duplicate_rows;
  util::Json shards = util::Json::object();
  shards["total"] = leases.size();
  shards["pending"] = leases.pending();
  shards["leased"] = leases.leased();
  shards["done"] = leases.done();
  shards["failed"] = leases.failed();
  shards["expired_total"] = leases.expired_total();
  doc["shards"] = std::move(shards);
  if (!c.errors.empty()) {
    util::Json errors = util::Json::array();
    for (const std::string& e : c.errors) errors.push_back(e);
    doc["errors"] = std::move(errors);
  }
  doc["results"] = c.recorder->path();
  doc["trace"] = c.trace.trace_id_hex();
  return doc;
}

util::Json Coordinator::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();

  util::Json doc = util::Json::object();
  doc["service"] = "fleet-coordinator";
  doc["state"] = campaigns_.empty() ? "idle" : "serving";
  doc["uptime_seconds"] = now;
  doc["bind"] = server_.bind_address();
  doc["port"] = server_.port();

  std::uint64_t rows_total = 0;
  std::uint64_t rows_recorded = 0;
  std::size_t in_flight_total = 0;
  util::Json jobs = util::Json::array();
  // Leases grouped per worker for the /status board.
  std::map<std::string, util::Json> worker_leases;
  for (const auto& c : campaigns_) {
    rows_total += c->jobs.size();
    rows_recorded += c->recorder->recorded_count();
    jobs.push_back(campaign_json_locked(*c));
    for (const LeaseTable::InFlight& lease : c->leases->in_flight(now)) {
      ++in_flight_total;
      util::Json entry = util::Json::object();
      entry["job"] = c->id;
      entry["shard"] = lease.shard;
      entry["age_seconds"] = lease.age_seconds;
      auto [it, inserted] =
          worker_leases.try_emplace(lease.worker, util::Json::array());
      it->second.push_back(std::move(entry));
    }
  }
  doc["jobs"] = std::move(jobs);

  util::Json workers = util::Json::array();
  for (const auto& [id, info] : workers_) {
    util::Json w = util::Json::object();
    w["id"] = id;
    w["last_seen_seconds"] = now - info.last_seen;
    // Heartbeat age: seconds since the last /renew (or grant).  A worker
    // holding a lease whose heartbeat age approaches lease_seconds is
    // stalled or dead; one that merely hasn't polled is just idle.  Null
    // until the worker's first grant.
    w["heartbeat_age_seconds"] =
        info.last_renew >= 0.0 ? util::Json(now - info.last_renew)
                               : util::Json();
    w["rows_merged"] = info.rows;
    w["shards_done"] = info.shards_done;
    w["rows_per_second"] = info.rate.rate();
    const auto it = worker_leases.find(id);
    w["leases"] = it != worker_leases.end() ? std::move(it->second)
                                            : util::Json::array();
    workers.push_back(std::move(w));
  }
  doc["workers"] = std::move(workers);
  doc["leases_in_flight"] = in_flight_total;
  // Surfaced here (and as the span.events_dropped counter in /metrics) so
  // a truncated /trace flamegraph is visibly truncated.
  doc["span_events_dropped"] = obs::SpanRegistry::global().dropped();
  // Connections the server closed without an answer, by reason.
  doc["http_dropped"] = obs::HttpServer::dropped();

  doc["rows_total"] = rows_total;
  doc["rows_recorded"] = rows_recorded;
  doc["rows_per_second"] = row_rate_.rate();
  const std::uint64_t remaining =
      rows_total > rows_recorded ? rows_total - rows_recorded : 0;
  doc["eta_seconds"] = row_rate_.eta_seconds(remaining);
  return doc;
}

obs::HttpResponse Coordinator::handle_status() const {
  return json_response(status());
}

obs::HttpResponse Coordinator::handle_metrics() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const double now = now_seconds();
    std::size_t pending = 0;
    std::size_t leased = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::uint64_t rows_total = 0;
    std::uint64_t rows_recorded = 0;
    for (const auto& c : campaigns_) {
      pending += c->leases->pending();
      leased += c->leases->leased();
      done += c->leases->done();
      failed += c->leases->failed();
      rows_total += c->jobs.size();
      rows_recorded += c->recorder->recorded_count();
    }
    std::size_t live_workers = 0;
    // A worker silent for three lease windows has almost certainly died.
    for (const auto& [id, info] : workers_) {
      if (now - info.last_seen <= 3 * options_.lease_seconds) ++live_workers;
    }
    auto& metrics = obs::MetricsRegistry::global();
    metrics.gauge("fleet.jobs").set(static_cast<double>(campaigns_.size()));
    metrics.gauge("fleet.workers").set(static_cast<double>(live_workers));
    metrics.gauge("fleet.shards_pending").set(static_cast<double>(pending));
    metrics.gauge("fleet.shards_leased").set(static_cast<double>(leased));
    metrics.gauge("fleet.shards_done").set(static_cast<double>(done));
    metrics.gauge("fleet.shards_failed").set(static_cast<double>(failed));
    metrics.gauge("fleet.rows_total").set(static_cast<double>(rows_total));
    metrics.gauge("fleet.rows_recorded")
        .set(static_cast<double>(rows_recorded));
    metrics.gauge("fleet.rows_per_second").set(row_rate_.rate());
    // Find-or-create so the series renders at 0 instead of appearing only
    // after the first drop (dashboards can alert on it from the start).
    (void)metrics.counter("span.events_dropped");
  }
  obs::HttpResponse r;
  r.content_type = "text/plain; version=0.0.4";
  r.body = obs::render_prometheus(obs::MetricsRegistry::global().to_json());
  return r;
}

}  // namespace pbw::fleet
