// Fleet subsystem tests: wire encodings, the lease table's crash-recovery
// state machine, duplicate-result dedup through the merge recorder, a
// coordinator-plus-two-workers in-process fleet whose merged JSONL must be
// row-set-identical to a local thread-pool run of the same spec, lease
// renewal through a shard longer than the lease, and the gap a worker
// leaves between shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/http_client.hpp"
#include "fleet/lease.hpp"
#include "fleet/wire.hpp"
#include "fleet/worker.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/context.hpp"
#include "obs/telemetry/span.hpp"

namespace {

using namespace pbw;

/// Unique temp path per test; removes leftovers from a previous run.
std::string temp_out(const std::string& stem) {
  const auto path =
      (std::filesystem::temp_directory_path() / (stem + ".jsonl")).string();
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  return path;
}

/// Fresh directory for a coordinator's artifacts.
std::string temp_dir(const std::string& stem) {
  const auto path = (std::filesystem::temp_directory_path() / stem).string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

std::multiset<std::string> read_lines(const std::string& path) {
  std::multiset<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.insert(line);
  }
  return lines;
}

/// A small sweep over the replayable grid scenario: 12 grid points in 2
/// structural shards (g and L are cost-only for bsp-m), milliseconds to run.
const char* kGridSpec =
    "[sweep]\n"
    "scenario = grid.pattern\n"
    "pattern = ring\n"
    "p = 16\n"
    "h = 2\n"
    "rounds = 2\n"
    "model = bsp-m\n"
    "g = 2, 4, 8\n"
    "L = 4, 16\n"
    "seeds = 1, 2\n"
    "trials = 2\n";

std::vector<campaign::Job> grid_jobs() {
  return campaign::expand_all(campaign::parse_spec(kGridSpec),
                              campaign::Registry::instance());
}

/// Registers `fleet.slow`, whose trials sleep `ms` milliseconds each, in
/// the process registry the coordinator and in-process workers share.
void register_slow_scenario() {
  campaign::Registry& registry = campaign::Registry::instance();
  if (registry.find("fleet.slow") != nullptr) return;
  campaign::Scenario s;
  s.name = "fleet.slow";
  s.description = "sleeps ms milliseconds per trial";
  s.params = {{"ms", "100", ""}};
  s.run = [](const campaign::ParamSet& params, util::Xoshiro256&) {
    const double ms = params.get_double("ms");
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    return campaign::MetricRow{{"slept_ms", ms}};
  };
  registry.add(std::move(s));
}

std::uint64_t counter_value(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// ---- wire encodings --------------------------------------------------------

TEST(FleetWire, DoubleBitsRoundTripIsExact) {
  for (const double v : {0.0, -0.0, 1.0, -1.5, 1e-308, 1e308,
                         0.1 + 0.2,  // not representable exactly
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const std::string hex = fleet::double_to_bits(v);
    EXPECT_EQ(hex.size(), 18u);
    const double back = fleet::double_from_bits(hex);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << hex;
  }
  // NaN survives by bit pattern even though NaN != NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double back = fleet::double_from_bits(fleet::double_to_bits(nan));
  EXPECT_TRUE(std::isnan(back));
  // -0.0 and 0.0 are distinct on the wire (the replay gate compares bits).
  EXPECT_NE(fleet::double_to_bits(0.0), fleet::double_to_bits(-0.0));

  EXPECT_THROW((void)fleet::double_from_bits("42"), std::invalid_argument);
  EXPECT_THROW((void)fleet::double_from_bits("0x123"), std::invalid_argument);
  EXPECT_THROW((void)fleet::double_from_bits("0x123456789abcdefg"),
               std::invalid_argument);
}

TEST(FleetWire, JobRoundTripPreservesKeys) {
  const auto jobs = grid_jobs();
  ASSERT_FALSE(jobs.empty());
  for (const campaign::Job& job : jobs) {
    const util::Json encoded = fleet::job_to_json(job);
    const campaign::Job back =
        fleet::job_from_json(encoded, campaign::Registry::instance());
    EXPECT_EQ(back.base_key(), job.base_key());
    EXPECT_EQ(back.structural_key(), job.structural_key());
    EXPECT_EQ(back.seed, job.seed);
    EXPECT_EQ(back.trials, job.trials);
    EXPECT_EQ(back.scenario, job.scenario);  // same registry entry
  }
}

TEST(FleetWire, JobFromJsonRejectsVersionSkew) {
  auto jobs = grid_jobs();
  util::Json encoded = fleet::job_to_json(jobs[0]);
  encoded["scenario"] = "no.such.scenario";
  EXPECT_THROW(
      fleet::job_from_json(encoded, campaign::Registry::instance()),
      std::invalid_argument);
}

TEST(FleetWire, IntegersOutOfRangeAreRejected) {
  // Wire integers are read with Json::as_u64 and bounded: a plain cast of
  // 1e10 to int, or of 1e300 to uint32, is undefined behaviour, and 2.5
  // would silently read as 2.
  const util::Json job = fleet::job_to_json(grid_jobs()[0]);
  const auto with_trials = [&](double trials) {
    util::Json edited = job;
    edited["trials"] = trials;
    return fleet::job_from_json(edited, campaign::Registry::instance());
  };
  EXPECT_EQ(with_trials(3.0).trials, 3);
  // Integers past the field's type, and zero trials.
  EXPECT_THROW((void)with_trials(1e10), std::invalid_argument);
  EXPECT_THROW((void)with_trials(0.0), std::invalid_argument);
  // Not an integer in [0, 2^64) at all.
  EXPECT_THROW((void)with_trials(1e300), util::JsonError);
  EXPECT_THROW((void)with_trials(2.5), util::JsonError);
  EXPECT_THROW((void)with_trials(-1.0), util::JsonError);

  const auto spans = [](const char* body) {
    return fleet::span_events_from_json(util::Json::parse(body));
  };
  EXPECT_EQ(spans(R"([["x", "1", "2", 4294967295, 7, "00"]])")[0].tid,
            4294967295u);
  EXPECT_THROW((void)spans(R"([["x", "1", "2", 4294967296, 0, "00"]])"),
               std::invalid_argument);
  EXPECT_THROW((void)spans(R"([["x", "1", "2", 0, 1e10, "00"]])"),
               std::invalid_argument);
  EXPECT_THROW((void)spans(R"([["x", "1", "2", 1e300, 0, "00"]])"),
               util::JsonError);
  EXPECT_THROW((void)spans(R"([["x", "1", "2", 2.5, 0, "00"]])"),
               util::JsonError);
}

TEST(FleetWire, RowsRoundTripBitExact) {
  std::vector<campaign::MetricRow> trials = {
      {{"time", 1.25}, {"zero", -0.0}},
      {{"time", 0.1 + 0.2}, {"zero", 0.0}},
  };
  const auto back = fleet::rows_from_json(fleet::rows_to_json(trials));
  ASSERT_EQ(back.size(), trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    ASSERT_EQ(back[t].size(), trials[t].size());
    for (std::size_t i = 0; i < trials[t].size(); ++i) {
      EXPECT_EQ(back[t][i].first, trials[t][i].first);
      EXPECT_EQ(std::memcmp(&back[t][i].second, &trials[t][i].second,
                            sizeof(double)),
                0);
    }
  }
}

TEST(FleetWire, ParseEndpoint) {
  const fleet::Endpoint full = fleet::parse_endpoint("10.0.0.5:8080");
  EXPECT_EQ(full.host, "10.0.0.5");
  EXPECT_EQ(full.port, 8080);
  const fleet::Endpoint local = fleet::parse_endpoint(":9000");
  EXPECT_EQ(local.host, "127.0.0.1");
  EXPECT_EQ(local.port, 9000);
  EXPECT_THROW(fleet::parse_endpoint("nohost"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_endpoint("host:0"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_endpoint("host:99999"), std::invalid_argument);
}

TEST(FleetWire, SpanEventsRoundTripExactU64) {
  obs::SpanEvent big;
  big.name = "huge";
  big.start_ns = 0xFFFFFFFFFFFFFFFFull;  // > 2^53: a JSON double would mangle
  big.dur_ns = (1ull << 62) + 12345;
  big.tid = 7;
  big.depth = 3;
  big.parent_span = 0xDEADBEEFCAFEF00Dull;
  std::vector<obs::SpanEvent> spans = {big, {"tiny", 1, 2, 0, 0}};

  const auto back = fleet::span_events_from_json(fleet::span_events_to_json(spans));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "huge");
  EXPECT_EQ(back[0].start_ns, big.start_ns);
  EXPECT_EQ(back[0].dur_ns, big.dur_ns);
  EXPECT_EQ(back[0].tid, big.tid);
  EXPECT_EQ(back[0].depth, big.depth);
  EXPECT_EQ(back[0].parent_span, big.parent_span);
  EXPECT_EQ(back[1].name, "tiny");
  EXPECT_EQ(back[1].start_ns, 1u);
  // Trace ids are not on the wire: the coordinator stamps the campaign's.
  EXPECT_EQ(back[0].trace_hi, 0u);
  EXPECT_EQ(back[0].trace_lo, 0u);

  EXPECT_THROW(fleet::span_events_from_json(util::Json::parse("[[\"x\", 1]]")),
               std::invalid_argument);
  EXPECT_THROW(fleet::span_events_from_json(util::Json::parse(
                   "[[\"x\", \"nan\", \"2\", 0, 0, \"00\"]]")),
               std::invalid_argument);
}

// ---- lease table -----------------------------------------------------------

TEST(LeaseTable, GrantExpiryReassignment) {
  fleet::LeaseTable table(2, /*lease_seconds=*/10.0);
  EXPECT_EQ(table.pending(), 2u);

  const auto a = table.grant("wA", /*now=*/0.0);
  ASSERT_TRUE(a.granted);
  EXPECT_EQ(a.shard, 0u);
  const auto b = table.grant("wB", 0.0);
  ASSERT_TRUE(b.granted);
  EXPECT_EQ(b.shard, 1u);
  EXPECT_FALSE(table.grant("wC", 0.0).granted);  // everything leased

  // wB heartbeats at t=9 (deadline moves to 19); wA never does.
  EXPECT_EQ(table.expire(/*now=*/5.0), 0u);  // nothing due yet
  EXPECT_TRUE(table.renew(1, b.token, /*now=*/9.0));
  EXPECT_FALSE(table.renew(1, a.token, 9.0));  // wrong token

  // wA dies: only its lease expires, and wC inherits shard 0 with a
  // fresh token.
  EXPECT_EQ(table.expire(/*now=*/10.5), 1u);
  EXPECT_EQ(table.expired_total(), 1u);
  const auto c = table.grant("wC", 11.0);
  ASSERT_TRUE(c.granted);
  EXPECT_EQ(c.shard, 0u);
  EXPECT_NE(c.token, a.token);

  // The zombie's completion is stale; the inheritor's is accepted.
  EXPECT_EQ(table.complete(0, a.token), fleet::LeaseTable::Ack::kStale);
  EXPECT_EQ(table.complete(0, c.token), fleet::LeaseTable::Ack::kOk);
  // Duplicate delivery after completion.
  EXPECT_EQ(table.complete(0, c.token), fleet::LeaseTable::Ack::kDone);

  // The renewed lease is still live at t=12.
  EXPECT_EQ(table.expire(/*now=*/12.0), 0u);
  EXPECT_EQ(table.complete(1, b.token), fleet::LeaseTable::Ack::kOk);
  EXPECT_TRUE(table.all_done());
}

TEST(LeaseTable, ExpiredWorkerFinishingFirstStillCounts) {
  fleet::LeaseTable table(1, 10.0);
  const auto a = table.grant("wA", 0.0);
  table.expire(20.0);  // lease lost, shard back to pending
  // wA finishes before anyone re-leases: the token is the shard's latest,
  // so the completion is accepted rather than redone.
  EXPECT_EQ(table.complete(0, a.token), fleet::LeaseTable::Ack::kOk);
  EXPECT_TRUE(table.all_done());
  EXPECT_FALSE(table.grant("wB", 21.0).granted);
}

TEST(LeaseTable, FailRetriesUntilTerminal) {
  fleet::LeaseTable table(1, 10.0);
  const std::size_t max_attempts = 3;
  std::uint64_t token = 0;
  for (std::size_t attempt = 1; attempt < max_attempts; ++attempt) {
    const auto g = table.grant("w", 0.0);
    ASSERT_TRUE(g.granted);
    EXPECT_TRUE(table.fail(g.shard, g.token, max_attempts));  // retried
    token = g.token;
  }
  const auto last = table.grant("w", 0.0);
  ASSERT_TRUE(last.granted);
  EXPECT_NE(last.token, token);
  EXPECT_FALSE(table.fail(last.shard, last.token, max_attempts));  // terminal
  EXPECT_EQ(table.failed(), 1u);
  EXPECT_TRUE(table.all_done());
  EXPECT_FALSE(table.grant("w", 0.0).granted);
}

// ---- recorder merge (duplicate-result dedup) -------------------------------

/// Commits `job`'s row the way the coordinator merges a /results POST:
/// true when this call recorded it, false when its key already was.
bool merge(campaign::Recorder& recorder, const campaign::Job& job,
           const std::vector<campaign::MetricRow>& trials) {
  return recorder.commit({recorder.make_row(job, trials)},
                         /*drop_recorded=*/true) == 1;
}

TEST(RecorderMerge, DuplicateDeliveryRecordsOnce) {
  const std::string out = temp_out("pbw_fleet_merge");
  const auto jobs = grid_jobs();
  const std::vector<campaign::MetricRow> trials = {{{"metric", 1.0}},
                                                   {{"metric", 2.0}}};
  {
    campaign::Recorder recorder(out, "vtest");
    EXPECT_TRUE(merge(recorder, jobs[0], trials));
    EXPECT_FALSE(merge(recorder, jobs[0], trials));  // same job, second worker
    EXPECT_TRUE(merge(recorder, jobs[1], trials));
    EXPECT_EQ(recorder.recorded_count(), 2u);
  }
  EXPECT_EQ(read_lines(out).size(), 2u);

  // A reopened recorder (coordinator restart) still dedups via the
  // on-disk manifest.
  campaign::Recorder reopened(out, "vtest");
  EXPECT_FALSE(merge(reopened, jobs[0], trials));
  EXPECT_TRUE(merge(reopened, jobs[2], trials));
}

TEST(RecorderMerge, TruncatedManifestLineIsDropped) {
  const std::string out = temp_out("pbw_fleet_torn");
  const auto jobs = grid_jobs();
  const std::vector<campaign::MetricRow> trials = {{{"metric", 1.0}}};
  {
    campaign::Recorder recorder(out, "vtest");
    merge(recorder, jobs[0], trials);
    merge(recorder, jobs[1], trials);
  }
  // Tear the final manifest line mid-key, as a crash mid-append would.
  std::string manifest;
  {
    std::ifstream in(out + ".manifest");
    std::getline(in, manifest);  // first full line
  }
  {
    std::ofstream rewrite(out + ".manifest", std::ios::trunc);
    rewrite << manifest << "\n" << "torn-key-without-newline";
  }
  campaign::Recorder reopened(out, "vtest");
  EXPECT_EQ(reopened.recorded_count(), 1u);
  EXPECT_FALSE(merge(reopened, jobs[0], trials));  // survived
  EXPECT_TRUE(merge(reopened, jobs[1], trials));   // torn entry dropped
}

// ---- coordinator over HTTP -------------------------------------------------

TEST(Coordinator, SubmitLeaseResultsRoundTrip) {
  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_rt");
  options.lease_seconds = 30.0;
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::uint16_t port = coordinator.port();

  // Submit twice: the id is stable and the second submit joins the first.
  const auto submitted =
      fleet::http_post("127.0.0.1", port, "/submit", kGridSpec);
  ASSERT_TRUE(submitted.ok);
  ASSERT_EQ(submitted.status, 200) << submitted.body;
  const util::Json reply = util::Json::parse(submitted.body);
  const std::string id = reply.get("job")->as_string();
  EXPECT_EQ(reply.get("jobs")->as_int(), 12);
  EXPECT_EQ(reply.get("shards")->as_int(), 2);
  const auto again = fleet::http_post("127.0.0.1", port, "/submit", kGridSpec);
  EXPECT_EQ(util::Json::parse(again.body).get("job")->as_string(), id);

  // Bad specs and bad bodies are 400s, unknown jobs 404s.
  EXPECT_EQ(fleet::http_post("127.0.0.1", port, "/submit", "scenario = nope\n")
                .status,
            400);
  EXPECT_EQ(fleet::http_post("127.0.0.1", port, "/renew", "{}").status, 400);
  EXPECT_EQ(fleet::http_get("127.0.0.1", port, "/jobs/jdeadbeef").status, 404);
  // Known path, unregistered method.
  EXPECT_EQ(fleet::http_get("127.0.0.1", port, "/submit").status, 405);

  // Lease a shard and return its rows by hand.
  const auto leased = fleet::http_post("127.0.0.1", port, "/lease",
                                       "{\"worker\": \"manual\"}");
  ASSERT_EQ(leased.status, 200);
  const util::Json grant = util::Json::parse(leased.body);
  ASSERT_EQ(grant.get("idle"), nullptr) << leased.body;
  EXPECT_EQ(grant.get("job")->as_string(), id);
  // job, shard, lease, lease_seconds, trace, coord_ns and jobs: every
  // field a worker reads, and nothing else.
  EXPECT_EQ(grant.members().size(), 7u);
  const util::Json* jobs_json = grant.get("jobs");
  ASSERT_NE(jobs_json, nullptr);

  util::Json report = util::Json::object();
  report["worker"] = "manual";
  report["shard"] = grant.get("shard")->as_int();
  report["lease"] = grant.get("lease")->as_int();
  util::Json rows = util::Json::array();
  const std::vector<campaign::MetricRow> trials = {{{"metric", 0.5}},
                                                   {{"metric", -0.0}}};
  for (std::size_t i = 0; i < jobs_json->size(); ++i) {
    util::Json entry = util::Json::object();
    entry["job"] = jobs_json->at(i);
    entry["trials"] = fleet::rows_to_json(trials);
    rows.push_back(std::move(entry));
  }
  report["rows"] = std::move(rows);
  const auto acked =
      fleet::http_post("127.0.0.1", port, "/results/" + id, report.dump());
  ASSERT_EQ(acked.status, 200) << acked.body;
  const util::Json ack = util::Json::parse(acked.body);
  EXPECT_EQ(ack.get("ack")->as_string(), "ok");
  EXPECT_EQ(ack.get("merged")->as_int(),
            static_cast<std::int64_t>(jobs_json->size()));

  // The same delivery again: every row is a duplicate, the ack is "done".
  const auto redelivered =
      fleet::http_post("127.0.0.1", port, "/results/" + id, report.dump());
  const util::Json re_ack = util::Json::parse(redelivered.body);
  EXPECT_EQ(re_ack.get("ack")->as_string(), "done");
  EXPECT_EQ(re_ack.get("merged")->as_int(), 0);
  EXPECT_EQ(re_ack.get("duplicates")->as_int(),
            static_cast<std::int64_t>(jobs_json->size()));

  // /jobs/<id> reflects one shard done, /status aggregates it.
  const util::Json job_doc = coordinator.job_status(id);
  EXPECT_EQ(job_doc.get("state")->as_string(), "running");
  EXPECT_EQ(job_doc.get("shards")->get("done")->as_int(), 1);
  const util::Json status = coordinator.status();
  EXPECT_EQ(status.get("rows_recorded")->as_int(),
            static_cast<std::int64_t>(jobs_json->size()));
  ASSERT_GE(status.get("workers")->size(), 1u);

  // /metrics exports the fleet series as Prometheus text.
  const auto metrics = fleet::http_get("127.0.0.1", port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("fleet_rows_merged"), std::string::npos);
  EXPECT_NE(metrics.body.find("fleet_shards_done"), std::string::npos);
  coordinator.stop();
}

TEST(Coordinator, MalformedIntegersAreRejectedAndMergeNothing) {
  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_bad_ints");
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::uint16_t port = coordinator.port();
  const std::string id = coordinator.submit(kGridSpec);
  const auto leased = fleet::http_post("127.0.0.1", port, "/lease",
                                       "{\"worker\": \"w\"}");
  const util::Json grant = util::Json::parse(leased.body);
  ASSERT_EQ(grant.get("idle"), nullptr) << leased.body;

  // One row of the leased shard, with `shard` and the job's `trials` as
  // given.
  const util::Json good_shard = grant.get("shard")->as_u64();
  const util::Json good_trials = grant.get("jobs")->at(0).get("trials")->as_u64();
  const auto post = [&](const util::Json& shard, const util::Json& trials) {
    util::Json job = grant.get("jobs")->at(0);
    job["trials"] = trials;
    util::Json entry = util::Json::object();
    entry["job"] = std::move(job);
    entry["trials"] = fleet::rows_to_json({{{"metric", 0.5}}});
    util::Json rows = util::Json::array();
    rows.push_back(std::move(entry));
    util::Json report = util::Json::object();
    report["worker"] = "w";
    report["shard"] = shard;
    report["lease"] = grant.get("lease")->as_u64();
    report["rows"] = std::move(rows);
    return fleet::http_post("127.0.0.1", port, "/results/" + id,
                            report.dump());
  };
  EXPECT_EQ(post(1e300, good_trials).status, 400);
  EXPECT_EQ(post(1.5, good_trials).status, 400);
  EXPECT_EQ(post(-1.0, good_trials).status, 400);
  EXPECT_EQ(post(good_shard, 1e10).status, 400);
  EXPECT_EQ(post(good_shard, 2.5).status, 400);

  util::Json renew = util::Json::object();
  renew["job"] = id;
  renew["shard"] = 1e300;
  renew["lease"] = grant.get("lease")->as_u64();
  EXPECT_EQ(
      fleet::http_post("127.0.0.1", port, "/renew", renew.dump()).status, 400);

  // /submit takes spec text only: a JSON body is a spec parse error.
  util::Json wrapped = util::Json::object();
  wrapped["spec"] = kGridSpec;
  EXPECT_EQ(
      fleet::http_post("127.0.0.1", port, "/submit", wrapped.dump()).status,
      400);

  EXPECT_EQ(coordinator.job_status(id).get("merged")->as_int(), 0);
  EXPECT_EQ(coordinator.job_status(id).get("recorded")->as_int(), 0);
  // The same body with good integers merges: only the numbers were bad.
  const auto good = post(good_shard, good_trials);
  ASSERT_EQ(good.status, 200) << good.body;
  EXPECT_EQ(util::Json::parse(good.body).get("merged")->as_int(), 1);
  coordinator.stop();
}

TEST(Coordinator, LeaseExpiryReassignsOverHttp) {
  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_expiry");
  options.lease_seconds = 0.2;  // expire fast
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::uint16_t port = coordinator.port();

  ASSERT_EQ(fleet::http_post("127.0.0.1", port, "/submit", kGridSpec).status,
            200);
  const auto first = fleet::http_post("127.0.0.1", port, "/lease",
                                      "{\"worker\": \"doomed\"}");
  const util::Json g1 = util::Json::parse(first.body);
  ASSERT_EQ(g1.get("idle"), nullptr);

  // The doomed worker never renews; after the deadline the same shard goes
  // to the survivor with a new token.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  std::set<std::int64_t> shards;
  std::int64_t reassigned_token = 0;
  for (int i = 0; i < 2; ++i) {
    const auto res = fleet::http_post("127.0.0.1", port, "/lease",
                                      "{\"worker\": \"survivor\"}");
    const util::Json g = util::Json::parse(res.body);
    ASSERT_EQ(g.get("idle"), nullptr);
    shards.insert(g.get("shard")->as_int());
    if (g.get("shard")->as_int() == g1.get("shard")->as_int()) {
      reassigned_token = g.get("lease")->as_int();
    }
  }
  EXPECT_EQ(shards.size(), 2u);  // both shards leased, incl. the expired one
  EXPECT_NE(reassigned_token, g1.get("lease")->as_int());
  coordinator.stop();
}

// ---- the acceptance test: in-process fleet vs local run --------------------

std::multiset<std::string> run_local_baseline(const std::string& out) {
  const auto jobs = grid_jobs();
  campaign::Recorder recorder(out);
  campaign::ExecutorOptions options;
  options.threads = 2;
  const auto stats = campaign::run_campaign(jobs, recorder, options);
  EXPECT_EQ(stats.executed, jobs.size());
  return read_lines(out);
}

TEST(Fleet, TwoWorkerRunMatchesLocalBitExact) {
  const std::multiset<std::string> local =
      run_local_baseline(temp_out("pbw_fleet_local_baseline"));

  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_e2e");
  options.lease_seconds = 10.0;
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();

  const std::string id = coordinator.submit(kGridSpec);
  auto worker_options = [&](const char* name) {
    fleet::Worker::Options w;
    w.port = coordinator.port();
    w.id = name;
    w.poll_seconds = 0.05;
    return w;
  };
  fleet::Worker wa(worker_options("wA"));
  fleet::Worker wb(worker_options("wB"));
  fleet::Worker::Stats sa;
  fleet::Worker::Stats sb;
  std::thread ta([&] { sa = wa.run(); });
  std::thread tb([&] { sb = wb.run(); });
  ta.join();
  tb.join();

  EXPECT_TRUE(coordinator.finished(id));
  EXPECT_EQ(sa.errors + sb.errors, 0u);
  const util::Json doc = coordinator.job_status(id);
  EXPECT_EQ(doc.get("state")->as_string(), "done");
  EXPECT_EQ(doc.get("duplicates")->as_int(), 0);

  // The merged artifact is row-set-identical to the local run — same
  // records, byte for byte, independent of which worker ran what.
  const std::multiset<std::string> fleet_rows =
      read_lines(coordinator.results_path(id));
  EXPECT_EQ(fleet_rows, local);
  coordinator.stop();
}

TEST(Fleet, WorkerCrashMidRunLosesNothing) {
  const std::multiset<std::string> local =
      run_local_baseline(temp_out("pbw_fleet_crash_baseline"));

  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_crash");
  options.lease_seconds = 0.3;  // crashed worker's lease expires quickly
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::uint16_t port = coordinator.port();
  const std::string id = coordinator.submit(kGridSpec);

  // A "worker" leases a shard and dies without delivering: hold the lease
  // by hand and never report.
  const auto doomed = fleet::http_post("127.0.0.1", port, "/lease",
                                       "{\"worker\": \"doomed\"}");
  ASSERT_EQ(util::Json::parse(doomed.body).get("idle"), nullptr);

  // Real workers drain the rest — and, after the expiry, the lost shard.
  fleet::Worker::Options w;
  w.port = port;
  w.id = "survivor";
  w.poll_seconds = 0.05;
  fleet::Worker worker(w);
  const fleet::Worker::Stats stats = worker.run();
  EXPECT_EQ(stats.errors, 0u);

  EXPECT_TRUE(coordinator.finished(id));
  const util::Json doc = coordinator.job_status(id);
  EXPECT_EQ(doc.get("state")->as_string(), "done");
  EXPECT_GE(doc.get("shards")->get("expired_total")->as_int(), 1);
  EXPECT_EQ(read_lines(coordinator.results_path(id)), local);
  coordinator.stop();
}

TEST(Fleet, CoordinatorRestartResumesFromManifest) {
  const std::string out_dir = temp_dir("pbw_fleet_resume");
  std::string id;
  {
    fleet::Coordinator::Options options;
    options.out_dir = out_dir;
    fleet::Coordinator coordinator(std::move(options));
    coordinator.start();
    id = coordinator.submit(kGridSpec);
    fleet::Worker::Options w;
    w.port = coordinator.port();
    w.poll_seconds = 0.05;
    fleet::Worker worker(w);
    worker.run();
    ASSERT_TRUE(coordinator.finished(id));
    coordinator.stop();
  }
  // A fresh coordinator over the same out_dir re-submits the same spec:
  // every shard is already recorded, so the campaign is born finished and
  // a worker has nothing to do.
  fleet::Coordinator::Options options;
  options.out_dir = out_dir;
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::string resumed_id = coordinator.submit(kGridSpec);
  EXPECT_EQ(resumed_id, id);
  EXPECT_TRUE(coordinator.finished(id));
  const util::Json doc = coordinator.job_status(id);
  EXPECT_EQ(doc.get("resumed")->as_int(), 12);
  EXPECT_EQ(doc.get("state")->as_string(), "done");

  fleet::Worker::Options w;
  w.port = coordinator.port();
  w.poll_seconds = 0.05;
  fleet::Worker worker(w);
  const fleet::Worker::Stats stats = worker.run();
  EXPECT_EQ(stats.shards, 0u);  // drained immediately
  coordinator.stop();
}

TEST(Fleet, LiveWorkerKeepsLeaseThroughLongShard) {
  // Each shard sleeps 3 x 200 ms, twice the 0.3 s lease: only renewals
  // on the heartbeat's deadline (every 0.2 s) keep it.  A lapsed lease
  // would expire at the result post, ack stale, and be re-run.
  register_slow_scenario();
  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_long_shard");
  options.lease_seconds = 0.3;
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::string renewed =
      "http.requests{method=\"POST\",path=\"/renew\",status=\"200\"}";
  const std::uint64_t renewals_before = counter_value(renewed);
  const std::uint64_t stale_before = counter_value("fleet.acks_stale");
  const std::string id = coordinator.submit(
      "[sweep]\nscenario = fleet.slow\nms = 200\nseeds = 1, 2\n"
      "trials = 3\n");

  fleet::Worker::Options w;
  w.port = coordinator.port();
  w.id = "steady";
  w.poll_seconds = 0.05;
  fleet::Worker worker(w);
  const fleet::Worker::Stats stats = worker.run();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.stale, 0u);
  EXPECT_EQ(stats.shards, 2u);

  ASSERT_TRUE(coordinator.finished(id));
  const util::Json doc = coordinator.job_status(id);
  EXPECT_EQ(doc.get("state")->as_string(), "done");
  EXPECT_EQ(doc.get("duplicates")->as_int(), 0);
  EXPECT_EQ(doc.get("shards")->get("expired_total")->as_int(), 0);
  EXPECT_EQ(counter_value("fleet.acks_stale"), stale_before);
  EXPECT_GE(counter_value(renewed) - renewals_before, 4u);
  EXPECT_EQ(read_lines(coordinator.results_path(id)).size(), 2u);
  coordinator.stop();
}

// ---- distributed tracing: one merged flamegraph per campaign ---------------

TEST(Fleet, MergedTraceSpansCoordinatorAndBothWorkers) {
  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_trace");
  options.lease_seconds = 10.0;
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::uint16_t port = coordinator.port();
  const std::string id = coordinator.submit(kGridSpec);

  // A hand-rolled worker takes the first shard and ships a span sidecar,
  // so the merged trace deterministically carries two worker lanes.
  const auto leased = fleet::http_post("127.0.0.1", port, "/lease",
                                       "{\"worker\": \"manual\"}");
  ASSERT_EQ(leased.status, 200);
  const util::Json grant = util::Json::parse(leased.body);
  ASSERT_EQ(grant.get("idle"), nullptr) << leased.body;

  // The grant carries the campaign trace and the coordinator's clock.
  ASSERT_NE(grant.get("trace"), nullptr);
  const obs::TraceContext trace =
      obs::TraceContext::parse(grant.get("trace")->as_string());
  ASSERT_TRUE(trace.valid()) << grant.get("trace")->as_string();
  ASSERT_NE(grant.get("coord_ns"), nullptr);

  util::Json report = util::Json::object();
  report["worker"] = "manual";
  report["shard"] = grant.get("shard")->as_int();
  report["lease"] = grant.get("lease")->as_int();
  const util::Json* jobs_json = grant.get("jobs");
  ASSERT_NE(jobs_json, nullptr);
  util::Json rows = util::Json::array();
  const std::vector<campaign::MetricRow> trials = {{{"metric", 0.5}}};
  for (std::size_t i = 0; i < jobs_json->size(); ++i) {
    util::Json entry = util::Json::object();
    entry["job"] = jobs_json->at(i);
    entry["trials"] = fleet::rows_to_json(trials);
    rows.push_back(std::move(entry));
  }
  report["rows"] = std::move(rows);
  std::vector<obs::SpanEvent> shipped = {{"fleet.shard", 1000, 900, 0, 0},
                                         {"manual.phase", 1100, 200, 0, 1}};
  report["spans"] = fleet::span_events_to_json(shipped);
  report["clock_offset_ns"] = "0";
  ASSERT_EQ(
      fleet::http_post("127.0.0.1", port, "/results/" + id, report.dump())
          .status,
      200);

  // A real worker drains the rest, shipping its own spans and offset.
  fleet::Worker::Options w;
  w.port = port;
  w.id = "real";
  w.poll_seconds = 0.05;
  fleet::Worker worker(w);
  EXPECT_EQ(worker.run().errors, 0u);
  ASSERT_TRUE(coordinator.finished(id));

  // /trace/<id> answers one structurally valid Chrome trace document.
  const auto traced = fleet::http_get("127.0.0.1", port, "/trace/" + id);
  ASSERT_EQ(traced.status, 200);
  std::istringstream in(traced.body);
  const obs::ChromeTraceValidation v = obs::validate_chrome_trace(in);
  ASSERT_TRUE(v.ok) << v.error;
  // At minimum: submit/lease/merge coordinator spans + 3 shipped ones.
  EXPECT_GE(v.slices, 6u);
  EXPECT_GE(v.metas, 3u);  // process name + >= 2 worker lane names

  const util::Json doc = util::Json::parse(traced.body);
  EXPECT_EQ(doc.get("trace_id")->as_string(), trace.trace_id_hex());
  EXPECT_EQ(doc.get("worker_batches")->as_int(), 2);

  // Every lane is named: coordinator thread(s) plus one per worker.
  bool saw_coordinator = false;
  bool saw_manual = false;
  bool saw_real = false;
  const util::Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  for (std::size_t i = 0; i < events->size(); ++i) {
    const util::Json& event = events->at(i);
    if (event.get("ph")->as_string() != "M") continue;
    if (event.get("name")->as_string() != "thread_name") continue;
    const std::string lane = event.get("args")->get("name")->as_string();
    if (lane.rfind("coordinator/", 0) == 0) saw_coordinator = true;
    if (lane == "worker manual") saw_manual = true;
    if (lane == "worker real") saw_real = true;
  }
  EXPECT_TRUE(saw_coordinator);
  EXPECT_TRUE(saw_manual);
  EXPECT_TRUE(saw_real);

  // /jobs/<id> names the campaign's trace id; unknown traces are 404s.
  EXPECT_EQ(coordinator.job_status(id).get("trace")->as_string(),
            trace.trace_id_hex());
  EXPECT_EQ(fleet::http_get("127.0.0.1", port, "/trace/jnope").status, 404);

  // The worker board reports seconds since each worker's last renewal.
  const util::Json status = coordinator.status();
  const util::Json* workers = status.get("workers");
  ASSERT_NE(workers, nullptr);
  std::size_t with_heartbeat = 0;
  for (std::size_t i = 0; i < workers->size(); ++i) {
    const util::Json* age = workers->at(i).get("heartbeat_age_seconds");
    ASSERT_NE(age, nullptr);
    if (age->is_number()) {
      EXPECT_GE(age->as_double(), 0.0);
      ++with_heartbeat;
    }
  }
  EXPECT_GE(with_heartbeat, 2u);
  ASSERT_NE(status.get("span_events_dropped"), nullptr);
  coordinator.stop();
}

TEST(Fleet, WorkerStartsNextShardWithoutWaiting) {
  // Between two shards a worker posts its rows and leases the next one:
  // loopback round trips, a millisecond or so.  The heartbeat it joins in
  // between must end with the shard, not at its next wake-up.  Each of
  // the ten single-job shards lasts 5 ms, so the heartbeat is waiting by
  // the time its shard ends.
  register_slow_scenario();
  fleet::Coordinator::Options options;
  options.out_dir = temp_dir("pbw_fleet_shard_gap");
  options.lease_seconds = 10.0;
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  const std::uint16_t port = coordinator.port();
  const std::string id = coordinator.submit(
      "[sweep]\nscenario = fleet.slow\nms = 5\n"
      "seeds = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\ntrials = 1\n");

  fleet::Worker::Options w;
  w.port = port;
  w.id = "solo";
  w.poll_seconds = 0.05;
  fleet::Worker worker(w);
  EXPECT_EQ(worker.run().shards, 10u);
  ASSERT_TRUE(coordinator.finished(id));

  const auto traced = fleet::http_get("127.0.0.1", port, "/trace/" + id);
  ASSERT_EQ(traced.status, 200);
  const util::Json doc = util::Json::parse(traced.body);
  const util::Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::pair<double, double>> shards;  // (ts, dur) in us
  for (std::size_t i = 0; i < events->size(); ++i) {
    const util::Json& event = events->at(i);
    if (event.get("ph")->as_string() != "X" ||
        event.get("name")->as_string() != "fleet.shard") {
      continue;
    }
    shards.emplace_back(event.get("ts")->as_double(),
                        event.get("dur")->as_double());
  }
  ASSERT_EQ(shards.size(), 10u);
  std::sort(shards.begin(), shards.end());
  std::vector<double> gaps_ms;
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const auto& [ts, dur] = shards[i - 1];
    gaps_ms.push_back((shards[i].first - (ts + dur)) / 1000.0);
  }
  std::nth_element(gaps_ms.begin(), gaps_ms.begin() + gaps_ms.size() / 2,
                   gaps_ms.end());
  EXPECT_LT(gaps_ms[gaps_ms.size() / 2], 20.0);
  coordinator.stop();
}

}  // namespace
