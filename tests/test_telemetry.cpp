// Telemetry subsystem tests: the span profiler (nesting, aggregation,
// gating, the bounded event buffer), histogram percentile estimation, the
// Prometheus text renderer (golden output — the exposition format is an
// interchange contract), the sliding-window rate estimator and its ETA
// monotonicity contract, the stall watchdog driven with a fake in-flight
// board, the campaign /status document schema, cooperative shutdown
// signals, and the embedded HTTP endpoint exercised end-to-end over a
// real loopback socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/status.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/context.hpp"
#include "obs/telemetry/http_server.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "obs/telemetry/rate.hpp"
#include "obs/telemetry/signals.hpp"
#include "obs/telemetry/span.hpp"
#include "obs/telemetry/watchdog.hpp"
#include "util/json.hpp"

namespace {

using namespace pbw;

// ---- span profiler ---------------------------------------------------------

TEST(Span, NestingRecordsDepthAndAggregates) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  {
    PBW_SPAN("outer");
    {
      PBW_SPAN("inner");
    }
    {
      PBW_SPAN("inner");
    }
  }
  const auto events = registry.events();
  ASSERT_EQ(events.size(), 3u);
  // Spans close inner-first; all on this thread, so one tid.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_EQ(events[0].tid, events[2].tid);
  // The outer span contains both inner ones.
  EXPECT_LE(events[2].start_ns, events[0].start_ns);
  EXPECT_GE(events[2].dur_ns, events[0].dur_ns + events[1].dur_ns);

  const auto aggregates = registry.aggregates();
  ASSERT_EQ(aggregates.count("inner"), 1u);
  EXPECT_EQ(aggregates.at("inner").count, 2u);
  EXPECT_EQ(aggregates.at("outer").count, 1u);
  EXPECT_GE(aggregates.at("outer").total_ns, aggregates.at("outer").max_ns);
}

TEST(Span, MirrorsIntoMetricsRegistry) {
  obs::SpanRegistry::global().reset();
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t before = metrics.counter("span.phase.count").value();
  {
    PBW_SPAN("phase");
  }
  EXPECT_EQ(metrics.counter("span.phase.count").value(), before + 1);
}

TEST(Span, SiteGateAndGlobalToggleDisableRecording) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  {
    obs::Span gated("gated", false);
    EXPECT_EQ(gated.stop(), 0u);
  }
  registry.set_enabled(false);
  {
    PBW_SPAN("while_disabled");
  }
  registry.set_enabled(true);
  EXPECT_TRUE(registry.events().empty());
  EXPECT_TRUE(registry.aggregates().empty());
}

TEST(Span, StopIsIdempotentAndReturnsDuration) {
  obs::SpanRegistry::global().reset();
  obs::Span span("once");
  const std::uint64_t first = span.stop();
  EXPECT_EQ(span.stop(), 0u);  // already closed
  EXPECT_GE(first, 0u);
  EXPECT_EQ(obs::SpanRegistry::global().aggregates().at("once").count, 1u);
}

TEST(Span, EventBufferBoundedAggregatesStillUpdate) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  const std::size_t extra = 7;
  for (std::size_t i = 0; i < obs::SpanRegistry::kMaxEvents + extra; ++i) {
    registry.record({"flood", 0, 1, 0, 0});
  }
  EXPECT_EQ(registry.events().size(), obs::SpanRegistry::kMaxEvents);
  EXPECT_EQ(registry.dropped(), extra);
  EXPECT_EQ(registry.aggregates().at("flood").count,
            obs::SpanRegistry::kMaxEvents + extra);
  registry.reset();
}

// ---- histogram percentiles -------------------------------------------------

TEST(Percentiles, LinearInterpolationOnUniformData) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("lat", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i) + 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);   // min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.5);  // max
}

TEST(Percentiles, ClampedToObservedRangeAndEmptyIsZero) {
  obs::MetricsRegistry registry;
  auto& empty = registry.histogram("none", 0.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  // One observation in a single coarse bucket: interpolation alone would
  // report the bucket midpoint; the clamp pins it to the observed value.
  auto& one = registry.histogram("one", 0.0, 10.0, 1);
  one.observe(7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.99), 7.0);
}

TEST(Percentiles, HistogramJsonCarriesPercentileKeys) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("lat", 0.0, 10.0, 5);
  h.observe(2.0);
  h.observe(8.0);
  const util::Json j = h.to_json();
  ASSERT_NE(j.get("p50"), nullptr);
  ASSERT_NE(j.get("p95"), nullptr);
  ASSERT_NE(j.get("p99"), nullptr);
  EXPECT_DOUBLE_EQ(j.get("p50")->as_double(), h.quantile(0.5));
  // Deterministic key order: percentiles sit between max and buckets.
  const auto& members = j.members();
  std::vector<std::string> keys;
  keys.reserve(members.size());
  for (const auto& [key, value] : members) keys.push_back(key);
  const std::vector<std::string> expected = {
      "count", "sum", "mean", "min", "max", "p50", "p95", "p99", "buckets"};
  EXPECT_EQ(keys, expected);
}

// ---- Prometheus text exposition --------------------------------------------

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(obs::prometheus_name("campaign.job_seconds"),
            "pbw_campaign_job_seconds");
  EXPECT_EQ(obs::prometheus_name("span.engine.step.total_ns"),
            "pbw_span_engine_step_total_ns");
}

TEST(Prometheus, GoldenRendering) {
  obs::MetricsRegistry registry;
  registry.counter("jobs").add(3);
  registry.gauge("depth").set(2.5);
  auto& h = registry.histogram("lat", 0.0, 10.0, 2);
  h.observe(1.0);
  h.observe(9.0);

  const std::string expected =
      "# TYPE pbw_jobs counter\n"
      "pbw_jobs 3\n"
      "# TYPE pbw_depth gauge\n"
      "pbw_depth 2.5\n"
      "# TYPE pbw_lat histogram\n"
      "pbw_lat_bucket{le=\"5\"} 1\n"
      "pbw_lat_bucket{le=\"10\"} 2\n"
      "pbw_lat_bucket{le=\"+Inf\"} 2\n"
      "pbw_lat_sum 10\n"
      "pbw_lat_count 2\n"
      "# TYPE pbw_lat_p50 gauge\n"
      "pbw_lat_p50 5\n"
      "# TYPE pbw_lat_p95 gauge\n"
      "pbw_lat_p95 9\n"
      "# TYPE pbw_lat_p99 gauge\n"
      "pbw_lat_p99 9\n";
  EXPECT_EQ(obs::render_prometheus(registry.to_json()), expected);
}

TEST(Prometheus, EmptyRegistryRendersEmpty) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(obs::render_prometheus(registry.to_json()), "");
}

// ---- rate estimator / ETA --------------------------------------------------

TEST(Rate, UnknownBeforeTwoSamplesZeroWhenDone) {
  obs::RateEstimator rate;
  EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
  EXPECT_DOUBLE_EQ(rate.eta_seconds(10), -1.0);
  rate.observe(0.0, 0);
  EXPECT_DOUBLE_EQ(rate.eta_seconds(10), -1.0);
  rate.observe(1.0, 2);
  EXPECT_DOUBLE_EQ(rate.rate(), 2.0);
  EXPECT_DOUBLE_EQ(rate.eta_seconds(10), 5.0);
  EXPECT_DOUBLE_EQ(rate.eta_seconds(0), 0.0);
}

TEST(Rate, EtaMonotoneUnderConstantRate) {
  // The contract: at a constant completion rate with shrinking remaining
  // work, the estimate never increases.
  obs::RateEstimator rate(30.0);
  rate.observe(0.0, 0);
  double last_eta = 1e300;
  for (std::uint64_t t = 1; t <= 100; ++t) {
    rate.observe(static_cast<double>(t), t);  // 1 job/s
    const double eta = rate.eta_seconds(100 - t);
    ASSERT_GE(eta, 0.0);
    ASSERT_LE(eta, last_eta) << "ETA rose at t=" << t;
    last_eta = eta;
  }
  EXPECT_DOUBLE_EQ(last_eta, 0.0);
}

TEST(Rate, WindowAgesOutOldSamples) {
  obs::RateEstimator rate(10.0);
  rate.observe(0.0, 0);
  rate.observe(1.0, 100);  // burst: 100 jobs/s
  // Long quiet stretch; the burst leaves the window and the measured rate
  // reflects recent history only.
  rate.observe(50.0, 101);
  rate.observe(60.0, 102);
  EXPECT_NEAR(rate.rate(), 0.1, 1e-12);
  EXPECT_LE(rate.sample_count(), 3u);
}

TEST(Rate, PruningAlwaysKeepsTwoNewestSamples) {
  obs::RateEstimator rate(0.001);  // window shorter than sample spacing
  rate.observe(0.0, 0);
  rate.observe(10.0, 5);
  rate.observe(20.0, 10);
  EXPECT_EQ(rate.sample_count(), 2u);
  EXPECT_NEAR(rate.rate(), 0.5, 1e-12);  // last-interval rate, not blind
}

// ---- watchdog --------------------------------------------------------------

TEST(Watchdog, FlagsSlowTaskOncePerEpisode) {
  std::vector<obs::WatchdogTask> board;
  std::vector<std::string> fired;
  obs::Watchdog dog(
      5.0, [&] { return board; },
      [&](const obs::WatchdogTask& task) { fired.push_back(task.name); });

  board = {{"fast", 1.0}, {"slow", 3.0}};
  EXPECT_TRUE(dog.check().empty());
  EXPECT_TRUE(fired.empty());

  board = {{"fast", 2.0}, {"slow", 6.0}};  // slow crosses the threshold
  auto stalled = dog.check();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].name, "slow");
  EXPECT_EQ(fired, std::vector<std::string>{"slow"});

  board = {{"slow", 7.0}};  // still stalled: reported, not re-fired
  stalled = dog.check();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(dog.stalls_detected(), 1u);

  board = {};  // the job finished; its episode ends
  EXPECT_TRUE(dog.check().empty());

  board = {{"slow", 6.0}};  // same key stalls again: a new episode fires
  dog.check();
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(dog.stalls_detected(), 2u);
}

TEST(Watchdog, HeartbeatThreadDetectsFakeSlowJob) {
  std::vector<obs::WatchdogTask> board = {{"wedged", 10.0}};
  std::mutex mutex;
  obs::Watchdog dog(
      0.001,
      [&] {
        std::lock_guard lock(mutex);
        return board;
      },
      [](const obs::WatchdogTask&) {});
  dog.start(0.002);
  for (int i = 0; i < 500 && dog.stalls_detected() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  dog.stop();
  EXPECT_GE(dog.stalls_detected(), 1u);
}

TEST(Watchdog, StopWakesTheHeartbeatAtOnce) {
  // Every campaign run starts and stops a watchdog; stop() must not wait
  // out the poll interval (or any slice of it).  Each cycle stops the
  // watchdog once its first poll is done, when the thread is waiting.
  std::atomic<int> polls{0};
  obs::Watchdog dog(
      30.0,
      [&] {
        ++polls;
        return std::vector<obs::WatchdogTask>{};
      },
      [](const obs::WatchdogTask&) {});
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 1; i <= 20; ++i) {
    dog.start(1.0);
    while (polls.load() < i) std::this_thread::yield();
    dog.stop();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  EXPECT_EQ(polls.load(), 20);
}

// ---- campaign status / the /status document --------------------------------

TEST(CampaignStatus, StatusDocumentSchema) {
  campaign::CampaignStatus status;
  EXPECT_EQ(status.to_json().get("state")->as_string(), "idle");

  status.begin(/*total=*/10, /*skipped=*/2, /*workers=*/2);
  status.worker_begin(0, "jobA");
  status.job_done("scenario1", 0.5, /*recosted=*/false);
  status.job_done("scenario1", 0.1, /*recosted=*/true);
  status.set_tape_cache(/*hits=*/3, /*misses=*/1, /*evictions=*/0,
                        /*rejected=*/2, /*bytes=*/1024);

  const util::Json j = status.to_json();
  EXPECT_EQ(j.get("state")->as_string(), "running");
  EXPECT_GE(j.get("elapsed_seconds")->as_double(), 0.0);

  const util::Json* jobs = j.get("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->get("total")->as_int(), 10);
  EXPECT_EQ(jobs->get("skipped")->as_int(), 2);
  EXPECT_EQ(jobs->get("done")->as_int(), 2);
  EXPECT_EQ(jobs->get("simulated")->as_int(), 1);
  EXPECT_EQ(jobs->get("recosted")->as_int(), 1);
  EXPECT_EQ(jobs->get("failed")->as_int(), 0);
  EXPECT_EQ(jobs->get("remaining")->as_int(), 6);

  const util::Json* cache = j.get("tape_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->get("hits")->as_int(), 3);
  EXPECT_EQ(cache->get("rejected")->as_int(), 2);
  EXPECT_DOUBLE_EQ(cache->get("hit_rate")->as_double(), 0.75);

  const util::Json* scenario = j.get("scenarios")->get("scenario1");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->get("done")->as_int(), 2);
  EXPECT_GT(scenario->get("jobs_per_second")->as_double(), 0.0);

  ASSERT_NE(j.get("rate_jobs_per_second"), nullptr);
  ASSERT_NE(j.get("eta_seconds"), nullptr);

  const util::Json* workers = j.get("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->size(), 2u);
  EXPECT_EQ(workers->at(0).get("job")->as_string(), "jobA");
  EXPECT_EQ(workers->at(1).get("job")->as_string(), "");

  status.finish(/*interrupted=*/false);
  EXPECT_EQ(status.to_json().get("state")->as_string(), "done");
  status.finish(/*interrupted=*/true);
  EXPECT_EQ(status.to_json().get("state")->as_string(), "interrupted");
}

TEST(CampaignStatus, InFlightBoardAndStallMarks) {
  campaign::CampaignStatus status;
  status.begin(4, 0, 2);
  status.worker_begin(0, "slow-job");
  status.worker_begin(1, "quick-job");
  status.worker_end(1);

  const auto tasks = status.in_flight();
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].name, "slow-job");
  EXPECT_GE(tasks[0].seconds, 0.0);

  status.mark_stalled("slow-job");
  const util::Json j = status.to_json();
  ASSERT_EQ(j.get("stalled")->size(), 1u);
  EXPECT_EQ(j.get("stalled")->at(0).as_string(), "slow-job");
  EXPECT_TRUE(j.get("workers")->at(0).get("stalled")->as_bool());
}

// ---- shutdown signals ------------------------------------------------------

TEST(Signals, HandlerSetsFlagOnFirstSignal) {
  obs::install_shutdown_signals();
  obs::reset_shutdown_for_tests();
  EXPECT_FALSE(obs::shutdown_requested());
  EXPECT_FALSE(obs::shutdown_flag()->load());
  ::raise(SIGTERM);  // one signal only: a second would _exit the test
  EXPECT_TRUE(obs::shutdown_requested());
  EXPECT_EQ(obs::shutdown_signal(), SIGTERM);
  EXPECT_TRUE(obs::shutdown_flag()->load());
  obs::reset_shutdown_for_tests();
  EXPECT_FALSE(obs::shutdown_requested());
}

// ---- HTTP endpoint (real loopback sockets) ---------------------------------

/// Minimal blocking HTTP client: one request, whole response as a string.
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Connection: close\r\n\r\n");
}

TEST(HttpServer, ServesHandlersOverLoopback) {
  obs::HttpServer server;
  server.route("GET", "/metrics", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = "metric 1\n";
    return r;
  });
  server.route("GET", "/status", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = "{\"state\":\"running\"}";
    return r;
  });
  server.route("GET", "/boom",
               [](const obs::HttpRequest&) -> obs::HttpResponse {
                 throw std::runtime_error("handler exploded");
               });
  server.start(0);  // ephemeral port
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("metric 1\n"), std::string::npos);

  // Query strings are stripped before handler lookup.
  const std::string with_query = http_get(server.port(), "/status?pretty=1");
  EXPECT_NE(with_query.find("200 OK"), std::string::npos);
  EXPECT_NE(with_query.find("application/json"), std::string::npos);
  EXPECT_NE(with_query.find("\"state\":\"running\""), std::string::npos);

  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_request(server.port(),
                         "POST /metrics HTTP/1.1\r\nHost: x\r\n"
                         "Connection: close\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/boom").find("500"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

/// Sends `bytes`, closes the sending side and reads until the server
/// closes: what a peer that gives up mid-request gets back.
std::string http_send_and_hang_up(std::uint16_t port,
                                  const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Sends `bytes` as a peer that hangs up, and expects no answer and one
/// more http.dropped{reason} (and nothing under the other reasons).
void expect_dropped(const std::string& bytes, const std::string& reason) {
  obs::HttpServer server;
  server.route("POST", "/echo", [](const obs::HttpRequest& request) {
    obs::HttpResponse r;
    r.body = request.body;
    return r;
  });
  server.start(0);
  const util::Json before = obs::HttpServer::dropped();
  EXPECT_EQ(http_send_and_hang_up(server.port(), bytes), "");
  server.stop();  // joins the accept thread: the count is in
  const util::Json after = obs::HttpServer::dropped();
  for (const char* r : {"headers", "request_line", "body"}) {
    EXPECT_EQ(after.get(r)->as_int() - before.get(r)->as_int(),
              r == reason ? 1 : 0)
        << r;
  }
  const std::string prometheus =
      obs::render_prometheus(obs::MetricsRegistry::global().to_json());
  EXPECT_NE(prometheus.find("pbw_http_dropped{reason=\"" + reason + "\"}"),
            std::string::npos);
  // The campaign's /status document carries the same counts.
  campaign::CampaignStatus status;
  const util::Json doc = status.to_json();
  ASSERT_NE(doc.get("http_dropped"), nullptr);
  EXPECT_EQ(doc.get("http_dropped")->get(reason)->as_int(),
            after.get(reason)->as_int());
}

TEST(HttpServer, UnfinishedHeaderBlockIsDroppedAndCounted) {
  expect_dropped("POST /echo HTTP/1.1\r\nHost: x\r\n", "headers");
}

TEST(HttpServer, BadRequestLineIsDroppedAndCounted) {
  expect_dropped("GARBAGE\r\nHost: x\r\n\r\n", "request_line");
}

TEST(HttpServer, BodyCutShortIsDroppedAndCounted) {
  expect_dropped(
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
      "only ten b",
      "body");
}

TEST(HttpServer, SequentialRequestsAndRestartOnNewPort) {
  obs::HttpServer server;
  int hits = 0;
  server.route("GET", "/count", [&hits](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = std::to_string(++hits);
    return r;
  });
  server.start(0);
  const std::uint16_t port = server.port();
  EXPECT_NE(http_get(port, "/count").find("\r\n\r\n1"), std::string::npos);
  EXPECT_NE(http_get(port, "/count").find("\r\n\r\n2"), std::string::npos);
  EXPECT_NE(http_get(port, "/count").find("\r\n\r\n3"), std::string::npos);
  server.stop();
}

TEST(HttpServer, ServesLivePrometheusSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("live.requests").add(7);
  obs::HttpServer server;
  server.route("GET", "/metrics", [&registry](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::render_prometheus(registry.to_json());
    return r;
  });
  server.start(0);
  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("pbw_live_requests 7"), std::string::npos);
  server.stop();
}

// ---- trace context ---------------------------------------------------------

TEST(TraceContext, RootFormatParseRoundTrip) {
  const obs::TraceContext root = obs::TraceContext::make_root();
  ASSERT_TRUE(root.valid());
  const std::string wire = root.format();
  ASSERT_EQ(wire.size(), 55u);
  EXPECT_EQ(wire.substr(0, 3), "00-");
  EXPECT_EQ(wire.substr(52), "-01");

  const obs::TraceContext back = obs::TraceContext::parse(wire);
  ASSERT_TRUE(back.valid());
  EXPECT_EQ(back.trace_hi, root.trace_hi);
  EXPECT_EQ(back.trace_lo, root.trace_lo);
  EXPECT_EQ(back.span_id, root.span_id);
  EXPECT_TRUE(back.same_trace(root));
  EXPECT_EQ(back.trace_id_hex(), root.trace_id_hex());
  EXPECT_EQ(back.trace_id_hex().size(), 32u);

  // Two roots never share a trace; an invalid context formats to "".
  EXPECT_FALSE(obs::TraceContext::make_root().same_trace(root));
  EXPECT_EQ(obs::TraceContext{}.format(), "");
}

TEST(TraceContext, ChildSharesTraceWithFreshSpan) {
  const obs::TraceContext root = obs::TraceContext::make_root();
  const obs::TraceContext child = root.child();
  ASSERT_TRUE(child.valid());
  EXPECT_TRUE(child.same_trace(root));
  EXPECT_NE(child.span_id, root.span_id);
  // An invalid context has no children.
  EXPECT_FALSE(obs::TraceContext{}.child().valid());
}

TEST(TraceContext, ParseRejectsMalformedWire) {
  const std::string good = obs::TraceContext::make_root().format();
  EXPECT_TRUE(obs::TraceContext::parse(good).valid());
  // Uppercase hex is tolerated (case-insensitive parse, lowercase emit).
  std::string upper = good;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  // "00-...-01" survives toupper unchanged in its literal parts.
  EXPECT_TRUE(obs::TraceContext::parse(upper).valid());

  const std::string bad[] = {
      "",                                  // empty
      good.substr(0, 54),                  // truncated by one byte
      good + "0",                          // one byte too long
      good + good,                         // oversized
      "01" + good.substr(2),               // unknown version
      std::string(55, 'z'),                // no structure at all
      "00-zz" + good.substr(5),            // bad hex in the trace id
      good.substr(0, 36) + "zz" + good.substr(38),  // bad hex in the span id
      "00-00000000000000000000000000000000-1234567890abcdef-01",  // zero trace
      "00-1234567890abcdef1234567890abcdef-0000000000000000-01",  // zero span
  };
  for (const std::string& wire : bad) {
    const obs::TraceContext parsed = obs::TraceContext::parse(wire);
    EXPECT_FALSE(parsed.valid()) << "accepted: " << wire;
    EXPECT_EQ(parsed.format(), "");
  }
}

TEST(TraceContext, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(obs::current_context().valid());
  const obs::TraceContext outer = obs::TraceContext::make_root();
  {
    obs::ScopedContext a(outer);
    EXPECT_EQ(obs::current_context().span_id, outer.span_id);
    const obs::TraceContext inner = outer.child();
    {
      obs::ScopedContext b(inner);
      EXPECT_EQ(obs::current_context().span_id, inner.span_id);
    }
    EXPECT_EQ(obs::current_context().span_id, outer.span_id);
  }
  EXPECT_FALSE(obs::current_context().valid());
}

TEST(TraceContext, SpansAreStampedWithTheCurrentContext) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  const obs::TraceContext trace = obs::TraceContext::make_root();
  {
    PBW_SPAN("unstamped");
  }
  {
    obs::ScopedContext scope(trace);
    PBW_SPAN("stamped");
  }
  const auto events = registry.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "unstamped");
  EXPECT_EQ(events[0].trace_hi, 0u);
  EXPECT_EQ(events[0].trace_lo, 0u);
  EXPECT_EQ(events[0].parent_span, 0u);
  EXPECT_EQ(events[1].name, "stamped");
  EXPECT_EQ(events[1].trace_hi, trace.trace_hi);
  EXPECT_EQ(events[1].trace_lo, trace.trace_lo);
  EXPECT_EQ(events[1].parent_span, trace.span_id);
  registry.reset();
}

TEST(TraceContext, RequestIdsAreUniqueAndPrefixed) {
  const std::string a = obs::next_request_id();
  const std::string b = obs::next_request_id();
  EXPECT_EQ(a.size(), 18u);
  EXPECT_EQ(a.substr(0, 2), "r-");
  EXPECT_NE(a, b);
}

// ---- scoped span collector -------------------------------------------------

TEST(SpanCollector, RedirectsEventsAwayFromTheGlobalBuffer) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  {
    PBW_SPAN("global_before");
  }
  std::vector<obs::SpanEvent> collected;
  {
    obs::ScopedSpanCollector collector;
    {
      PBW_SPAN("diverted");
    }
    collected = collector.take();
  }
  {
    PBW_SPAN("global_after");
  }
  // The diverted span reached only the collector, but its aggregate (and
  // metric mirror) still landed globally.
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].name, "diverted");
  const auto events = registry.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "global_before");
  EXPECT_EQ(events[1].name, "global_after");
  EXPECT_EQ(registry.aggregates().at("diverted").count, 1u);
  registry.reset();
}

TEST(SpanCollector, NestedCollectorsRestoreTheOuterOne) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  obs::ScopedSpanCollector outer;
  {
    obs::ScopedSpanCollector inner;
    {
      PBW_SPAN("inner_span");
    }
    EXPECT_EQ(inner.take().size(), 1u);
  }
  {
    PBW_SPAN("outer_span");
  }
  const auto events = outer.take();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "outer_span");
  EXPECT_TRUE(registry.events().empty());
  registry.reset();
}

TEST(Span, NoteDroppedFeedsTheCounterAndStatusBoard) {
  auto& registry = obs::SpanRegistry::global();
  registry.reset();
  const std::uint64_t counter_before =
      obs::MetricsRegistry::global().counter("span.events_dropped").value();
  registry.note_dropped(3);
  EXPECT_EQ(registry.dropped(), 3u);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("span.events_dropped").value(),
      counter_before + 3);
  // The campaign status board surfaces the same tally.
  campaign::CampaignStatus status;
  const util::Json j = status.to_json();
  ASSERT_NE(j.get("span_events_dropped"), nullptr);
  EXPECT_EQ(j.get("span_events_dropped")->as_int(), 3);
  registry.reset();
}

// ---- prometheus label rendering --------------------------------------------

TEST(Prometheus, LabeledSeriesShareOneTypeHeader) {
  obs::MetricsRegistry registry;
  registry.counter("http.requests{method=\"GET\",path=\"/status\",status=\"200\"}")
      .add(4);
  registry.counter("http.requests{method=\"GET\",path=\"/status\",status=\"404\"}")
      .add(1);
  registry.counter("plain.count").add(2);
  const std::string text = obs::render_prometheus(registry.to_json());
  // The base name is sanitized; the label block passes through verbatim.
  EXPECT_NE(text.find("pbw_http_requests{method=\"GET\",path=\"/status\","
                      "status=\"200\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("pbw_http_requests{method=\"GET\",path=\"/status\","
                      "status=\"404\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pbw_plain_count 2"), std::string::npos);
  // One # TYPE line per base name, even with several labeled series.
  std::size_t type_lines = 0;
  std::size_t at = 0;
  while ((at = text.find("# TYPE pbw_http_requests ", at)) !=
         std::string::npos) {
    ++type_lines;
    ++at;
  }
  EXPECT_EQ(type_lines, 1u);
}

// ---- http middleware: ids, metrics, tracing, access log --------------------

std::string trace_get(std::uint16_t port, const std::string& path,
                      const std::string& header_value) {
  return http_request(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n" +
                                obs::kTraceHeader + ": " + header_value +
                                "\r\nConnection: close\r\n\r\n");
}

TEST(HttpServer, MiddlewareStampsIdsMetricsAndPropagatesTraces) {
  auto& metrics = obs::MetricsRegistry::global();
  const std::string ok_series =
      "http.requests{method=\"GET\",path=\"/echo\",status=\"200\"}";
  const std::uint64_t ok_before = metrics.counter(ok_series).value();

  obs::HttpServer server;
  std::mutex seen_mutex;  // handler runs on the server thread
  obs::HttpRequest seen_storage;
  server.route("GET", "/echo",
               [&seen_mutex, &seen_storage](const obs::HttpRequest& r) {
                 std::lock_guard lock(seen_mutex);
                 seen_storage = r;
                 obs::HttpResponse resp;
                 resp.body = obs::current_context().trace_id_hex();
                 return resp;
               });
  auto seen = [&seen_mutex, &seen_storage] {
    std::lock_guard lock(seen_mutex);
    return seen_storage;
  };
  server.start(0);
  const std::uint16_t port = server.port();

  // No header: the middleware mints a fresh root and installs it.
  const std::string bare = http_get(port, "/echo");
  EXPECT_NE(bare.find("X-Pbw-Request-Id: r-"), std::string::npos);
  EXPECT_FALSE(seen().trace_propagated);
  ASSERT_TRUE(seen().trace.valid());
  EXPECT_NE(bare.find(seen().trace.trace_id_hex()), std::string::npos);
  EXPECT_EQ(seen().id.substr(0, 2), "r-");

  // A valid header: the handler runs under the caller's trace.
  const obs::TraceContext upstream = obs::TraceContext::make_root();
  const std::string traced = trace_get(port, "/echo", upstream.format());
  EXPECT_NE(traced.find("200 OK"), std::string::npos);
  EXPECT_TRUE(seen().trace_propagated);
  EXPECT_TRUE(seen().trace.same_trace(upstream));
  EXPECT_EQ(seen().trace.span_id, upstream.span_id);
  EXPECT_NE(traced.find(upstream.trace_id_hex()), std::string::npos);

  // Fuzzed headers: truncated, junk, oversized — all served, trace local.
  for (const std::string& hostile :
       {upstream.format().substr(0, 20), std::string("not-a-trace"),
        std::string(obs::kMaxTraceHeaderBytes + 10, 'a')}) {
    const std::string served = trace_get(port, "/echo", hostile);
    EXPECT_NE(served.find("200 OK"), std::string::npos) << hostile.size();
    EXPECT_FALSE(seen().trace_propagated);
    EXPECT_TRUE(seen().trace.valid());
    EXPECT_FALSE(seen().trace.same_trace(upstream));
  }

  // 404s land on the "unmatched" label, never the raw path.
  const std::string unmatched_series =
      "http.requests{method=\"GET\",path=\"unmatched\",status=\"404\"}";
  const std::uint64_t unmatched_before =
      metrics.counter(unmatched_series).value();
  http_get(port, "/definitely/not/registered");
  EXPECT_EQ(metrics.counter(unmatched_series).value(), unmatched_before + 1);

  server.stop();
  EXPECT_EQ(metrics.counter(ok_series).value(), ok_before + 5);
  const util::Json latency =
      metrics.histogram("http.latency./echo", 0.0, 10.0, 64).to_json();
  EXPECT_GE(latency.get("count")->as_int(), 5);
  EXPECT_EQ(metrics.gauge("http.in_flight").value(), 0.0);
}

TEST(HttpServer, AccessLogWritesOneJsonRowPerRequest) {
  const auto log_path =
      (std::filesystem::temp_directory_path() / "pbw_access_log_test.jsonl")
          .string();
  std::remove(log_path.c_str());

  obs::HttpServer server;
  server.route("GET", "/ping", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = "pong";
    return r;
  });
  server.set_access_log(log_path);
  server.start(0);
  const std::uint16_t port = server.port();
  http_get(port, "/ping");
  http_get(port, "/missing");
  server.stop();

  std::ifstream in(log_path);
  std::vector<util::Json> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(util::Json::parse(line));
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].get("method")->as_string(), "GET");
  EXPECT_EQ(rows[0].get("path")->as_string(), "/ping");
  EXPECT_EQ(rows[0].get("status")->as_int(), 200);
  EXPECT_GT(rows[0].get("bytes")->as_int(), 0);
  EXPECT_GE(rows[0].get("duration_ms")->as_double(), 0.0);
  EXPECT_EQ(rows[0].get("id")->as_string().substr(0, 2), "r-");
  EXPECT_EQ(rows[0].get("trace")->as_string().size(), 32u);
  EXPECT_EQ(rows[1].get("path")->as_string(), "/missing");
  EXPECT_EQ(rows[1].get("status")->as_int(), 404);
  EXPECT_NE(rows[0].get("id")->as_string(), rows[1].get("id")->as_string());
  std::remove(log_path.c_str());
}

// ---- chrome trace validator ------------------------------------------------

TEST(ChromeTrace, ValidatorAcceptsWriterOutput) {
  obs::TraceRun run;
  run.id = 0;
  run.info.model = "bsp";
  run.records.push_back({0, 10.0, 4.0, 2.0, 2.0, 0.0, 0.0, 4.0, "w", 5, 1});
  std::vector<obs::SpanEvent> spans;
  spans.push_back({"phase", 100, 50, 0, 0});
  std::ostringstream out;
  obs::write_chrome_trace({run}, spans, out);
  std::istringstream in(out.str());
  const obs::ChromeTraceValidation v = obs::validate_chrome_trace(in);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.slices, 2u);  // one superstep + one span
  EXPECT_EQ(v.metas, 2u);   // run process name + host process name
}

TEST(ChromeTrace, ValidatorRejectsStructuralJunk) {
  const std::pair<const char*, const char*> cases[] = {
      {"not json at all", "not JSON"},
      {"[]", "not an object"},
      {"{}", "missing traceEvents"},
      {"{\"traceEvents\": 7}", "missing traceEvents"},
      {"{\"traceEvents\": [42]}", "not an object"},
      {"{\"traceEvents\": [{\"name\": \"x\"}]}", "missing ph"},
      {"{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\", \"pid\": 0, "
       "\"tid\": 0, \"ts\": 1}]}",
       "bad dur"},
      {"{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\", \"pid\": 0, "
       "\"tid\": 0, \"ts\": 1, \"dur\": -2}]}",
       "bad dur"},
  };
  for (const auto& [doc, want] : cases) {
    std::istringstream in(doc);
    const obs::ChromeTraceValidation v = obs::validate_chrome_trace(in);
    EXPECT_FALSE(v.ok) << doc;
    EXPECT_NE(v.error.find(want), std::string::npos)
        << doc << " -> " << v.error;
  }
}

}  // namespace
