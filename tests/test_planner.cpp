// Planner subsystem tests: solve()'s optimum must be bit-equal to a
// brute-force scalar recost() argmin over the same grid, the marginals
// must carry the right signs on bandwidth- vs latency-bound tapes, one
// /plan request must cost exactly one tape pass regardless of grid size,
// and the HTTP surface must map malformed requests to 4xx, not 500.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/cost.hpp"
#include "fleet/http_client.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/http_server.hpp"
#include "planner/planner.hpp"
#include "planner/service.hpp"
#include "planner/wire.hpp"
#include "replay/batch.hpp"
#include "replay/tape.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pbw;

/// A synthetic tape exercising every stats field, including empty and
/// overloaded slot vectors.
replay::StatsTape random_tape(std::uint64_t seed, std::size_t steps) {
  util::Xoshiro256 rng(seed);
  replay::StatsTape tape;
  tape.p = 16;
  tape.seed = seed;
  tape.captured_model = "synthetic";
  for (std::size_t i = 0; i < steps; ++i) {
    engine::SuperstepStats s;
    s.max_work = static_cast<double>(rng.below(1024)) / 8.0;
    s.max_sent = rng.below(256);
    s.max_received = rng.below(256);
    s.total_flits = s.max_sent + rng.below(2048);
    s.max_reads = rng.below(64);
    s.max_writes = rng.below(64);
    s.kappa = rng.below(512);
    s.total_requests = rng.below(128);
    const std::size_t slots = rng.below(6);
    for (std::size_t t = 0; t < slots; ++t) {
      s.slot_counts.push_back(rng.below(48));
    }
    tape.append(s);
    tape.total_flits += s.total_flits;
  }
  return tape;
}

/// A tape whose charge is dominated by communication volume: more local
/// bandwidth (smaller g) or more global bandwidth (larger m) must help.
replay::StatsTape bandwidth_bound_tape() {
  replay::StatsTape tape;
  tape.p = 16;
  tape.seed = 1;
  for (int i = 0; i < 4; ++i) {
    engine::SuperstepStats s;
    s.max_work = 1.0;
    s.max_sent = 1000;
    s.max_received = 1000;
    s.total_flits = 16000;
    s.slot_counts = {16000};  // one slot, heavily overloaded for small m
    tape.append(s);
    tape.total_flits += s.total_flits;
  }
  return tape;
}

/// A tape that does nothing but synchronize: L is the whole bill.
replay::StatsTape latency_bound_tape() {
  replay::StatsTape tape;
  tape.p = 16;
  tape.seed = 1;
  for (int i = 0; i < 64; ++i) {
    engine::SuperstepStats s;
    s.max_work = 0.0;
    tape.append(s);
  }
  return tape;
}

/// An envelope crossing all five families over several values per axis.
planner::Envelope wide_envelope() {
  planner::Envelope envelope;
  envelope.g = {1.0, 2.0, 4.0, 8.0};
  envelope.L = {1.0, 4.0, 16.0};
  envelope.m = {1, 4, 16, 64};
  envelope.penalties = {core::Penalty::kLinear, core::Penalty::kExponential};
  return envelope;
}

// ---- solve() vs brute force ------------------------------------------------

TEST(PlannerSolve, OptimumBitEqualToBruteForceScalarArgmin) {
  const replay::StatsTape tape = random_tape(11, 24);
  const planner::Envelope envelope = wide_envelope();
  const planner::PlanResult result = planner::solve(tape, envelope);

  // Brute force: scalar-recost every enumerated point, track the argmin
  // with the same lowest-index tie-break.
  const std::vector<replay::CostPointSpec> points = envelope.enumerate();
  ASSERT_EQ(points.size(), envelope.grid_size());
  ASSERT_EQ(result.grid_points, points.size());
  std::size_t best_index = 0;
  engine::SimTime best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < points.size(); ++k) {
    const auto model = planner::make_model(tape.p, points[k]);
    const engine::SimTime cost = replay::recost(tape, *model).total_time;
    if (cost < best_cost) {
      best_cost = cost;
      best_index = k;
    }
  }
  EXPECT_EQ(result.best.index, best_index);
  // Bit-equal, not approximately equal: the batched kernel and the scalar
  // recost must charge identically.
  EXPECT_EQ(result.best.cost, best_cost);

  // Every frontier point's cost must also be the scalar recost of its spec.
  for (const planner::PlannedPoint& point : result.frontier) {
    const auto model = planner::make_model(tape.p, point.spec);
    EXPECT_EQ(point.cost, replay::recost(tape, *model).total_time);
    EXPECT_LE(point.cost,
              best_cost * (1.0 + envelope.frontier_percent / 100.0));
  }
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_EQ(result.frontier.front().index, result.best.index);
  EXPECT_GE(result.frontier_total, result.frontier.size());
}

TEST(PlannerSolve, PooledSolveBitEqualToInlineAndReportsKernel) {
  // solve() lends the batch pass a thread pool; the plan must not move
  // by a single bit, and the result must say which kernel charged it.
  const auto tape = random_tape(11, 24);
  planner::Envelope envelope = wide_envelope();
  envelope.m.clear();  // widen m until the batch splits into pool tasks
  for (std::uint32_t m = 1; m <= 1200; ++m) envelope.m.push_back(m);
  const planner::PlanResult inline_plan = planner::solve(tape, envelope);
  util::ThreadPool pool(4);
  const planner::PlanResult pooled = planner::solve(tape, envelope, &pool);
  ASSERT_GT(pooled.grid_points, std::size_t{8192});  // enough to tile
  EXPECT_EQ(pooled.best.index, inline_plan.best.index);
  EXPECT_EQ(pooled.best.cost, inline_plan.best.cost);  // exact, not near
  EXPECT_EQ(pooled.frontier_total, inline_plan.frontier_total);
  ASSERT_EQ(pooled.frontier.size(), inline_plan.frontier.size());
  for (std::size_t i = 0; i < pooled.frontier.size(); ++i) {
    EXPECT_EQ(pooled.frontier[i].index, inline_plan.frontier[i].index);
    EXPECT_EQ(pooled.frontier[i].cost, inline_plan.frontier[i].cost);
  }
  // Attribution: the reported path is the one the dispatcher would pick,
  // and the pooled solve saw the lent threads.
  EXPECT_EQ(inline_plan.simd_path,
            simd::path_name(replay::batch_kernel_path()));
  EXPECT_EQ(inline_plan.batch_threads, 1u);
  EXPECT_GE(pooled.batch_threads, 2u);  // the lent pool actually tiled
}

TEST(PlannerSolve, DeterministicAcrossCalls) {
  const replay::StatsTape tape = random_tape(7, 16);
  const planner::Envelope envelope = wide_envelope();
  const planner::PlanResult a = planner::solve(tape, envelope);
  const planner::PlanResult b = planner::solve(tape, envelope);
  EXPECT_EQ(a.best.index, b.best.index);
  EXPECT_EQ(a.best.cost, b.best.cost);
  EXPECT_EQ(a.dominant_term, b.dominant_term);
  EXPECT_EQ(a.tape_fingerprint, b.tape_fingerprint);
}

TEST(PlannerSolve, MarginalSignsOnBandwidthVsLatencyBoundTapes) {
  // Bandwidth-bound, BSP(g): cost grows with g, so at the g=1 optimum the
  // (one-sided) derivative along g is positive — more local bandwidth
  // (smaller g) would help.
  planner::Envelope bsp_g;
  bsp_g.families = {replay::ModelFamily::kBspG};
  bsp_g.g = {1.0, 2.0, 4.0};
  bsp_g.L = {1.0};
  const planner::PlanResult bw =
      planner::solve(bandwidth_bound_tape(), bsp_g);
  EXPECT_EQ(bw.best.spec.g, 1.0);
  ASSERT_TRUE(bw.dcost_dg.defined);
  EXPECT_GT(bw.dcost_dg.value, 0.0);
  EXPECT_FALSE(bw.dcost_dm.defined);  // BSP(g) does not read m
  EXPECT_EQ(bw.verdict, "local-bandwidth-bound");

  // Bandwidth-bound, BSP(m): the overloaded slot makes cost fall as m
  // grows, so at the large-m optimum dcost/dm is negative.
  planner::Envelope bsp_m;
  bsp_m.families = {replay::ModelFamily::kBspM};
  bsp_m.L = {1.0};
  bsp_m.m = {1, 8, 64};
  bsp_m.penalties = {core::Penalty::kLinear};
  const planner::PlanResult gl =
      planner::solve(bandwidth_bound_tape(), bsp_m);
  EXPECT_EQ(gl.best.spec.m, 64u);
  ASSERT_TRUE(gl.dcost_dm.defined);
  EXPECT_LT(gl.dcost_dm.value, 0.0);

  // Latency-bound: g is irrelevant (no communication), L is the bill.
  const planner::PlanResult lat =
      planner::solve(latency_bound_tape(), bsp_g);
  ASSERT_TRUE(lat.dcost_dg.defined);
  EXPECT_EQ(lat.dcost_dg.value, 0.0);
  EXPECT_EQ(lat.dominant_term, "L");
  EXPECT_EQ(lat.verdict, "latency-bound");
}

TEST(PlannerSolve, EmptyTapeYieldsEmptyVerdict) {
  const replay::StatsTape tape;  // zero supersteps
  planner::Envelope envelope;
  const planner::PlanResult result = planner::solve(tape, envelope);
  EXPECT_EQ(result.best.cost, 0.0);
  EXPECT_EQ(result.verdict, "empty-tape");
  EXPECT_EQ(result.supersteps, 0u);
}

TEST(PlannerSolve, IdleQsmGSuperstepLandsInGh) {
  // QSM(g) charges g*max(1, h) = g with no memory requests, so an idle
  // superstep with w < g is bound by gh, as core::analyze_trace says too.
  replay::StatsTape tape;
  tape.p = 4;
  engine::SuperstepStats idle;
  idle.max_work = 1.0;
  tape.append(idle);
  planner::Envelope envelope;
  envelope.families = {replay::ModelFamily::kQsmG};
  envelope.g = {4.0};
  const planner::PlanResult plan = planner::solve(tape, envelope);
  EXPECT_EQ(plan.best.cost, 4.0);
  EXPECT_EQ(plan.term_totals.gh, 4.0);
  EXPECT_EQ(plan.term_totals.w, 0.0);
  EXPECT_EQ(plan.dominant_term, "gh");
  EXPECT_EQ(plan.dominant_share, 1.0);
}

TEST(PlannerEnvelope, CheckRejectsMalformedAxes) {
  planner::Envelope envelope;
  envelope.g = {};
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  envelope = {};
  envelope.g = {4.0, 2.0};  // not increasing
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  envelope = {};
  envelope.g = {0.5};  // below the g >= 1 floor
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  envelope = {};
  envelope.families = {replay::ModelFamily::kBspG,
                       replay::ModelFamily::kBspG};  // duplicate
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  envelope = {};
  envelope.frontier_percent = -1.0;
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  envelope = {};
  EXPECT_NO_THROW(envelope.check());
}

TEST(PlannerEnvelope, GridSizeCrossesOnlyReadAxes) {
  const planner::Envelope envelope = wide_envelope();
  // BSP(g): 4g x 3L; BSP(m): 3L x 4m x 2pen; QSM(g): 4g;
  // QSM(m): 4m x 2pen; SS-BSP(m): 3L x 4m.
  EXPECT_EQ(envelope.grid_size(), 4u * 3 + 3u * 4 * 2 + 4u + 4u * 2 + 3u * 4);
  EXPECT_EQ(envelope.enumerate().size(), envelope.grid_size());
}

// ---- wire codecs -----------------------------------------------------------

TEST(PlannerWire, TapeJsonRoundTripPreservesFingerprint) {
  const replay::StatsTape tape = random_tape(42, 12);
  const util::Json encoded = planner::tape_to_json(tape);
  const replay::StatsTape decoded =
      planner::tape_from_json(util::Json::parse(encoded.dump()));
  EXPECT_EQ(decoded.p, tape.p);
  EXPECT_EQ(decoded.size(), tape.size());
  EXPECT_EQ(decoded.captured_model, tape.captured_model);
  EXPECT_EQ(decoded.total_flits, tape.total_flits);
  EXPECT_EQ(decoded.fingerprint(), tape.fingerprint());
}

TEST(PlannerWire, FingerprintSeparatesDifferentTapes) {
  const replay::StatsTape a = random_tape(1, 8);
  const replay::StatsTape b = random_tape(2, 8);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  replay::StatsTape c = random_tape(1, 8);
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
  c.max_work[3] += 1.0;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(PlannerWire, EnvelopeFromJsonParsesRangesAndNames) {
  const util::Json doc = util::Json::parse(R"({
    "families": ["bsp-g", "qsm-m"],
    "g": {"min": 1, "max": 16, "steps": 5, "scale": "log"},
    "L": [1, 8],
    "m": {"min": 1, "max": 4, "steps": 4},
    "penalty": ["linear"],
    "frontier_percent": 25,
    "max_frontier": 4
  })");
  const planner::Envelope envelope = planner::envelope_from_json(doc);
  ASSERT_EQ(envelope.g.size(), 5u);
  EXPECT_DOUBLE_EQ(envelope.g.front(), 1.0);
  EXPECT_DOUBLE_EQ(envelope.g.back(), 16.0);
  EXPECT_DOUBLE_EQ(envelope.g[2], 4.0);  // geometric midpoint
  EXPECT_EQ(envelope.m, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(envelope.families.size(), 2u);
  EXPECT_EQ(envelope.penalties,
            (std::vector<core::Penalty>{core::Penalty::kLinear}));
  EXPECT_DOUBLE_EQ(envelope.frontier_percent, 25.0);
  EXPECT_EQ(envelope.max_frontier, 4u);

  EXPECT_THROW(planner::envelope_from_json(
                   util::Json::parse(R"({"families": ["bsp-x"]})")),
               std::invalid_argument);
  EXPECT_THROW(planner::envelope_from_json(
                   util::Json::parse(R"({"gee": [1]})")),
               std::invalid_argument);
  EXPECT_THROW(planner::envelope_from_json(
                   util::Json::parse(R"({"g": {"min": 0, "max": 4,
                                               "steps": 3, "scale": "log"}})")),
               std::invalid_argument);
}

// ---- service ---------------------------------------------------------------

/// A complete inline-tape request document.
util::Json inline_request(const replay::StatsTape& tape) {
  util::Json request;
  request["tape"] = planner::tape_to_json(tape);
  util::Json envelope;
  envelope["families"] = util::Json::parse(R"(["bsp-g", "bsp-m"])");
  envelope["g"] = util::Json::parse("[1, 2, 4]");
  envelope["L"] = util::Json::parse("[1, 16]");
  envelope["m"] = util::Json::parse("[1, 16]");
  request["envelope"] = envelope;
  return request;
}

TEST(PlanService, PlanCacheHitAccounting) {
  planner::PlanService service;
  const util::Json request = inline_request(random_tape(3, 10));

  const util::Json first = service.plan(request);
  ASSERT_NE(first.get("cache"), nullptr);
  EXPECT_FALSE(first.get("cache")->get("plan_hit")->as_bool());
  EXPECT_EQ(first.get("cache")->get("plan_misses")->as_int(), 1);

  const util::Json second = service.plan(request);
  EXPECT_TRUE(second.get("cache")->get("plan_hit")->as_bool());
  EXPECT_EQ(second.get("cache")->get("plan_hits")->as_int(), 1);
  // The cached plan is the same plan.
  EXPECT_EQ(first.get("plan")->get("best")->dump(),
            second.get("plan")->get("best")->dump());

  const util::Json stats = service.stats();
  EXPECT_EQ(stats.get("plan_cache")->get("entries")->as_int(), 1);
  EXPECT_EQ(stats.get("plan_cache")->get("hits")->as_int(), 1);
}

TEST(PlanService, DeeplyNestedBodyIsBadRequest) {
  // Too deep to parse is a malformed body: a 400, and the server lives.
  planner::PlanService service;
  obs::HttpRequest request;
  request.method = "POST";
  request.path = "/plan";
  request.body = std::string(200 * 1024, '[');
  const obs::HttpResponse response = service.handle(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(util::Json::parse(response.body).get("error"), nullptr);
}

TEST(PlanService, ScenarioTapesComeFromTheTapeCacheOnRepeat) {
  planner::PlanService service;
  util::Json request = util::Json::parse(R"({
    "scenario": "table1.broadcast",
    "params": {"p": 32},
    "seed": 5,
    "envelope": {"families": ["bsp-g"], "g": [1, 4], "L": [1, 16]}
  })");
  const util::Json first = service.plan(request);
  EXPECT_FALSE(first.get("tape")->get("cache_hit")->as_bool());

  // Different envelope, same scenario job: plan cache misses, tape cache
  // hits — no second recording.
  request["envelope"] = util::Json::parse(
      R"({"families": ["bsp-g"], "g": [1, 2, 4], "L": [1]})");
  const util::Json second = service.plan(request);
  EXPECT_TRUE(second.get("tape")->get("cache_hit")->as_bool());
  EXPECT_FALSE(second.get("cache")->get("plan_hit")->as_bool());
  EXPECT_EQ(first.get("tape")->get("fingerprint")->as_string(),
            second.get("tape")->get("fingerprint")->as_string());
}

TEST(PlanService, TwentyThousandPointEnvelopeIsOneTapePass) {
  planner::PlanService service;
  util::Json request;
  request["tape"] = planner::tape_to_json(random_tape(9, 32));
  // BSP(m): 10 L x 1000 m x 2 penalties = 20,000 grid points.
  util::Json envelope;
  envelope["families"] = util::Json::parse(R"(["bsp-m"])");
  envelope["L"] = util::Json::parse(
      R"({"min": 1, "max": 512, "steps": 10, "scale": "log"})");
  envelope["m"] = util::Json::parse(
      R"({"min": 1, "max": 1000, "steps": 1000})");
  envelope["penalty"] = util::Json::parse(R"(["linear", "exp"])");
  request["envelope"] = envelope;

  obs::Counter& passes =
      obs::MetricsRegistry::global().counter("planner.tape_passes");
  const std::uint64_t before = passes.value();
  const util::Json response = service.plan(request);
  EXPECT_EQ(response.get("plan")->get("grid_points")->as_int(), 20000);
  EXPECT_EQ(passes.value() - before, 1u);
}

// ---- HTTP surface ----------------------------------------------------------

class PlanHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<planner::PlanService>();
    service_->mount(server_);
    server_.start(0);
    ASSERT_NE(server_.port(), 0);
  }

  fleet::HttpResult post_plan(const std::string& body) {
    return fleet::http_post("127.0.0.1", server_.port(), "/plan", body);
  }

  obs::HttpServer server_;
  std::unique_ptr<planner::PlanService> service_;
};

TEST_F(PlanHttpTest, RoundTripServesAPlan) {
  const replay::StatsTape tape = random_tape(21, 12);
  const fleet::HttpResult result = post_plan(inline_request(tape).dump());
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.status, 200) << result.body;

  const util::Json response = util::Json::parse(result.body);
  const util::Json* plan = response.get("plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(plan->get("best"), nullptr);
  EXPECT_NE(plan->get("best")->get("family"), nullptr);
  EXPECT_NE(plan->get("dominant"), nullptr);
  EXPECT_NE(plan->get("marginal"), nullptr);

  // The served optimum equals the library optimum on the same inputs.
  util::Json envelope_doc;
  const util::Json request = inline_request(tape);
  const planner::PlanResult local = planner::solve(
      tape, planner::envelope_from_json(*request.get("envelope")));
  EXPECT_EQ(plan->get("best")->get("cost")->as_double(), local.best.cost);
  EXPECT_EQ(static_cast<std::size_t>(plan->get("best")->get("index")->as_int()),
            local.best.index);

  // The response is correlated back to the HTTP request: its server-assigned
  // id plus a per-phase wall-clock breakdown of the solve.
  const util::Json* req = response.get("request");
  ASSERT_NE(req, nullptr);
  ASSERT_NE(req->get("id"), nullptr);
  EXPECT_EQ(req->get("id")->as_string().substr(0, 2), "r-");
  const util::Json* phases = req->get("phase_ns");
  ASSERT_NE(phases, nullptr);
  EXPECT_TRUE(phases->is_object());
}

TEST_F(PlanHttpTest, MalformedRequestsMapToClientErrors) {
  // Invalid JSON body.
  EXPECT_EQ(post_plan("{not json").status, 400);
  // Valid JSON, no envelope.
  EXPECT_EQ(post_plan(R"({"scenario": "table1.broadcast"})").status, 400);
  // Unknown model family.
  EXPECT_EQ(post_plan(
                R"({"scenario": "table1.broadcast",
                    "envelope": {"families": ["bsp-x"]}})")
                .status,
            400);
  // Non-increasing axis.
  EXPECT_EQ(post_plan(
                R"({"scenario": "table1.broadcast",
                    "envelope": {"g": [4, 2]}})")
                .status,
            400);
  // Unknown envelope key.
  EXPECT_EQ(post_plan(
                R"({"scenario": "table1.broadcast",
                    "envelope": {"gee": [1]}})")
                .status,
            400);
  // Both tape and scenario.
  const util::Json tape = planner::tape_to_json(random_tape(1, 2));
  EXPECT_EQ(post_plan(std::string(R"({"scenario": "table1.broadcast",
                                      "tape": )") +
                      tape.dump() + R"(, "envelope": {}})")
                .status,
            400);
  // Unknown scenario is a 404, not a 400.
  EXPECT_EQ(post_plan(R"({"scenario": "no.such", "envelope": {}})").status,
            404);
  // Wrong method on a known path.
  EXPECT_EQ(fleet::http_get("127.0.0.1", server_.port(), "/plan").status, 405);

  // Every error body is a JSON document with an "error" member.
  const fleet::HttpResult err = post_plan(R"({"envelope": {}})");
  EXPECT_EQ(err.status, 400);
  EXPECT_NE(util::Json::parse(err.body).get("error"), nullptr);
}

}  // namespace
