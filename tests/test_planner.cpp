// Planner subsystem tests: solve()'s optimum must be bit-equal to a
// brute-force scalar recost() argmin over the same grid, the marginals
// must carry the right signs on bandwidth- vs latency-bound tapes, one
// /plan request must cost exactly one tape pass regardless of grid size,
// a scenario request records only the trial it names, each tape is
// hashed once where it enters the service, the plan cache keys on the
// exact (tape, envelope) pair, and the HTTP surface must map malformed or
// oversized requests to 4xx, not 500.
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/scenario.hpp"
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

TEST(PlannerSolve, ReportsTheCallersFingerprintWithoutHashing) {
  const replay::StatsTape tape = random_tape(5, 8);
  const planner::Envelope envelope = wide_envelope();
  obs::Counter& hashed =
      obs::MetricsRegistry::global().counter("planner.tape_bytes_hashed");
  const std::uint64_t before = hashed.value();
  const planner::PlanResult given =
      planner::solve(tape, envelope, nullptr, std::uint64_t{42});
  EXPECT_EQ(given.tape_fingerprint, 42u);
  EXPECT_EQ(hashed.value(), before);

  // Without one, solve() hashes the tape itself, once.
  const planner::PlanResult own = planner::solve(tape, envelope);
  EXPECT_EQ(own.tape_fingerprint, tape.fingerprint());
  EXPECT_EQ(hashed.value() - before, tape.fingerprint_bytes());
  EXPECT_EQ(own.best.cost, given.best.cost);
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
  // superstep with w < g is bound by gh, as replay::term_totals says too.
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

TEST(PlannerEnvelope, CheckCapsGridPoints) {
  // BSP(g) crosses g x L: 2048 x 2048 is exactly the cap.
  planner::Envelope envelope;
  envelope.families = {replay::ModelFamily::kBspG};
  envelope.g.clear();
  envelope.L.clear();
  for (int i = 1; i <= 2048; ++i) {
    envelope.g.push_back(i);
    envelope.L.push_back(i);
  }
  ASSERT_EQ(envelope.grid_size(), planner::Envelope::kMaxGridPoints);
  EXPECT_NO_THROW(envelope.check());
  // One point more, from another family's block: over.
  envelope.families.push_back(replay::ModelFamily::kQsmM);
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  // One value more on one axis: over.
  envelope.families = {replay::ModelFamily::kBspG};
  envelope.L.push_back(2049);
  EXPECT_THROW(envelope.check(), std::invalid_argument);
  EXPECT_THROW((void)envelope.enumerate(), std::invalid_argument);
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

TEST(PlannerWire, FingerprintBytesCountEveryWordHashed) {
  // 4 supersteps with one slot each: p, seed, 2 lengths and 4 totals, 8
  // per-step arrays of 4, 4 slot counts and 5 slot offsets = 49 words.
  EXPECT_EQ(bandwidth_bound_tape().fingerprint_bytes(), 49u * 8);
  EXPECT_EQ(replay::StatsTape().fingerprint_bytes(), 8u * 8);
}

TEST(PlannerWire, IntegersOutOfRangeAreRejected) {
  const auto u64 = [](const char* text) {
    return planner::u64_from_json(util::Json::parse(text), "x");
  };
  // The largest double below 2^64 is 2^64 - 2048.
  EXPECT_EQ(u64("18446744073709549568"), 18446744073709549568ull);
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_THROW(u64("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(u64("1e300"), std::invalid_argument);
  EXPECT_THROW(u64("-1"), std::invalid_argument);
  EXPECT_THROW(u64("1.5"), std::invalid_argument);
  EXPECT_THROW(u64("\"1\""), std::invalid_argument);

  util::Json tape = planner::tape_to_json(random_tape(1, 2));
  tape["p"] = 4294967295.0;
  EXPECT_EQ(planner::tape_from_json(tape).p, 4294967295u);
  tape["p"] = 4294967297.0;  // would narrow to p = 1
  EXPECT_THROW((void)planner::tape_from_json(tape), std::invalid_argument);

  EXPECT_THROW((void)planner::envelope_from_json(
                   util::Json::parse(R"({"max_frontier": 1e300})")),
               std::invalid_argument);
}

TEST(PlannerWire, AxisStepsAreCappedBeforeExpanding) {
  const auto steps = [](double n) {
    util::Json envelope = util::Json::parse(R"({"families": ["bsp-m"]})");
    util::Json g = util::Json::parse(R"({"min": 1, "max": 2})");
    g["steps"] = n;
    envelope["g"] = g;
    return planner::envelope_from_json(envelope);
  };
  // g is not read by BSP(m), so only the axis cap stands between these
  // and an allocation of the whole axis.
  EXPECT_THROW((void)steps(1e15), std::invalid_argument);
  EXPECT_THROW((void)steps(planner::Envelope::kMaxAxisValues + 1.0),
               std::invalid_argument);
  EXPECT_EQ(steps(3).g.size(), 3u);
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

/// `envelope` over `tape`, as a request document.
util::Json request_on(const replay::StatsTape& tape, const util::Json& envelope) {
  util::Json request;
  request["tape"] = planner::tape_to_json(tape);
  request["envelope"] = envelope;
  return request;
}

/// A complete inline-tape request document.
util::Json inline_request(const replay::StatsTape& tape) {
  util::Json envelope;
  envelope["families"] = util::Json::parse(R"(["bsp-g", "bsp-m"])");
  envelope["g"] = util::Json::parse("[1, 2, 4]");
  envelope["L"] = util::Json::parse("[1, 16]");
  envelope["m"] = util::Json::parse("[1, 16]");
  return request_on(tape, envelope);
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

bool plan_hit(const util::Json& response) {
  return response.get("cache")->get("plan_hit")->as_bool();
}

std::int64_t plan_entries(const planner::PlanService& service) {
  return service.stats().get("plan_cache")->get("entries")->as_int();
}

/// The HTTP status PlanService::handle gives a POST /plan of `body`.
int post_status(planner::PlanService& service, const std::string& body) {
  obs::HttpRequest request;
  request.method = "POST";
  request.path = "/plan";
  request.body = body;
  return service.handle(request).status;
}

planner::PlanServiceOptions inline_solves() {
  planner::PlanServiceOptions options;
  options.solve_threads = 1;
  return options;
}

TEST(PlanService, RangeAndItsExpandedListShareOnePlan) {
  planner::PlanService service(inline_solves());
  const replay::StatsTape tape = random_tape(3, 10);
  const util::Json range = request_on(tape, util::Json::parse(
      R"({"families": ["bsp-g"], "g": {"min": 1, "max": 5, "steps": 5}})"));
  const util::Json list = request_on(
      tape, util::Json::parse(R"({"families": ["bsp-g"], "g": [1, 2, 3, 4, 5]})"));
  EXPECT_FALSE(plan_hit(service.plan(range)));
  EXPECT_TRUE(plan_hit(service.plan(list)));
  EXPECT_EQ(plan_entries(service), 1);
}

TEST(PlanService, OneUlpChangeToOneGValueMisses) {
  planner::PlanService service(inline_solves());
  const replay::StatsTape tape = random_tape(3, 10);
  util::Json envelope = util::Json::parse(R"({"families": ["bsp-g"]})");
  util::Json g = util::Json::array();
  for (const double v : {1.0, 2.0, 4.0}) g.push_back(v);
  envelope["g"] = g;
  EXPECT_FALSE(plan_hit(service.plan(request_on(tape, envelope))));
  EXPECT_TRUE(plan_hit(service.plan(request_on(tape, envelope))));

  util::Json nudged = util::Json::array();
  for (const double v : {1.0, std::nextafter(2.0, 4.0), 4.0}) {
    nudged.push_back(v);
  }
  envelope["g"] = nudged;
  EXPECT_FALSE(plan_hit(service.plan(request_on(tape, envelope))));
  EXPECT_EQ(plan_entries(service), 2);
}

TEST(PlanService, FrontierSettingsArePartOfThePlanKey) {
  planner::PlanService service(inline_solves());
  const replay::StatsTape tape = random_tape(3, 10);
  const auto plan = [&](const char* envelope) {
    return plan_hit(
        service.plan(request_on(tape, util::Json::parse(envelope))));
  };
  EXPECT_FALSE(plan(R"({"g": [1, 2], "frontier_percent": 10})"));
  EXPECT_TRUE(plan(R"({"g": [1, 2], "frontier_percent": 10})"));
  EXPECT_FALSE(plan(R"({"g": [1, 2], "frontier_percent": 11})"));
  EXPECT_FALSE(plan(R"({"g": [1, 2], "frontier_percent": 10, "max_frontier": 3})"));
  EXPECT_TRUE(plan(R"({"g": [1, 2], "max_frontier": 32})"));  // the defaults
  EXPECT_EQ(plan_entries(service), 3);
}

TEST(PlanService, TapesDifferingInOneSlotCountMiss) {
  planner::PlanService service(inline_solves());
  const util::Json envelope = util::Json::parse(R"({"m": [1, 4, 16]})");
  replay::StatsTape tape = bandwidth_bound_tape();
  EXPECT_FALSE(plan_hit(service.plan(request_on(tape, envelope))));
  EXPECT_TRUE(plan_hit(service.plan(request_on(tape, envelope))));
  tape.slot_data[2] += 1;
  EXPECT_FALSE(plan_hit(service.plan(request_on(tape, envelope))));
  EXPECT_EQ(plan_entries(service), 2);
}

TEST(PlanService, LeastRecentlyUsedPlanIsEvicted) {
  planner::PlanServiceOptions options = inline_solves();
  options.plan_cache_entries = 2;
  planner::PlanService service(options);
  const replay::StatsTape tape = random_tape(3, 10);
  const auto plan = [&](double g) {
    util::Json envelope = util::Json::object();
    util::Json axis = util::Json::array();
    axis.push_back(g);
    envelope["g"] = axis;
    return plan_hit(service.plan(request_on(tape, envelope)));
  };
  EXPECT_FALSE(plan(1.0));  // A
  EXPECT_FALSE(plan(2.0));  // B
  EXPECT_TRUE(plan(1.0));   // A is now the most recently used
  EXPECT_FALSE(plan(3.0));  // C evicts B, the least recently used
  EXPECT_EQ(plan_entries(service), 2);
  EXPECT_TRUE(plan(1.0));
  EXPECT_TRUE(plan(3.0));
  EXPECT_FALSE(plan(2.0));  // B was evicted; it now evicts A
  EXPECT_EQ(plan_entries(service), 2);
  EXPECT_FALSE(plan(1.0));
  EXPECT_TRUE(plan(2.0));
  EXPECT_EQ(plan_entries(service), 2);
}

TEST(PlanService, ConcurrentRequestsShareOnePlanCache) {
  // Four threads cycle three envelopes through a two-entry LRU, so hits,
  // solves on the shared pool and evictions interleave; every answer must
  // be the one a lone request gets.
  planner::PlanServiceOptions options;
  options.plan_cache_entries = 2;
  options.solve_threads = 2;
  planner::PlanService service(options);
  const replay::StatsTape tape = random_tape(3, 10);
  std::vector<util::Json> requests;
  std::vector<std::string> expected;
  for (const char* g : {"[1]", "[2]", "[1, 3]"}) {
    util::Json envelope = util::Json::object();
    envelope["g"] = util::Json::parse(g);
    requests.push_back(request_on(tape, envelope));
    planner::PlanService lone(options);
    expected.push_back(lone.plan(requests.back()).get("plan")->dump());
  }
  constexpr int kThreads = 4, kRounds = 12;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t k = static_cast<std::size_t>(t + i) % requests.size();
        if (service.plan(requests[k]).get("plan")->dump() != expected[k]) {
          ++wrong[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong, std::vector<int>(kThreads, 0));
  const util::Json stats = service.stats();
  EXPECT_EQ(stats.get("plan_cache")->get("hits")->as_int() +
                stats.get("plan_cache")->get("misses")->as_int(),
            kThreads * kRounds);
  EXPECT_EQ(plan_entries(service), 2);
}

TEST(PlanService, TapesAreHashedOncePerRecordingOrParse) {
  planner::PlanService service(inline_solves());
  obs::Counter& hashed =
      obs::MetricsRegistry::global().counter("planner.tape_bytes_hashed");

  // A scenario tape: hashed when it is recorded (trial 1 alone, two
  // broadcast runs), never again on a tape-cache hit, a solve or a plan
  // hit.
  util::Json request = util::Json::parse(R"({
    "scenario": "table1.broadcast", "params": {"p": 32}, "seed": 5,
    "trial": 1, "envelope": {"families": ["bsp-g"], "g": [1, 4]}
  })");
  std::uint64_t before = hashed.value();
  EXPECT_FALSE(plan_hit(service.plan(request)));
  const planner::TapeRef ref = service.resolve_tape(request);
  ASSERT_TRUE(ref.cache_hit);
  std::uint64_t group_bytes = 0;
  std::size_t tapes = 0;
  for (const replay::CapturedTrial& trial : ref.group->trials) {
    ASSERT_EQ(trial.fingerprints.size(), trial.tapes.size());
    for (std::size_t i = 0; i < trial.tapes.size(); ++i) {
      EXPECT_EQ(trial.fingerprints[i], trial.tapes[i].fingerprint());
      group_bytes += trial.tapes[i].fingerprint_bytes();
      ++tapes;
    }
  }
  EXPECT_EQ(tapes, 2u);
  EXPECT_EQ(ref.fingerprint, ref.tape->fingerprint());
  EXPECT_EQ(hashed.value() - before, group_bytes);
  EXPECT_EQ(group_bytes, 960u);  // trial 1's two tapes

  before = hashed.value();
  request["envelope"] = util::Json::parse(R"({"families": ["bsp-g"], "g": [2]})");
  EXPECT_FALSE(plan_hit(service.plan(request)));  // a solve on a cached tape
  EXPECT_TRUE(plan_hit(service.plan(request)));
  request["tape_index"] = 1;
  EXPECT_FALSE(plan_hit(service.plan(request)));  // another cached tape
  EXPECT_EQ(hashed.value(), before);

  // An inline tape: hashed once per request, hit or miss.
  const replay::StatsTape tape = bandwidth_bound_tape();
  const util::Json inline_doc = inline_request(tape);
  before = hashed.value();
  EXPECT_FALSE(plan_hit(service.plan(inline_doc)));
  EXPECT_EQ(hashed.value() - before, 392u);
  EXPECT_TRUE(plan_hit(service.plan(inline_doc)));
  EXPECT_EQ(hashed.value() - before, 2 * 392u);
}

TEST(PlanService, RecordsOnlyTheRequestedTrial) {
  planner::PlanService service(inline_solves());
  util::Json request = util::Json::parse(R"({
    "scenario": "table1.broadcast", "params": {"p": 32}, "seed": 5,
    "envelope": {"families": ["bsp-g"], "g": [1, 4]}
  })");
  campaign::Job job;
  job.scenario = campaign::Registry::instance().find("table1.broadcast");
  ASSERT_NE(job.scenario, nullptr);
  for (const campaign::ParamSpec& spec : job.scenario->params) {
    job.params.set(spec.name, spec.default_value);
  }
  job.params.set("p", "32");
  job.seed = 5;

  // Trial 1 and then trial 0: two recordings of one trial each, and each
  // tape is that trial of the executor's capture of trials 0..t.
  for (const int trial : {1, 0}) {
    request["trial"] = trial;
    const planner::TapeRef ref = service.resolve_tape(request);
    EXPECT_FALSE(ref.cache_hit) << "trial " << trial;
    ASSERT_EQ(ref.group->trials.size(), 1u);
    EXPECT_EQ(ref.source, job.scenario->name + "|" + job.params.canonical() +
                              "|seed=5|trial=" + std::to_string(trial) + "#0");
    job.trials = trial + 1;
    const auto captured = campaign::simulate_job(job, /*capture=*/true).second;
    const replay::CapturedTrial& want = captured->trials.at(trial);
    const replay::CapturedTrial& got = ref.group->trials.front();
    ASSERT_EQ(got.tapes.size(), want.tapes.size());
    for (std::size_t i = 0; i < want.tapes.size(); ++i) {
      EXPECT_EQ(got.fingerprints[i], want.tapes[i].fingerprint());
    }
  }
  EXPECT_EQ(service.stats().get("tape_cache")->get("entries")->as_int(), 2);

  // The last trial a request may name costs about what trial 0 does: no
  // earlier trial is simulated on the way.
  const auto record_seconds = [&](int trial) {
    planner::PlanService fresh(inline_solves());
    request["trial"] = trial;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(fresh.resolve_tape(request).cache_hit);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double first = record_seconds(0);
  EXPECT_LT(record_seconds(INT_MAX - 1), 10 * first + 1.0);
}

TEST(PlanService, KeyBytesCountTheEnvelopeWords) {
  planner::PlanService service(inline_solves());
  obs::Counter& key_bytes =
      obs::MetricsRegistry::global().counter("planner.key_bytes");
  // The fingerprint, 5 axis lengths, 2 families, 3 g, 2 L, 2 m, 1 penalty,
  // frontier_percent and max_frontier: 18 words.
  const util::Json request = inline_request(random_tape(3, 10));
  const std::uint64_t before = key_bytes.value();
  EXPECT_FALSE(plan_hit(service.plan(request)));
  EXPECT_EQ(key_bytes.value() - before, 18u * 8);
  EXPECT_TRUE(plan_hit(service.plan(request)));
  EXPECT_EQ(key_bytes.value() - before, 2 * 18u * 8);
}

TEST(PlanService, OutOfRangeIntegersAreBadRequests) {
  planner::PlanService service(inline_solves());
  const auto status = [&](const std::string& body) {
    return post_status(service, body);
  };
  const std::string scenario =
      R"({"scenario": "table1.broadcast", "params": {"p": 32}, "envelope": {}, )";
  EXPECT_EQ(status(scenario + R"("seed": 1e300})"), 400);
  EXPECT_EQ(status(scenario + R"("seed": 18446744073709551616})"), 400);
  EXPECT_EQ(status(scenario + R"("trial": 18446744073709551616})"), 400);
  EXPECT_EQ(status(scenario + R"("trial": )" + std::to_string(INT_MAX) + "}"),
            400);
  EXPECT_EQ(status(scenario + R"("tape_index": 1e300})"), 400);
  EXPECT_EQ(status(scenario + R"("tape_index": 7})"), 404);  // in range
  EXPECT_EQ(status(R"({"scenario": "table1.broadcast", "params": {"p": 32},
                       "envelope": {"max_frontier": 1e300}})"),
            400);
  EXPECT_EQ(status(R"({"scenario": "table1.broadcast", "params": {"p": 32},
                       "envelope": {"g": {"min": 1, "max": 2,
                                          "steps": 18446744073709551616}}})"),
            400);

  util::Json request = inline_request(random_tape(1, 2));
  util::Json tape = *request.get("tape");
  tape["p"] = 4294967297.0;
  request["tape"] = tape;
  EXPECT_EQ(status(request.dump()), 400);
}

TEST(PlanService, OversizedEnvelopesAreBadRequestsWithoutAllocating) {
  planner::PlanService service(inline_solves());
  const auto status = [&](const std::string& body) {
    return post_status(service, body);
  };
  // About 150 bytes asking for a 10^15-value axis: rejected before the
  // axis loop (ASan would abort on the allocation).
  EXPECT_EQ(status(R"({"scenario": "table1.broadcast",
                       "envelope": {"g": {"min": 1, "max": 2, "steps": 1e15}}})"),
            400);
  // Two axes under the per-axis cap whose product passes the grid cap:
  // rejected by Envelope::check() before anything is enumerated.
  EXPECT_EQ(status(R"({"scenario": "table1.broadcast",
                       "envelope": {"families": ["bsp-g"],
                                    "g": {"min": 1, "max": 8192, "steps": 8192},
                                    "L": {"min": 1, "max": 8192, "steps": 8192}}})"),
            400);
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
