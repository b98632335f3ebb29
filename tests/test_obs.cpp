// Observability layer tests: metrics registry, traces derived from a run's
// stats tape, the JSONL / Chrome exporters (golden output — the JSONL
// schema is an interchange format, so its bytes are contract), the schema
// validator, and dominant-term attribution hand-checked against Section
// 2's cost definitions for all four models.
//
// The TraceSchema suite validates an externally produced trace file named
// by PBW_TRACE_FILE, and the Chrome file beside it when there is one
// (skipped when unset); ctest points it at the output of
// `pbw-campaign table1 --trace` as the end-to-end smoke.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/model/models.hpp"
#include "engine/machine.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/recorder.hpp"

namespace {

using namespace pbw;

core::ModelParams params(std::uint32_t p, double g, std::uint32_t m, double L) {
  core::ModelParams prm;
  prm.p = p;
  prm.g = g;
  prm.m = m;
  prm.L = L;
  return prm;
}

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, CounterFindOrCreateAndAdd) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("jobs");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name resolves to the same series.
  EXPECT_EQ(&registry.counter("jobs"), &c);
  EXPECT_EQ(registry.counter("jobs").value(), 5u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::MetricsRegistry registry;
  auto& g = registry.gauge("depth");
  g.set(2.5);
  g.add(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(Metrics, HistogramMomentsAndJson) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("latency", 0.0, 10.0, 5);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(9.0);
  const util::Json j = h.to_json();
  EXPECT_EQ(j.get("count")->as_int(), 3);
  EXPECT_DOUBLE_EQ(j.get("sum")->as_double(), 13.0);
  EXPECT_DOUBLE_EQ(j.get("mean")->as_double(), 13.0 / 3.0);
  EXPECT_DOUBLE_EQ(j.get("min")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(j.get("max")->as_double(), 9.0);
  ASSERT_NE(j.get("buckets"), nullptr);
  EXPECT_EQ(j.get("buckets")->size(), 5u);
}

TEST(Metrics, ToJsonSortsNamesAndResetClears) {
  obs::MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.gauge("mid").set(7);
  const util::Json j = registry.to_json();
  const auto& counters = j.get("counters")->members();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "zeta");
  EXPECT_DOUBLE_EQ(j.get("gauges")->get("mid")->as_double(), 7.0);
  registry.reset();
  EXPECT_EQ(registry.to_json().get("counters")->members().size(), 0u);
  EXPECT_EQ(registry.counter("zeta").value(), 0u);
}

// ---- dominant-term attribution, hand-computed ------------------------------

TEST(CostComponents, BspGSplitsWorkGapLatency) {
  const core::BspG model(params(8, 3, 2, 5));
  engine::SuperstepStats stats;
  stats.max_work = 10.0;
  stats.max_sent = 4;
  stats.max_received = 6;  // h = max(4, 6) = 6
  const auto c = model.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.w, 10.0);
  EXPECT_DOUBLE_EQ(c.gh, 18.0);  // g*h = 3*6
  EXPECT_DOUBLE_EQ(c.h, 0.0);
  EXPECT_DOUBLE_EQ(c.cm, 0.0);
  EXPECT_DOUBLE_EQ(c.kappa, 0.0);
  EXPECT_DOUBLE_EQ(c.L, 5.0);
  EXPECT_DOUBLE_EQ(c.max_term(), 18.0);
  EXPECT_STREQ(c.dominant(), "gh");
  EXPECT_DOUBLE_EQ(model.superstep_cost(stats), c.max_term());
}

TEST(CostComponents, BspMChargesPlainHAndAggregate) {
  engine::SuperstepStats stats;
  stats.max_work = 1.0;
  stats.max_sent = 6;
  stats.max_received = 5;  // h = 6
  stats.slot_counts = {8, 2};  // f_4(8) + f_4(2)

  const core::BspM linear(params(8, 2, 4, 2), core::Penalty::kLinear);
  auto c = linear.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.w, 1.0);
  EXPECT_DOUBLE_EQ(c.gh, 0.0);
  EXPECT_DOUBLE_EQ(c.h, 6.0);
  EXPECT_DOUBLE_EQ(c.cm, 8.0 / 4.0 + 1.0);  // linear: m_t/m, then 1
  EXPECT_DOUBLE_EQ(c.L, 2.0);
  EXPECT_STREQ(c.dominant(), "h");
  EXPECT_DOUBLE_EQ(linear.superstep_cost(stats), 6.0);

  const core::BspM expo(params(8, 2, 4, 2), core::Penalty::kExponential);
  c = expo.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.cm, std::exp(8.0 / 4.0 - 1.0) + 1.0);
  EXPECT_DOUBLE_EQ(expo.superstep_cost(stats), c.max_term());
}

TEST(CostComponents, QsmGChargesUnitGapFloorAndContention) {
  const core::QsmG model(params(8, 3, 2, 1));
  engine::SuperstepStats stats;
  stats.max_work = 1.0;
  stats.kappa = 2;
  // No reads or writes: QSM still charges h = max(1, ...) => g*1.
  auto c = model.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.gh, 3.0);
  EXPECT_DOUBLE_EQ(c.kappa, 2.0);
  EXPECT_DOUBLE_EQ(c.L, 0.0);  // QSM has no latency term
  EXPECT_STREQ(c.dominant(), "gh");
  EXPECT_DOUBLE_EQ(model.superstep_cost(stats), 3.0);

  stats.max_reads = 5;
  stats.kappa = 20;
  c = model.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.gh, 15.0);
  EXPECT_DOUBLE_EQ(c.kappa, 20.0);
  EXPECT_STREQ(c.dominant(), "kappa");
  EXPECT_DOUBLE_EQ(model.superstep_cost(stats), 20.0);
}

TEST(CostComponents, QsmMChargesContentionOverAggregate) {
  const core::QsmM model(params(8, 2, 4, 1));
  engine::SuperstepStats stats;
  stats.max_work = 1.0;
  stats.max_reads = 3;
  stats.max_writes = 7;  // h = 7
  stats.kappa = 9;
  stats.slot_counts = {4};  // f_4(4) = 1
  const auto c = model.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.h, 7.0);
  EXPECT_DOUBLE_EQ(c.cm, 1.0);
  EXPECT_DOUBLE_EQ(c.kappa, 9.0);
  EXPECT_DOUBLE_EQ(c.gh, 0.0);
  EXPECT_STREQ(c.dominant(), "kappa");
  EXPECT_DOUBLE_EQ(model.superstep_cost(stats), 9.0);
}

TEST(CostComponents, SelfSchedulingChargesVolumeOverM) {
  const core::SelfSchedulingBspM model(params(8, 2, 4, 2));
  engine::SuperstepStats stats;
  stats.max_sent = 3;
  stats.total_flits = 40;  // n/m = 10
  const auto c = model.cost_components(stats);
  EXPECT_DOUBLE_EQ(c.h, 3.0);
  EXPECT_DOUBLE_EQ(c.cm, 10.0);
  EXPECT_DOUBLE_EQ(c.L, 2.0);
  EXPECT_STREQ(c.dominant(), "cm");
  EXPECT_DOUBLE_EQ(model.superstep_cost(stats), 10.0);
}

TEST(CostComponents, TiesBreakInDeclarationOrder) {
  engine::CostComponents c;
  c.w = 5.0;
  c.gh = 5.0;
  c.L = 5.0;
  EXPECT_STREQ(c.dominant(), "w");
  c.w = 4.0;
  EXPECT_STREQ(c.dominant(), "gh");
}

TEST(CostComponents, NaNPoisonsMaxTermAndDominant) {
  // A NaN term must surface, not vanish: before the isnan guards every
  // `NaN > v` / `NaN >= v` comparison was false, so max_term() silently
  // returned the largest finite term and dominant() fell through to "w".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  engine::CostComponents c;
  c.w = 3.0;
  c.h = nan;
  c.L = 9.0;
  EXPECT_TRUE(std::isnan(c.max_term()));
  EXPECT_STREQ(c.dominant(), "h");

  engine::CostComponents all_nan;
  all_nan.w = all_nan.gh = all_nan.h = all_nan.cm = all_nan.kappa =
      all_nan.L = nan;
  EXPECT_TRUE(std::isnan(all_nan.max_term()));
  EXPECT_STREQ(all_nan.dominant(), "w");  // first NaN in field order

  engine::CostComponents late;
  late.w = 1.0;
  late.L = nan;
  EXPECT_TRUE(std::isnan(late.max_term()));
  EXPECT_STREQ(late.dominant(), "L");
}

TEST(CostComponents, DefaultImplementationAttributesToWork) {
  // Models that never override cost_components still satisfy the
  // max_term() == superstep_cost() contract.
  struct FlatModel final : engine::CostModel {
    engine::SimTime superstep_cost(const engine::SuperstepStats&) const override {
      return 42.0;
    }
    std::string name() const override { return "flat"; }
    std::uint32_t processors() const override { return 1; }
    std::unique_ptr<engine::CostModel> clone() const override {
      return std::make_unique<FlatModel>(*this);
    }
  };
  const FlatModel model;
  const auto c = model.cost_components({});
  EXPECT_DOUBLE_EQ(c.w, 42.0);
  EXPECT_STREQ(c.dominant(), "w");
  EXPECT_DOUBLE_EQ(c.max_term(), 42.0);
}

// ---- engine emission -------------------------------------------------------

/// Two supersteps: a len-8 send around a ring (gh-bound on BSP(g)), then a
/// quiet superstep (L-bound).
class RingProgram final : public engine::SuperstepProgram {
 public:
  bool step(engine::ProcContext& ctx) override {
    if (ctx.superstep() >= 1) return false;
    ctx.charge(3.0);
    ctx.send((ctx.id() + 1) % ctx.p(), 1, 0, 8);
    return true;
  }
};

TEST(EngineEmission, RecordsMatchRunTrace) {
  const core::BspG model(params(4, 2, 2, 8));
  replay::TapeRecorder recorder;
  engine::MachineOptions opts;
  opts.tape_recorder = &recorder;
  RingProgram program;
  engine::Machine machine(model, opts);
  const auto run = machine.run(program);

  // The tape carries the model that charged it, so the trace needs
  // nothing but the tape.
  ASSERT_EQ(recorder.tapes().size(), 1u);
  const auto& tape = recorder.tapes().front();
  ASSERT_NE(tape.model, nullptr);
  const auto traced = replay::trace_run(tape, *tape.model);
  const auto costs = replay::recost(tape, model).costs;
  EXPECT_EQ(traced.info.model, model.name());
  EXPECT_EQ(traced.info.p, 4u);
  EXPECT_EQ(traced.info.seed, opts.seed);
  EXPECT_EQ(traced.summary.supersteps, run.supersteps);
  EXPECT_DOUBLE_EQ(traced.summary.total_time, run.total_time);

  ASSERT_EQ(run.supersteps, 2u);
  ASSERT_EQ(traced.records.size(), 2u);
  // Superstep 0: max(w=3, g*h=2*8, L=8) = 16.
  EXPECT_DOUBLE_EQ(traced.records[0].cost, 16.0);
  EXPECT_DOUBLE_EQ(traced.records[0].w, 3.0);
  EXPECT_DOUBLE_EQ(traced.records[0].gh, 16.0);
  EXPECT_STREQ(traced.records[0].dominant, "gh");
  // Superstep 1: nothing happens, the L floor binds.
  EXPECT_DOUBLE_EQ(traced.records[1].cost, 8.0);
  EXPECT_STREQ(traced.records[1].dominant, "L");
  ASSERT_EQ(costs.size(), traced.records.size());
  for (std::size_t s = 0; s < traced.records.size(); ++s) {
    EXPECT_EQ(traced.records[s].superstep, s);
    EXPECT_DOUBLE_EQ(traced.records[s].cost, costs[s]);
    EXPECT_EQ(traced.records[s].step_ns, 0u);  // no profile, no clocks
  }
  EXPECT_DOUBLE_EQ(run.total_time, 24.0);
}

TEST(TraceReport, ModelDrivenAnalyzePinsRingBreakdown) {
  const auto prm = params(4, 2, 2, 8);
  const core::BspG model(prm);
  replay::TapeRecorder recorder;
  engine::MachineOptions opts;
  opts.tape_recorder = &recorder;
  RingProgram program;
  engine::Machine machine(model, opts);
  const auto run = machine.run(program);

  const auto by_model = replay::term_totals(recorder.tapes().front(), model);
  EXPECT_DOUBLE_EQ(by_model.total, run.total_time);
  EXPECT_DOUBLE_EQ(by_model.by_term.gh + by_model.by_term.h, 16.0);
  EXPECT_DOUBLE_EQ(by_model.by_term.L, 8.0);
}

TEST(TraceReport, IdleQsmGSuperstepIsGapBound) {
  // QSM(g) charges g*max(1, h) = g even with no memory requests, so a
  // superstep with w < g is bound by the gap term.
  const auto prm = params(4, 4, 1, 1);
  const core::QsmG model(prm);
  engine::SuperstepStats stats;
  stats.max_work = 1.0;
  replay::StatsTape tape;
  tape.append(stats);
  const double cost = model.superstep_cost(stats);

  const auto b = replay::term_totals(tape, model);
  EXPECT_DOUBLE_EQ(cost, 4.0);
  EXPECT_DOUBLE_EQ(b.by_term.gh + b.by_term.h, 4.0);
  EXPECT_DOUBLE_EQ(b.by_term.w, 0.0);
  EXPECT_DOUBLE_EQ(b.total, cost);
}

// ---- exporters -------------------------------------------------------------

std::vector<obs::TraceRun> golden_runs() {
  obs::TraceRun run;
  run.info = {"BSP(g=2,L=8,p=4)", 4, 9};
  obs::SuperstepTraceRecord rec;
  rec.superstep = 0;
  rec.cost = 16.0;
  rec.w = 3.0;
  rec.gh = 16.0;
  rec.L = 8.0;
  rec.dominant = "gh";
  run.records.push_back(rec);
  obs::SuperstepTraceRecord quiet;
  quiet.superstep = 1;
  quiet.cost = 8.0;
  quiet.L = 8.0;
  quiet.dominant = "L";
  run.records.push_back(quiet);
  run.summary = {2, 24.0};
  return {run};
}

// The JSONL schema is an interchange contract (docs/OBSERVABILITY.md
// documents these exact lines) — byte-exact golden comparison.
TEST(Export, GoldenJsonl) {
  std::ostringstream out;
  obs::write_jsonl(golden_runs(), out);
  const std::string expected =
      R"json({"type":"run","run":0,"model":"BSP(g=2,L=8,p=4)","p":4,"seed":9})json"
      "\n"
      R"json({"type":"superstep","run":0,"superstep":0,"cost":16,"w":3,"gh":16,"h":0,"cm":0,"kappa":0,"L":8,"dominant":"gh","step_ns":0,"merge_ns":0})json"
      "\n"
      R"json({"type":"superstep","run":0,"superstep":1,"cost":8,"w":0,"gh":0,"h":0,"cm":0,"kappa":0,"L":8,"dominant":"L","step_ns":0,"merge_ns":0})json"
      "\n"
      R"json({"type":"run_end","run":0,"supersteps":2,"total_time":24})json"
      "\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Export, ChromeTraceShapesEvents) {
  std::ostringstream out;
  obs::write_chrome_trace(golden_runs(), out);
  const util::Json root = util::Json::parse(out.str());
  const util::Json* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 metadata + 2 * (slice + counter).
  ASSERT_EQ(events->size(), 5u);
  const auto& meta = events->at(0);
  EXPECT_EQ(meta.get("ph")->as_string(), "M");
  EXPECT_EQ(meta.get("args")->get("name")->as_string(), "BSP(g=2,L=8,p=4)");
  const auto& slice0 = events->at(1);
  EXPECT_EQ(slice0.get("ph")->as_string(), "X");
  EXPECT_EQ(slice0.get("name")->as_string(), "gh");
  EXPECT_DOUBLE_EQ(slice0.get("ts")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(slice0.get("dur")->as_double(), 16.0);
  const auto& counter0 = events->at(2);
  EXPECT_EQ(counter0.get("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter0.get("args")->get("gh")->as_double(), 16.0);
  // The second slice starts where the first ended: the simulated-time axis.
  const auto& slice1 = events->at(3);
  EXPECT_DOUBLE_EQ(slice1.get("ts")->as_double(), 16.0);
  EXPECT_EQ(slice1.get("name")->as_string(), "L");
}

// ---- schema validator ------------------------------------------------------

obs::TraceValidation validate(const std::string& text) {
  std::istringstream in(text);
  return obs::validate_trace_jsonl(in);
}

TEST(Validator, AcceptsGoldenStream) {
  std::ostringstream out;
  obs::write_jsonl(golden_runs(), out);
  const auto v = validate(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.runs, 1u);
  EXPECT_EQ(v.supersteps, 2u);
}

TEST(Validator, RejectsMalformedStreams) {
  const std::string run =
      R"json({"type":"run","run":0,"model":"M","p":1,"seed":1})json" "\n";
  const std::string step =
      R"json({"type":"superstep","run":0,"superstep":0,"cost":1,"w":1,"gh":0,"h":0,"cm":0,"kappa":0,"L":0,"dominant":"w","step_ns":0,"merge_ns":0})json"
      "\n";
  const std::string end =
      R"json({"type":"run_end","run":0,"supersteps":1,"total_time":1})json" "\n";

  auto expect_fail = [](const std::string& text, const char* fragment) {
    const auto v = validate(text);
    EXPECT_FALSE(v.ok) << "expected failure: " << fragment;
    EXPECT_NE(v.error.find(fragment), std::string::npos) << v.error;
  };

  expect_fail("not json\n", "not JSON");
  expect_fail(R"json({"type":"mystery","run":0})json" "\n", "unknown record type");
  expect_fail(step, "before its run header");
  expect_fail(run + step, "has no run_end");
  expect_fail(run +
                  R"json({"type":"superstep","run":0,"superstep":0,"cost":1,"w":1,"gh":0,"h":0,"cm":0,"kappa":0,"L":0,"dominant":"zz","step_ns":0,"merge_ns":0})json"
                  "\n" + end,
              "dominant must name a cost component");
  // Skipping superstep 0 breaks the consecutive-index invariant.
  expect_fail(run +
                  R"json({"type":"superstep","run":0,"superstep":1,"cost":1,"w":1,"gh":0,"h":0,"cm":0,"kappa":0,"L":0,"dominant":"w","step_ns":0,"merge_ns":0})json"
                  "\n" + end,
              "not consecutive");
  expect_fail(run + R"json({"type":"run_end","run":0,"supersteps":3,"total_time":1})json"
                  "\n",
              "count mismatch");
  expect_fail(run + run, "duplicate run header");
  // Errors carry the 1-based line number.
  const auto v = validate(run + step + "garbage\n");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("line 3"), std::string::npos) << v.error;
}

// ---- end-to-end file trace (CI smoke hook) ---------------------------------

TEST(TraceSchema, ValidatesFileNamedByEnv) {
  const char* path = std::getenv("PBW_TRACE_FILE");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "PBW_TRACE_FILE not set";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  const auto v = obs::validate_trace_jsonl(in);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_GT(v.runs, 0u);
  EXPECT_GT(v.supersteps, 0u);

  // --trace-format=both writes the Chrome view next to the JSONL file.
  std::ifstream chrome(std::string(path) + ".chrome.json");
  if (!chrome) return;
  const auto c = obs::validate_chrome_trace(chrome);
  EXPECT_TRUE(c.ok) << c.error;
  EXPECT_GT(c.slices, 0u);
  EXPECT_GT(c.metas, 0u);
}

}  // namespace
