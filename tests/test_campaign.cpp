// Campaign subsystem tests: sweep spec parsing and cartesian expansion,
// parallel execution determinism, JSON Lines round-trip, and the resume
// manifest's skip logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/cli_docs.hpp"
#include "campaign/status.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "replay/batch.hpp"
#include "replay/cache.hpp"
#include "replay/tape.hpp"

namespace {

using namespace pbw;
using campaign::Job;
using campaign::ParamSet;
using campaign::Registry;
using campaign::Scenario;

/// A registry with one cheap deterministic scenario.
Registry test_registry() {
  Registry registry;
  Scenario s;
  s.name = "toy.sum";
  s.description = "a + b plus a stream draw";
  s.params = {{"a", "1", ""}, {"b", "2", ""}, {"tag", "x", ""}};
  s.run = [](const ParamSet& params, util::Xoshiro256& rng) {
    return campaign::MetricRow{
        {"sum", params.get_double("a") + params.get_double("b")},
        {"draw", static_cast<double>(rng() >> 48)},
    };
  };
  registry.add(std::move(s));
  return registry;
}

/// Unique temp path per test; removes leftovers from a previous run.
std::string temp_out(const std::string& stem) {
  const auto path =
      (std::filesystem::temp_directory_path() / (stem + ".jsonl")).string();
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  return path;
}

/// Executor options with `threads` workers, every other field defaulted.
campaign::ExecutorOptions on_threads(std::size_t threads) {
  campaign::ExecutorOptions options;
  options.threads = threads;
  return options;
}

std::vector<util::Json> read_records(const std::string& path) {
  std::vector<util::Json> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(util::Json::parse(line));
  }
  return records;
}

// ---- ParamSet -------------------------------------------------------------

TEST(ParamSet, TypedGettersAndCanonical) {
  ParamSet p;
  p.set("p", "64");
  p.set("g", "2.5");
  p.set("name", "zipf");
  EXPECT_EQ(p.get_int("p"), 64);
  EXPECT_DOUBLE_EQ(p.get_double("g"), 2.5);
  EXPECT_EQ(p.get("name"), "zipf");
  EXPECT_THROW((void)p.get("missing"), std::out_of_range);
  EXPECT_THROW((void)p.get_int("name"), std::invalid_argument);
  // Sorted by key, independent of insertion order.
  EXPECT_EQ(p.canonical(), "g=2.5,name=zipf,p=64");
}

TEST(ParamSet, JsonNumbersVsStrings) {
  ParamSet p;
  p.set("p", "64");
  p.set("kind", "bsp");
  const util::Json j = p.to_json();
  EXPECT_DOUBLE_EQ(j.get("p")->as_double(), 64.0);
  EXPECT_EQ(j.get("kind")->as_string(), "bsp");
}

// ---- spec parsing ---------------------------------------------------------

TEST(Sweep, ParsesBlocksCommentsAndLists) {
  const auto specs = campaign::parse_spec(
      "# a comment\n"
      "scenario = toy.sum\n"
      "trials = 3\n"
      "seeds = 1, 2\n"
      "a = 1, 10  # inline comment\n"
      "\n"
      "[sweep]\n"
      "scenario = toy.sum\n"
      "b = 5\n");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].scenario, "toy.sum");
  EXPECT_EQ(specs[0].trials, 3);
  EXPECT_EQ(specs[0].seeds, (std::vector<std::uint64_t>{1, 2}));
  ASSERT_EQ(specs[0].axes.size(), 1u);
  EXPECT_EQ(specs[0].axes[0].first, "a");
  EXPECT_EQ(specs[0].axes[0].second, (std::vector<std::string>{"1", "10"}));
  EXPECT_EQ(specs[1].trials, 1);  // defaults reset per block
}

TEST(Sweep, ParseErrors) {
  EXPECT_THROW(campaign::parse_spec(""), std::invalid_argument);
  EXPECT_THROW(campaign::parse_spec("a = 1\n"), std::invalid_argument);  // no scenario
  EXPECT_THROW(campaign::parse_spec("scenario = s\nnot a kv line\n"),
               std::invalid_argument);
  EXPECT_THROW(campaign::parse_spec("scenario = s\ntrials = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(campaign::parse_spec("scenario = s\nseeds = frog\n"),
               std::invalid_argument);
  EXPECT_THROW(campaign::parse_spec("scenario = s\na = 1\na = 2\n"),
               std::invalid_argument);
}

// ---- expansion ------------------------------------------------------------

TEST(Sweep, ExpandsCartesianGridTimesSeeds) {
  const auto registry = test_registry();
  const auto specs = campaign::parse_spec(
      "scenario = toy.sum\n"
      "seeds = 7, 8\n"
      "a = 1, 2, 3\n"
      "b = 10, 20\n");
  const auto jobs = campaign::expand_all(specs, registry);
  ASSERT_EQ(jobs.size(), 3u * 2u * 2u);
  // Last axis fastest, then seeds; defaults filled for unswept params.
  EXPECT_EQ(jobs[0].params.get("a"), "1");
  EXPECT_EQ(jobs[0].params.get("b"), "10");
  EXPECT_EQ(jobs[0].params.get("tag"), "x");
  EXPECT_EQ(jobs[0].seed, 7u);
  EXPECT_EQ(jobs[1].seed, 8u);
  EXPECT_EQ(jobs[2].params.get("b"), "20");
  EXPECT_EQ(jobs.back().params.get("a"), "3");
  EXPECT_EQ(jobs.back().params.get("b"), "20");
  // Keys are unique across the grid.
  std::set<std::string> keys;
  for (const auto& job : jobs) keys.insert(job.base_key());
  EXPECT_EQ(keys.size(), jobs.size());
}

TEST(Sweep, RejectsUnknownScenarioAndParam) {
  const auto registry = test_registry();
  campaign::SweepSpec spec;
  spec.scenario = "no.such";
  EXPECT_THROW(campaign::expand(spec, registry), std::invalid_argument);
  spec.scenario = "toy.sum";
  spec.axes = {{"bogus", {"1"}}};
  EXPECT_THROW(campaign::expand(spec, registry), std::invalid_argument);
}

/// The message expand_all throws for `spec_text`, or "" when it expands.
std::string expand_error(const std::string& spec_text) {
  try {
    (void)campaign::expand_all(campaign::parse_spec(spec_text), test_registry());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Sweep, RejectsRepeatedAxisValue) {
  const std::string what = expand_error("scenario = toy.sum\na = 1, 2, 1\n");
  EXPECT_NE(what.find("'toy.sum'"), std::string::npos) << what;
  EXPECT_NE(what.find("axis 'a' repeats the value 1"), std::string::npos)
      << what;
}

TEST(Sweep, RejectsRepeatedSeed) {
  const std::string what =
      expand_error("scenario = toy.sum\nseeds = 3, 4, 3\n");
  EXPECT_NE(what.find("'toy.sum'"), std::string::npos) << what;
  EXPECT_NE(what.find("axis 'seeds' repeats the value 3"), std::string::npos)
      << what;
}

TEST(Sweep, ValuesCompareAsNumbersWhereBothParse) {
  const std::string what = expand_error("scenario = toy.sum\nb = 4, 4.0\n");
  EXPECT_NE(what.find("axis 'b' repeats the value 4 (as 4.0)"),
            std::string::npos)
      << what;
  // Text compares as written, and distinct numbers stay distinct.
  EXPECT_EQ(expand_error("scenario = toy.sum\ntag = x, X, 4x\n"
                         "b = 4, 4.5, 40, -4\n"),
            "");
}

TEST(Sweep, RejectsOverlappingBlocks) {
  const std::string what = expand_error(
      "scenario = toy.sum\na = 1, 2\nb = 5\n"
      "[sweep]\nscenario = toy.sum\nb = 6, 5.0\na = 2\n");
  EXPECT_NE(what.find("'toy.sum': blocks 1 and 2 both expand to the point "
                      "a=2, b=5, seed=1"),
            std::string::npos)
      << what;
  // The same axes at another seed are a new point.
  EXPECT_EQ(expand_error("scenario = toy.sum\na = 1\n"
                         "[sweep]\nscenario = toy.sum\na = 1\nseeds = 2\n"),
            "");
}

// ---- recorder + JSONL round-trip ------------------------------------------

TEST(Recorder, RoundTripsRecordThroughJson) {
  const auto registry = test_registry();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.sum\ntrials = 2\na = 4\n"),
      registry);
  ASSERT_EQ(jobs.size(), 1u);

  const auto out = temp_out("pbw_roundtrip");
  campaign::Recorder recorder(out, "vtest");
  campaign::run_campaign(jobs, recorder, on_threads(1));

  const auto records = read_records(out);
  ASSERT_EQ(records.size(), 1u);
  const auto& rec = records[0];
  EXPECT_EQ(rec.get("scenario")->as_string(), "toy.sum");
  EXPECT_EQ(rec.get("git")->as_string(), "vtest");
  EXPECT_EQ(rec.get("seed")->as_int(), 1);
  EXPECT_EQ(rec.get("trials")->as_int(), 2);
  EXPECT_DOUBLE_EQ(rec.get("params")->get("a")->as_double(), 4.0);
  const util::Json* sum = rec.get("metrics")->get("sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->get("n")->as_int(), 2);
  EXPECT_DOUBLE_EQ(sum->get("mean")->as_double(), 6.0);  // 4 + default b=2
  EXPECT_DOUBLE_EQ(sum->get("stddev")->as_double(), 0.0);
  EXPECT_EQ(rec.get("key")->as_string(), recorder.key_for(jobs[0]));
}

TEST(Recorder, AggregateComputesQuantiles) {
  std::vector<campaign::MetricRow> trials;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) trials.push_back({{"t", v}});
  const util::Json m = campaign::Recorder::aggregate(trials);
  EXPECT_DOUBLE_EQ(m.get("t")->get("mean")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(m.get("t")->get("p50")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(m.get("t")->get("min")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(m.get("t")->get("max")->as_double(), 4.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// The first `n` lines of `text`, newlines included.
std::string first_lines(const std::string& text, std::size_t n) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < n; ++i) end = text.find('\n', end) + 1;
  return text.substr(0, end);
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Every manifest key has exactly one row, and row i carries key i.
void expect_rows_match_keys(const std::string& out) {
  const auto records = read_records(out);
  std::istringstream manifest(read_file(out + ".manifest"));
  std::vector<std::string> keys;
  std::string key;
  while (std::getline(manifest, key)) keys.push_back(key);
  ASSERT_EQ(records.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(records[i].get("key")->as_string(), keys[i]) << "row " << i;
  }
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size());
}

/// Runs a four-job sweep (one commit per job) to completion, lets `crash`
/// rewrite the results and manifest into a crash state, and checks that a
/// reopened recorder keeps `kept` rows and keys, and that a resumed run
/// adds each missing row exactly once.
void check_crash_state(
    const std::string& stem, std::size_t kept,
    const std::function<void(std::string& rows, std::string& keys)>& crash) {
  const auto registry = test_registry();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.sum\na = 1, 2, 3, 4\n"), registry);
  const auto out = temp_out(stem);
  {
    campaign::Recorder recorder(out, "vtest");
    campaign::run_campaign(jobs, recorder, on_threads(1));
  }
  const std::string rows = read_file(out);
  const std::string keys = read_file(out + ".manifest");
  std::string crashed_rows = rows, crashed_keys = keys;
  crash(crashed_rows, crashed_keys);
  write_file(out, crashed_rows);
  write_file(out + ".manifest", crashed_keys);

  campaign::Recorder recorder(out, "vtest");
  EXPECT_EQ(recorder.recorded_count(), kept);
  EXPECT_EQ(read_file(out), first_lines(rows, kept));
  EXPECT_EQ(read_file(out + ".manifest"), first_lines(keys, kept));

  const auto stats = campaign::run_campaign(jobs, recorder, on_threads(1));
  EXPECT_EQ(stats.skipped, kept);
  EXPECT_EQ(stats.executed, jobs.size() - kept);
  EXPECT_EQ(sorted_lines(read_file(out)), sorted_lines(rows));
  expect_rows_match_keys(out);
}

TEST(Recorder, ReopenCutsATornFinalRow) {
  // The last batch died mid-write of its row: its key never went out.
  check_crash_state("pbw_crash_torn_row", 3, [](std::string& rows,
                                                std::string& keys) {
    keys = first_lines(keys, 3);
    rows = first_lines(rows, 3) + rows.substr(first_lines(rows, 3).size(), 40);
  });
}

TEST(Recorder, ReopenCutsRowsPastTheManifest) {
  // The last batch's rows were synced, its keys never written.
  check_crash_state("pbw_crash_rows_past_keys", 2,
                    [](std::string&, std::string& keys) {
                      keys = first_lines(keys, 2);
                    });
}

TEST(Recorder, ReopenCutsATornFinalKey) {
  // The last batch died mid-write of its key: the torn key is cut, so the
  // next append starts a line of its own, and so is the row it named.
  check_crash_state("pbw_crash_torn_key", 3, [](std::string&, std::string& keys) {
    keys = first_lines(keys, 3) + keys.substr(first_lines(keys, 3).size(), 12);
  });
}

TEST(Recorder, ReopenCutsAKeyWithoutItsRow) {
  // No crash under the commit order leaves this, but a file written by
  // an older recorder can: the key goes, and its job re-runs.
  check_crash_state("pbw_crash_key_without_row", 3,
                    [](std::string& rows, std::string&) {
                      rows = first_lines(rows, 3);
                    });
}

TEST(Recorder, RefusesRowsWithoutAManifest) {
  // Cutting to the manifest's count would cut every row.
  const auto out = temp_out("pbw_no_manifest");
  write_file(out, "{\"key\":\"x\"}\n");
  EXPECT_THROW(campaign::Recorder(out, "vtest"), std::runtime_error);
  EXPECT_EQ(read_file(out), "{\"key\":\"x\"}\n");
  EXPECT_FALSE(std::filesystem::exists(out + ".manifest"));
}

TEST(Recorder, CountsOneCommitPerShard) {
  auto& metrics = obs::MetricsRegistry::global();
  const auto counts = [&] {
    return std::vector<std::uint64_t>{
        metrics.counter("campaign.recorder.rows").value(),
        metrics.counter("campaign.recorder.bytes").value(),
        metrics.counter("campaign.recorder.syncs").value()};
  };
  // One 80-job cost-only grid.pattern group and one contour.map job: two
  // shards, so two commits of two syncs each.
  const auto grid = campaign::expand_all(
      campaign::parse_spec(
          "scenario = grid.pattern\npattern = ring\np = 32\nh = 2\n"
          "rounds = 2\nmodel = bsp-g, bsp-m, qsm-g, qsm-m, ss-bsp-m\n"
          "g = 2, 8\nL = 4, 16\nm = 4, 16\npenalty = linear, exp\n"
          "trials = 2\n"
          "[sweep]\nscenario = contour.map\npattern = ring\np = 32\n"
          "h = 2\nrounds = 2\ng_cells = 8\nm_cells = 8\n"),
      Registry::instance());
  ASSERT_EQ(grid.size(), 81u);
  auto out = temp_out("pbw_recorder_counts");
  {
    const auto before = counts();
    campaign::Recorder recorder(out, "vtest");
    EXPECT_EQ(counts()[2] - before[2], 1u);  // the new files' directory
  }
  {
    campaign::Recorder recorder(out, "vtest");
    const auto before = counts();
    campaign::run_campaign(grid, recorder, on_threads(2));
    const auto after = counts();
    EXPECT_EQ(after[0] - before[0], 81u);
    EXPECT_EQ(after[1] - before[1], std::filesystem::file_size(out) +
                                        std::filesystem::file_size(out + ".manifest"));
    EXPECT_EQ(after[2] - before[2], 4u);
  }
  // One-job shards: two syncs per job.
  const auto registry = test_registry();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.sum\na = 1, 2, 3\n"), registry);
  out = temp_out("pbw_recorder_counts_toy");
  campaign::Recorder recorder(out, "vtest");
  const auto before = counts();
  campaign::run_campaign(jobs, recorder, on_threads(2));
  EXPECT_EQ(counts()[0] - before[0], 3u);
  EXPECT_EQ(counts()[2] - before[2], 6u);
}

TEST(Recorder, ConcurrentCommitsKeepEveryRowWithItsKey) {
  // Four threads commit batches to one recorder: the batches interleave,
  // but each lands whole, rows before keys, in the same order in both files.
  const auto registry = test_registry();
  std::string axis;
  for (int a = 0; a < 50; ++a) axis += (a == 0 ? "" : ", ") + std::to_string(a);
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.sum\nseeds = 1, 2, 3, 4\na = " +
                           axis + "\n"),
      registry);
  ASSERT_EQ(jobs.size(), 200u);
  const auto out = temp_out("pbw_recorder_threads");
  {
    campaign::Recorder recorder(out, "vtest");
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<campaign::Recorder::Row> batch;
        for (std::size_t j = t; j < jobs.size(); j += 4) {
          batch.push_back(recorder.make_row(jobs[j], {{{"x", 1.0}}}));
          if (batch.size() == 5) {
            EXPECT_EQ(recorder.commit(batch), 5u);
            batch.clear();
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(recorder.recorded_count(), jobs.size());
  }
  expect_rows_match_keys(out);
  EXPECT_EQ(read_records(out).size(), jobs.size());
}

// ---- resume ---------------------------------------------------------------

TEST(Resume, SecondRunSkipsEveryJobAndForceReruns) {
  const auto registry = test_registry();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.sum\na = 1, 2\nseeds = 1, 2\n"),
      registry);
  ASSERT_EQ(jobs.size(), 4u);
  const auto out = temp_out("pbw_resume");

  {
    campaign::Recorder recorder(out, "vtest");
    const auto stats = campaign::run_campaign(jobs, recorder, on_threads(2));
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.skipped, 0u);
  }
  {
    // A fresh Recorder re-reads the manifest from disk.
    campaign::Recorder recorder(out, "vtest");
    const auto stats = campaign::run_campaign(jobs, recorder, on_threads(2));
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.skipped, 4u);
    EXPECT_EQ(read_records(out).size(), 4u);  // no duplicate records
  }
  {
    // A different code version must NOT hit the cache.
    campaign::Recorder recorder(out, "vother");
    const auto stats = campaign::run_campaign(jobs, recorder, on_threads(2));
    EXPECT_EQ(stats.executed, 4u);
  }
  {
    // --force re-runs and re-records.
    campaign::Recorder recorder(out, "vtest");
    auto forced = on_threads(2);
    forced.force = true;
    const auto stats = campaign::run_campaign(jobs, recorder, forced);
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.skipped, 0u);
  }
}

// ---- executor determinism -------------------------------------------------

TEST(Executor, ResultsIndependentOfThreadCount) {
  const auto registry = test_registry();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec(
          "scenario = toy.sum\ntrials = 3\na = 1, 2, 3\nb = 4, 5\n"),
      registry);

  const auto out1 = temp_out("pbw_threads1");
  const auto out4 = temp_out("pbw_threads4");
  {
    campaign::Recorder r1(out1, "vtest");
    campaign::run_campaign(jobs, r1, on_threads(1));
    campaign::Recorder r4(out4, "vtest");
    campaign::run_campaign(jobs, r4, on_threads(4));
  }
  auto lines = [](const std::string& path) {
    std::vector<std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(lines(out1), lines(out4));
}

TEST(Executor, MisspelledPenaltyFailsTheJob) {
  // As a misspelled model does: `lienar` must not run the exp penalty.
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = grid.pattern\npattern = random\n"
                           "p = 64\nh = 8\nmodel = bsp-m\nm = 2\n"
                           "penalty = lienar, exp, linear\n"),
      Registry::instance());
  ASSERT_EQ(jobs.size(), 3u);
  campaign::Recorder recorder(temp_out("pbw_penalty_typo"), "vtest");
  try {
    (void)campaign::run_campaign(jobs, recorder, on_threads(1));
    FAIL() << "a misspelled penalty ran";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown penalty 'lienar'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Executor, ScenarioErrorsPropagate) {
  Registry registry;
  Scenario s;
  s.name = "toy.throws";
  s.run = [](const ParamSet&, util::Xoshiro256&) -> campaign::MetricRow {
    throw std::runtime_error("boom");
  };
  registry.add(std::move(s));
  campaign::SweepSpec spec;
  spec.scenario = "toy.throws";
  const auto jobs = campaign::expand(spec, registry);
  const auto out = temp_out("pbw_throws");
  campaign::Recorder recorder(out, "vtest");
  EXPECT_THROW(campaign::run_campaign(jobs, recorder, on_threads(2)),
               std::runtime_error);
}

// ---- registry -------------------------------------------------------------

TEST(Registry, RejectsDuplicatesAndAnonymous) {
  Registry registry = test_registry();
  Scenario dup;
  dup.name = "toy.sum";
  dup.run = [](const ParamSet&, util::Xoshiro256&) {
    return campaign::MetricRow{};
  };
  EXPECT_THROW(registry.add(dup), std::invalid_argument);
  Scenario anon;
  EXPECT_THROW(registry.add(anon), std::invalid_argument);
}

TEST(Registry, BuiltinsCoverTable1AndPortedBenches) {
  const auto& registry = Registry::instance();
  for (const char* name :
       {"table1.one_to_all", "table1.broadcast", "table1.summation",
        "table1.list_ranking", "table1.sorting", "sched.penalty",
        "broadcast.bounds", "sorting.engines", "list_ranking.qsm",
        "sched.unbalanced_send", "sched.consecutive", "sched.granular",
        "sched.long_messages", "sched.overhead", "sched.selfsched",
        "sched.count_n", "pram.concurrent_read", "pram.central_reads",
        "pram.leader", "pram.h_relation", "aqt.bsp_g", "aqt.algorithm_b",
        "aqt.mg1"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(Executor, TraceDirWritesOneValidStreamPerJob) {
  const auto& registry = Registry::instance();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = table1.one_to_all\np = 64\ng = 4\n"
                           "L = 4\nfamily = bsp, qsm\n"),
      registry);
  ASSERT_EQ(jobs.size(), 2u);
  const auto out = temp_out("pbw_tracedir");
  const auto trace_dir =
      (std::filesystem::temp_directory_path() / "pbw_tracedir_traces").string();
  std::filesystem::remove_all(trace_dir);

  campaign::Recorder recorder(out, "vtest");
  campaign::TraceFiles traces(trace_dir);
  campaign::ExecutorOptions options;
  options.threads = 2;
  options.traces = &traces;
  const auto stats = campaign::run_campaign(jobs, recorder, options);
  EXPECT_EQ(stats.executed, 2u);

  // One JSONL stream per job, each passing the schema validator with at
  // least one traced run (the scenarios run several Machines per job).
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    ++files;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    const auto v = obs::validate_trace_jsonl(in);
    EXPECT_TRUE(v.ok) << entry.path() << ": " << v.error;
    EXPECT_GT(v.runs, 0u) << entry.path();
    EXPECT_GT(v.supersteps, 0u) << entry.path();
    // Each file numbers its runs from 0, in run order.
    std::int64_t next_run = 0;
    for (const auto& record : read_records(entry.path().string())) {
      if (record.get("type")->as_string() != "run") continue;
      EXPECT_EQ(record.get("run")->as_int(), next_run++) << entry.path();
    }
  }
  EXPECT_EQ(files, 2u);
  std::filesystem::remove_all(trace_dir);
}

/// Every file a --trace-dir run wrote, by name.
std::map<std::string, std::string> trace_files(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream content;
    content << in.rdbuf();
    files[entry.path().filename().string()] = content.str();
  }
  return files;
}

TEST(TraceDir, ReplayedJobsMatchSimulatedJobs) {
  // One small sweep per scenario with a replay hook, each with members
  // that replay recosts instead of simulating.  A recosted job's trace
  // must be the file the same job writes when it is simulated.
  const std::vector<std::pair<std::string, std::string>> sweeps = {
      {"table1.one_to_all", "p = 64\nfamily = bsp\ng = 2, 4\nL = 4, 8\n"},
      {"table1.broadcast", "p = 64\nfamily = qsm\ng = 4\nL = 4, 8\n"},
      {"table1.summation", "p = 64\nfamily = qsm\ng = 4\nL = 4, 8\n"},
      {"table1.list_ranking", "p = 64\ng = 4\nL = 4, 8\n"},
      {"table1.sorting", "p = 64\ng = 4\nL = 4, 8\n"},
      {"grid.pattern",
       "pattern = random\np = 32\nh = 2\nrounds = 2\n"
       "model = bsp-g, bsp-m, qsm-m\ng = 2, 8\nL = 4\nm = 4\n"},
      {"contour.map",
       "pattern = ring\np = 32\nh = 2\nrounds = 2\ng_cells = 4\n"
       "m_cells = 4\nL = 4, 8, 16\n"},
      {"sched.penalty",
       "p = 32\nn = 256\nm = 8\nschedule = naive\npenalty = linear, exp\n"},
  };
  const auto root =
      std::filesystem::temp_directory_path() / "pbw_tracedir_replay";
  for (const auto& [scenario, axes] : sweeps) {
    SCOPED_TRACE(scenario);
    const auto jobs = campaign::expand_all(
        campaign::parse_spec("scenario = " + scenario + "\n" + axes),
        Registry::instance());
    std::map<std::string, std::string> simulated;
    for (const bool replay : {false, true}) {
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE((replay ? "replay, threads " : "no replay, threads ") +
                     std::to_string(threads));
        const auto dir = root / (scenario + (replay ? "_replay_" : "_sim_") +
                                 std::to_string(threads));
        std::filesystem::remove_all(dir);
        campaign::Recorder recorder(temp_out("pbw_tracedir_replay"), "vtest");
        campaign::TraceFiles traces(dir.string());
        campaign::ExecutorOptions options;
        options.threads = threads;
        options.replay = replay;
        options.traces = &traces;
        const auto stats = campaign::run_campaign(jobs, recorder, options);
        EXPECT_EQ(stats.executed, jobs.size());
        if (replay) {
          EXPECT_GT(stats.recosted, 0u);
          if (scenario == "grid.pattern") {
            EXPECT_GT(stats.batched, 0u);
            EXPECT_EQ(stats.batched, stats.recosted);
          }
        }
        const auto files = trace_files(dir);
        EXPECT_EQ(files.size(), jobs.size());
        if (!replay && threads == 1) {
          simulated = files;
          continue;
        }
        for (const auto& [name, content] : simulated) {
          const auto it = files.find(name);
          ASSERT_NE(it, files.end()) << name;
          EXPECT_TRUE(it->second == content)
              << name << ": " << it->second.size() << " bytes, simulated "
              << content.size();
        }
      }
    }
  }
  std::filesystem::remove_all(root);
}

TEST(TraceFiles, FileHoldsEveryJobsRunsNumberedInFileOrder) {
  // The flushed --trace file numbers its runs in file order; --trace-dir
  // holds the same runs, one stream per job.
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = table1.one_to_all\np = 64, 32\n"
                           "g = 4\nL = 4\nfamily = bsp, qsm\n"),
      Registry::instance());
  const auto root = std::filesystem::temp_directory_path() / "pbw_tracefile";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string file = (root / "t.jsonl").string();
  {
    campaign::TraceFiles traces((root / "d").string(), file);
    campaign::Recorder recorder(temp_out("pbw_tracefile"), "vtest");
    auto options = on_threads(4);
    options.traces = &traces;
    (void)campaign::run_campaign(jobs, recorder, options);
    traces.flush();
  }
  std::int64_t runs = 0;
  for (const auto& record : read_records(file)) {
    if (record.get("type")->as_string() != "run") continue;
    EXPECT_EQ(record.get("run")->as_int(), runs++);
  }
  std::int64_t dir_runs = 0;
  std::size_t streams = 0;
  for (const auto& entry : std::filesystem::directory_iterator(root / "d")) {
    ++streams;
    for (const auto& record : read_records(entry.path().string())) {
      if (record.get("type")->as_string() == "run") ++dir_runs;
    }
  }
  EXPECT_EQ(streams, jobs.size());
  EXPECT_GT(runs, 0);
  EXPECT_EQ(runs, dir_runs);
  std::filesystem::remove_all(root);
}

TEST(TraceFiles, UnknownFormatIsAFlagError) {
  EXPECT_THROW(campaign::TraceFiles("", "t.jsonl", "xml"), util::FlagError);
  EXPECT_FALSE(campaign::TraceFiles().enabled());
}

// ---- cooperative interrupt + resume ---------------------------------------

TEST(Executor, StopFlagInterruptsCleanlyAndResumes) {
  // A scenario that flips the stop flag during its third job: the worker
  // drains no further groups, stats report the interrupt, and every
  // recorded row/manifest line is whole — so a second run resumes.
  std::atomic<bool> stop{false};
  std::atomic<int> runs{0};
  Registry registry;
  Scenario s;
  s.name = "toy.stoppable";
  s.description = "sets the stop flag on its third run";
  s.params = {{"a", "1", ""}};
  s.run = [&stop, &runs](const ParamSet& params, util::Xoshiro256&) {
    if (runs.fetch_add(1) + 1 == 3) stop.store(true);
    return campaign::MetricRow{{"a", params.get_double("a")}};
  };
  registry.add(std::move(s));

  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.stoppable\na = 1, 2, 3, 4, 5, 6\n"),
      registry);
  ASSERT_EQ(jobs.size(), 6u);
  const auto out = temp_out("pbw_interrupt");

  campaign::CampaignStatus status;
  {
    campaign::Recorder recorder(out, "vtest");
    campaign::ExecutorOptions options;
    options.threads = 1;  // deterministic: jobs run in order
    options.status = &status;
    options.stop = &stop;
    const auto stats = campaign::run_campaign(jobs, recorder, options);
    EXPECT_TRUE(stats.interrupted);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.total, 6u);
  }
  EXPECT_EQ(status.to_json().get("state")->as_string(), "interrupted");

  // Every recorded line is whole and parseable (read_records throws on a
  // torn row), and the manifest matches the results file line for line.
  EXPECT_EQ(read_records(out).size(), 3u);
  std::size_t manifest_lines = 0;
  {
    std::ifstream manifest(out + ".manifest");
    std::string line;
    while (std::getline(manifest, line)) {
      if (!line.empty()) ++manifest_lines;
    }
  }
  EXPECT_EQ(manifest_lines, 3u);

  stop.store(false);
  {
    campaign::Recorder recorder(out, "vtest");
    campaign::ExecutorOptions options;
    options.threads = 1;
    options.stop = &stop;
    const auto stats = campaign::run_campaign(jobs, recorder, options);
    EXPECT_FALSE(stats.interrupted);
    EXPECT_EQ(stats.skipped, 3u);
    EXPECT_EQ(stats.executed, 3u);
  }
  EXPECT_EQ(read_records(out).size(), 6u);  // no duplicates, no gaps
}

TEST(Executor, StatusBoardTracksProgressAndCache) {
  const auto registry = test_registry();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = toy.sum\na = 1, 2\nseeds = 1, 2\n"),
      registry);
  const auto out = temp_out("pbw_statusboard");
  campaign::Recorder recorder(out, "vtest");
  campaign::CampaignStatus status;
  campaign::ExecutorOptions options;
  options.threads = 2;
  options.status = &status;
  const auto stats = campaign::run_campaign(jobs, recorder, options);
  EXPECT_EQ(stats.executed, 4u);

  const util::Json j = status.to_json();
  EXPECT_EQ(j.get("state")->as_string(), "done");
  EXPECT_EQ(j.get("jobs")->get("done")->as_int(), 4);
  EXPECT_EQ(j.get("jobs")->get("remaining")->as_int(), 0);
  EXPECT_EQ(j.get("jobs")->get("failed")->as_int(), 0);
  // toy.sum is not replayable: every job simulated, none recosted.
  EXPECT_EQ(j.get("jobs")->get("simulated")->as_int(), 4);
  EXPECT_EQ(j.get("jobs")->get("recosted")->as_int(), 0);
  ASSERT_NE(j.get("scenarios")->get("toy.sum"), nullptr);
  EXPECT_EQ(j.get("scenarios")->get("toy.sum")->get("done")->as_int(), 4);
  // The board is quiescent after the run.
  EXPECT_TRUE(status.in_flight().empty());
}

TEST(Registry, BuiltinTable1ScenarioRunsAtSmallScale) {
  const auto& registry = Registry::instance();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = table1.one_to_all\np = 64\ng = 4\n"
                           "L = 4\nfamily = bsp, qsm\n"),
      registry);
  ASSERT_EQ(jobs.size(), 2u);
  const auto out = temp_out("pbw_builtin");
  campaign::Recorder recorder(out, "vtest");
  const auto stats = campaign::run_campaign(jobs, recorder, on_threads(2));
  EXPECT_EQ(stats.executed, 2u);
  for (const auto& rec : read_records(out)) {
    EXPECT_DOUBLE_EQ(rec.get("metrics")->get("correct")->get("mean")->as_double(),
                     1.0);
    EXPECT_GT(rec.get("metrics")->get("sep_meas")->get("mean")->as_double(), 1.0);
  }
}

TEST(Registry, BuiltinContourMapChargesTheFullGrid) {
  const auto& registry = Registry::instance();
  const auto jobs = campaign::expand_all(
      campaign::parse_spec("scenario = contour.map\npattern = random\n"
                           "p = 64\nh = 4\nrounds = 4\n"
                           "g_cells = 16\nm_cells = 8\n"),
      registry);
  ASSERT_EQ(jobs.size(), 1u);
  const auto out = temp_out("pbw_contour");
  campaign::Recorder recorder(out, "vtest");
  const auto stats = campaign::run_campaign(jobs, recorder, on_threads(2));
  EXPECT_EQ(stats.executed, 1u);
  const auto records = read_records(out);
  ASSERT_EQ(records.size(), 1u);
  const util::Json* metrics = records.front().get("metrics");
  const auto mean = [&](const char* key) {
    return metrics->get(key)->get("mean")->as_double();
  };
  // Every cell is charged and classified: wins partition the grid, the
  // extrema bracket, and the map saw the whole 16 x 8 cross product.
  EXPECT_DOUBLE_EQ(mean("cells"), 128.0);
  EXPECT_DOUBLE_EQ(mean("local_wins") + mean("global_wins"), 128.0);
  EXPECT_GT(mean("time_min"), 0.0);
  EXPECT_GE(mean("time_max"), mean("time_min"));
  EXPECT_GE(mean("time_sum"), mean("time_max"));
  // rounds communication supersteps plus the terminating (empty) one.
  EXPECT_DOUBLE_EQ(mean("supersteps"), 5.0);
}

/// contour.map's row as a fold of the full cross product: a BSP(g) and a
/// BSP(m) point for every cell, 2·|g|·|m| one-point grids through
/// recost_batch, folded in m-major cell order.  The scenario charges only
/// the |g| + |m| marginals; its rows must equal this bit for bit.
campaign::MetricRow contour_reference(const ParamSet& params,
                                      const replay::StatsTape& tape) {
  const auto log_axis = [](std::int64_t cells, double max_value) {
    std::vector<double> axis(static_cast<std::size_t>(cells));
    for (std::size_t i = 0; i < axis.size(); ++i) {
      const double t = cells == 1 ? 1.0
                                  : static_cast<double>(i) /
                                        static_cast<double>(cells - 1);
      axis[i] = std::exp(std::log(max_value) * t);
    }
    return axis;
  };
  const auto gs = log_axis(params.get_int("g_cells"), params.get_double("g_max"));
  const auto ms = log_axis(params.get_int("m_cells"), params.get_double("m_max"));
  std::vector<replay::CostPointSpec> specs;
  for (const double m : ms) {
    for (const double g : gs) {
      replay::CostPointSpec local;
      local.family = replay::ModelFamily::kBspG;
      local.g = g;
      local.L = params.get_double("L");
      replay::CostPointSpec global;
      global.family = replay::ModelFamily::kBspM;
      global.m = static_cast<std::uint32_t>(std::max(1.0, std::round(m)));
      global.penalty = params.get("penalty") == "linear"
                           ? core::Penalty::kLinear
                           : core::Penalty::kExponential;
      global.L = local.L;
      specs.push_back(local);
      specs.push_back(global);
    }
  }
  std::vector<replay::CostGrid> grids;
  for (const replay::CostPointSpec& spec : specs) {
    grids.push_back(replay::CostGrid::point(spec));
  }
  const auto times = replay::recost_batch(tape, grids);
  double local_wins = 0.0, global_wins = 0.0, frontier = 0.0;
  double time_min = 0.0, time_max = 0.0, time_sum = 0.0;
  bool previous_local = false;
  for (std::size_t c = 0; c < specs.size() / 2; ++c) {
    const bool local = times[2 * c] < times[2 * c + 1];
    const double best = local ? times[2 * c] : times[2 * c + 1];
    (local ? local_wins : global_wins) += 1.0;
    if (c % gs.size() != 0 && local != previous_local) frontier += 1.0;
    previous_local = local;
    if (c == 0 || best < time_min) time_min = best;
    if (c == 0 || best > time_max) time_max = best;
    time_sum += best;
  }
  return {{"cells", static_cast<double>(specs.size() / 2)},
          {"local_wins", local_wins},
          {"global_wins", global_wins},
          {"frontier_crossings", frontier},
          {"time_min", time_min},
          {"time_max", time_max},
          {"time_sum", time_sum},
          {"supersteps", static_cast<double>(tape.size())}};
}

/// Names equal and values equal as bit patterns.
void expect_bit_equal(const campaign::MetricRow& got,
                      const campaign::MetricRow& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].first, want[k].first);
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &got[k].second, sizeof a);
    std::memcpy(&b, &want[k].second, sizeof b);
    EXPECT_EQ(a, b) << want[k].first << ": " << got[k].second << " vs "
                    << want[k].second;
  }
}

TEST(ContourMap, MarginalsFoldToTheCrossProductBitForBit) {
  // Every pattern and penalty, on a grid whose rounded m values repeat
  // (m_max = 6 over 7 rows) and on 1-cell axes.
  const auto jobs = campaign::expand_all(
      campaign::parse_spec(
          "scenario = contour.map\n"
          "pattern = one_to_all, ring, random, random_mem\n"
          "p = 32\nh = 2\nrounds = 2\npenalty = linear, exp\n"
          "g_cells = 5\nm_cells = 7\nm_max = 6\n"
          "[sweep]\nscenario = contour.map\n"
          "pattern = one_to_all, ring, random, random_mem\n"
          "p = 32\nh = 2\nrounds = 2\npenalty = linear, exp\n"
          "g_cells = 1, 3\nm_cells = 1, 4\n"),
      Registry::instance());
  ASSERT_EQ(jobs.size(), 8u + 32u);
  for (const Job& job : jobs) {
    SCOPED_TRACE(job.base_key());
    const auto [trials, group] = campaign::simulate_job(job, true);
    const replay::CapturedTrial& trial = group->trials.at(0);
    const auto want = contour_reference(job.params, trial.tapes.at(0));
    expect_bit_equal(trials.at(0), want);
    expect_bit_equal(job.scenario->replay(job.params, trial), want);
    expect_bit_equal(job.scenario->replay_batch({&job.params}, trial, nullptr).at(0),
                     want);
  }
}

// ---- CLI self-description --------------------------------------------------

/// Builds a Cli from a literal argv.
util::Cli make_cli(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("pbw-campaign")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliDocs, EveryDocumentedFlagParsesAsKnown) {
  // Feed each command its own documented flags (with a dummy value) and
  // assert none come back unknown — this is what keeps --help, the docs
  // tables and the unknown-flag gate from drifting apart.
  for (const campaign::CommandDoc& doc : campaign::command_docs()) {
    std::vector<std::string> args = {doc.name};
    for (const util::FlagDoc& flag : doc.flags) {
      args.push_back("--" + campaign::flag_doc_name(flag) + "=1");
    }
    args.push_back("--help");  // always allowed
    const util::Cli cli = make_cli(args);
    EXPECT_TRUE(campaign::unknown_flags(cli, doc).empty())
        << "command " << doc.name;
  }
}

TEST(CliDocs, UnknownFlagIsReported) {
  const campaign::CommandDoc* doc = campaign::find_command_doc("table1");
  ASSERT_NE(doc, nullptr);
  // --m too: the preset's global scenarios derive m = p/g, so a given m
  // would be ignored.
  const util::Cli cli =
      make_cli({"table1", "--trails=5", "--m=8", "--seed=1"});
  const auto unknown = campaign::unknown_flags(cli, *doc);
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "m");
  EXPECT_EQ(unknown[1], "trails");
}

TEST(CliDocs, RemovedFlagsAreUnknown) {
  // Settings with one value in use became constants (a 256 MiB tape
  // cache, a 30 s stall threshold, 3 shard attempts), and behaviours
  // nothing turned on went: each old spelling is now a typo, so main
  // exits 2 on it.
  const std::vector<std::pair<const char*, const char*>> removed = {
      {"run", "tape-cache-mb"},     {"run", "stall-seconds"},
      {"run", "metrics-interval"},  {"table1", "tape-cache-mb"},
      {"table1", "stall-seconds"},  {"table1", "metrics-interval"},
      {"serve", "max-attempts"},    {"serve", "no-replay"},
      {"serve", "replay-check"},    {"worker", "max-idle-seconds"},
      {"worker", "tape-cache-mb"}};
  for (const auto& [command, flag] : removed) {
    const campaign::CommandDoc* doc = campaign::find_command_doc(command);
    ASSERT_NE(doc, nullptr) << command;
    const util::Cli cli = make_cli({command, std::string("--") + flag + "=1"});
    EXPECT_EQ(campaign::unknown_flags(cli, *doc),
              std::vector<std::string>{flag})
        << command;
  }
}

TEST(CliDocs, ThreadsAreCappedWhenParsed) {
  // Parsing only: no pool is started.
  EXPECT_EQ(campaign::executor_options(make_cli({"run", "--threads=1024"}))
                .threads,
            1024u);
  EXPECT_EQ(campaign::executor_options(make_cli({"run"})).threads, 0u);
  for (const char* bad : {"--threads=1025", "--threads=100000",
                          "--threads=-1", "--threads=abc"}) {
    EXPECT_THROW((void)campaign::executor_options(make_cli({"run", bad})),
                 util::FlagError)
        << bad;
  }
}

TEST(CliDocs, CoversEveryDispatchedCommand) {
  for (const char* name :
       {"list", "run", "table1", "serve", "worker", "submit", "plan"}) {
    EXPECT_NE(campaign::find_command_doc(name), nullptr) << name;
  }
  EXPECT_EQ(campaign::find_command_doc("no-such"), nullptr);
}

TEST(CliDocs, FlagDocNameStripsValueSpellings) {
  EXPECT_EQ(campaign::flag_doc_name({"trace-dir=<dir>", ""}), "trace-dir");
  EXPECT_EQ(campaign::flag_doc_name({"trace[=<file>]", ""}), "trace");
  EXPECT_EQ(campaign::flag_doc_name({"force", ""}), "force");
}

}  // namespace
