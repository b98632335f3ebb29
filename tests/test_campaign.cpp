// Campaign subsystem tests: sweep spec parsing and cartesian expansion,
// parallel execution determinism, JSON Lines round-trip, and the resume
// manifest's skip logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/cli_docs.hpp"
#include "campaign/status.hpp"
#include "obs/export.hpp"

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
        "broadcast.bounds", "sorting.engines"}) {
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
  campaign::ExecutorOptions options;
  options.threads = 2;
  options.trace_dir = trace_dir;
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
        campaign::ExecutorOptions options;
        options.threads = threads;
        options.replay = replay;
        options.trace_dir = dir.string();
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
  const util::Cli cli = make_cli({"table1", "--trails=5", "--seed=1"});
  const auto unknown = campaign::unknown_flags(cli, *doc);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "trails");
}

TEST(CliDocs, CoversEveryDispatchedCommand) {
  for (const char* name :
       {"list", "run", "table1", "serve", "worker", "submit", "plan"}) {
    EXPECT_NE(campaign::find_command_doc(name), nullptr) << name;
  }
  EXPECT_EQ(campaign::find_command_doc("no-such"), nullptr);
}

TEST(CliDocs, FlagDocNameStripsValueSpellings) {
  EXPECT_EQ(campaign::flag_doc_name({"tape-cache-mb=<n>", ""}),
            "tape-cache-mb");
  EXPECT_EQ(campaign::flag_doc_name({"trace[=<file>]", ""}), "trace");
  EXPECT_EQ(campaign::flag_doc_name({"force", ""}), "force");
}

}  // namespace
