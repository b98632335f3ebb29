#include "campaign/cli_docs.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>

namespace pbw::campaign {

namespace {

// Flag docs shared by several commands, spelled once so help stays
// consistent.  Every entry must match what the command's code path
// actually reads (tests/test_campaign.cpp walks the table).

util::FlagDoc out_flag(const char* fallback) {
  return {"out=<file>", std::string("output JSONL path (default ") + fallback +
                            ")"};
}

/// The most executor threads --threads takes.
constexpr std::int64_t kMaxThreads = 1024;

std::vector<util::FlagDoc> executor_flags() {
  return {
      {"threads=<n>", "executor threads, at most " +
                          std::to_string(kMaxThreads) +
                          "; 0 = hardware concurrency"},
      {"force", "rerun jobs already in the resume manifest"},
      {"no-replay", "simulate every grid point (disable trace replay)"},
      {"replay-check", "re-simulate recosted points; fail unless bit-equal"},
      {"trace-dir=<dir>", "per-job cost-attribution JSONL streams"},
  };
}

std::vector<util::FlagDoc> telemetry_flags() {
  return {
      {"serve-port=<n>", "serve /metrics + /status on this port (0 = any)"},
      {"serve-bind=<addr>", "bind address for --serve-port (default "
                            "127.0.0.1)"},
      {"metrics=<file>|-", "dump the metrics registry as JSON after the run"},
      {"access-log=<file>", "JSONL access log for the --serve-port endpoint "
                            "(one row per request)"},
      {"profile", "record host-time spans for engine/executor phases"},
      {"trace[=<file>]", "write every job's runs' cost attribution to a "
                         "file (default trace.jsonl)"},
      {"trace-format=<f>", "trace file format: jsonl | chrome | both"},
      {"quiet", "suppress the run summary line"},
  };
}

std::vector<util::FlagDoc> concat(
    std::initializer_list<std::vector<util::FlagDoc>> groups) {
  std::vector<util::FlagDoc> flags;
  for (const auto& group : groups) {
    flags.insert(flags.end(), group.begin(), group.end());
  }
  return flags;
}

std::vector<CommandDoc> build_docs() {
  std::vector<CommandDoc> docs;

  docs.push_back({"list",
                  "pbw-campaign list",
                  "show every registered scenario with its parameter schema",
                  {}});

  docs.push_back(
      {"run",
       "pbw-campaign run <spec-file> [flags]",
       "expand a sweep spec and run every job not in the resume manifest",
       concat({{out_flag("campaign.jsonl"),
                {"dry-run", "print the expanded job keys and exit"}},
               executor_flags(),
               telemetry_flags()})});

  docs.push_back(
      {"table1",
       "pbw-campaign table1 [flags]",
       "preset sweeping all five Table 1 scenarios, then printing the "
       "separation table",
       concat({{{"p=<n>", "processors (default 1024)"},
                {"g=<x>", "per-processor gap g (default 16; the global "
                          "scenarios pair it with m = p/g)"},
                {"L=<x>", "latency / periodicity L (default 16)"},
                {"seed=<n>", "RNG seed (default 1)"},
                {"trials=<n>", "repetitions per configuration (default 1)"},
                out_flag("table1.jsonl")},
               executor_flags(),
               telemetry_flags()})});

  docs.push_back(
      {"serve",
       "pbw-campaign serve [flags]",
       "run the fleet coordinator (POST /submit, /lease, /results, /plan)",
       {{"serve-port=<n>", "coordinator port (default 0 = any free port)"},
        {"serve-bind=<addr>", "bind address (default 127.0.0.1; 0.0.0.0 for "
                              "a real fleet)"},
        {"out-dir=<dir>", "campaign artifacts directory (default .)"},
        {"lease-seconds=<sec>", "unrenewed shard leases are reassigned "
                                "(default 30)"},
        {"access-log=<file>", "JSONL access log (one row per request)"}}});

  docs.push_back(
      {"worker",
       "pbw-campaign worker --coordinator=HOST:PORT [flags]",
       "run one fleet worker: lease shards, execute, stream rows back",
       {{"coordinator=<host:port>", "coordinator endpoint (required)"},
        {"worker-id=<name>", "stable worker name (default: host.pid)"},
        {"poll-seconds=<sec>", "idle poll interval (default 0.5)"}}});

  docs.push_back(
      {"submit",
       "pbw-campaign submit <spec-file> --coordinator=HOST:PORT [flags]",
       "submit a sweep spec to a running coordinator",
       {{"coordinator=<host:port>", "coordinator endpoint (required)"},
        {"wait", "poll until the campaign finishes"},
        {"out=<file>", "with --wait: download the merged JSONL here"},
        {"poll-seconds=<sec>", "--wait poll interval (default 0.5)"}}});

  docs.push_back(
      {"plan",
       "pbw-campaign plan <request.json> [flags]",
       "answer a bandwidth-planner request (docs/PLANNER.md)",
       {{"out=<file>|-", "response destination (default - = stdout)"},
        {"tape", "print the request's resolved tape instead of a plan "
                 "(reusable as an inline \"tape\")"}}});

  return docs;
}

}  // namespace

ExecutorOptions executor_options(const util::Cli& cli) {
  ExecutorOptions options;
  options.threads =
      static_cast<std::size_t>(cli.get_int("threads", 0, 0, kMaxThreads));
  options.force = cli.get_bool("force");
  options.replay = !cli.get_bool("no-replay");
  options.replay_check = cli.get_bool("replay-check");
  return options;
}

TraceFiles trace_files(const util::Cli& cli) {
  if (cli.has("trace-format") && !cli.has("trace")) {
    throw util::FlagError("--trace-format needs --trace");
  }
  std::string file = cli.get("trace");
  if (cli.has("trace") && (file.empty() || file == "true")) {
    file = "trace.jsonl";
  }
  return TraceFiles(cli.get("trace-dir"), file,
                    cli.get("trace-format", "jsonl"));
}

const std::vector<CommandDoc>& command_docs() {
  static const std::vector<CommandDoc> docs = build_docs();
  return docs;
}

const CommandDoc* find_command_doc(const std::string& name) {
  for (const CommandDoc& doc : command_docs()) {
    if (doc.name == name) return &doc;
  }
  return nullptr;
}

std::string flag_doc_name(const util::FlagDoc& doc) {
  const std::size_t cut = doc.flag.find_first_of("=[");
  return cut == std::string::npos ? doc.flag : doc.flag.substr(0, cut);
}

std::vector<std::string> unknown_flags(const util::Cli& cli,
                                       const CommandDoc& doc) {
  std::vector<std::string> unknown;
  for (const std::string& name : cli.flag_names()) {
    if (name == "help") continue;
    const bool known =
        std::any_of(doc.flags.begin(), doc.flags.end(),
                    [&](const util::FlagDoc& f) {
                      return flag_doc_name(f) == name;
                    });
    if (!known) unknown.push_back(name);
  }
  return unknown;
}

void print_overview(std::ostream& os) {
  os << "pbw-campaign — declarative experiment campaigns "
        "(docs/CAMPAIGN.md, docs/FLEET.md)\n\ncommands:\n";
  std::size_t width = 0;
  for (const CommandDoc& doc : command_docs()) {
    width = std::max(width, doc.name.size());
  }
  for (const CommandDoc& doc : command_docs()) {
    os << "  " << doc.name << std::string(width - doc.name.size() + 2, ' ')
       << doc.summary << "\n";
  }
  os << "\n`pbw-campaign <command> --help` lists that command's flags.\n";
}

void print_command_help(std::ostream& os, const CommandDoc& doc) {
  os << doc.summary << "\n\nusage: " << doc.usage << "\n";
  if (doc.flags.empty()) return;
  os << "\nflags:\n";
  std::size_t width = 0;
  for (const util::FlagDoc& flag : doc.flags) {
    width = std::max(width, flag.flag.size());
  }
  for (const util::FlagDoc& flag : doc.flags) {
    os << "  --" << flag.flag << std::string(width - flag.flag.size() + 2, ' ')
       << flag.help << "\n";
  }
}

}  // namespace pbw::campaign
