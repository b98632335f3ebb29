// pbw-campaign — run declarative experiment campaigns.
//
//   pbw-campaign list
//       Show every registered scenario with its parameter schema.
//
//   pbw-campaign run <spec-file> [--out=campaign.jsonl] [--threads=N]
//                    [--force] [--dry-run] [--trace-dir=<dir>]
//                    [--metrics=<file>|-] [--no-replay] [--replay-check]
//                    [--serve-port=N] [--profile]
//                    [--trace[=FILE]] [--trace-format=jsonl|chrome|both]
//       Expand the sweep blocks of the spec file and run every job not
//       already in the resume manifest; results append to the JSONL file.
//       --trace-dir writes each job's per-superstep cost attribution to
//       its own JSONL stream; --metrics dumps the executor's metrics
//       registry as JSON after the run (docs/OBSERVABILITY.md).  Grid
//       points differing only in cost-only axes are recosted from one
//       captured simulation held in a 256 MiB tape cache (docs/CAMPAIGN.md,
//       "Trace replay"); --no-replay simulates every point, --replay-check
//       re-simulates every recosted point and fails unless the rows are
//       bit-equal.
//
//       Live telemetry (docs/OBSERVABILITY.md, "Live telemetry"):
//       --serve-port=N serves Prometheus text at /metrics and campaign
//       progress JSON (done/total, cache hit rate, ETA) at /status on
//       127.0.0.1:N (0 picks a free port); a watchdog flags jobs in
//       flight for over 30 s; --profile turns on engine phase spans inside
//       every scenario; --trace/--trace-format write every job's runs to
//       one file in spec order (default trace.jsonl; span flamegraph
//       included in the chrome format).  SIGINT/SIGTERM stop the campaign
//       cooperatively: in-flight jobs finish, the metrics snapshot and
//       trace flush, and the run exits 128+sig with the manifest
//       resumable by rerunning the same command.
//
//   pbw-campaign table1 [--p=1024] [--g=16] [--L=16] [--seed=1]
//                       [--trials=1] [--out=table1.jsonl] [--threads=N]
//                       [--force]
//       Preset reproducing all five Table 1 rows end-to-end, then printing
//       the separations from the recorded JSONL.  The preset is a spec run
//       through the same path as `run`, so it takes `run`'s executor and
//       telemetry flags too.
//
//   pbw-campaign serve [--serve-port=N] [--serve-bind=ADDR] [--out-dir=DIR]
//                      [--lease-seconds=SEC] [--access-log=FILE]
//       Run the fleet coordinator (docs/FLEET.md): accept sweep specs over
//       HTTP (POST /submit), shard them into structural groups, and lease
//       shards to workers.  /status reports fleet-wide progress, /metrics
//       exports Prometheus text.  Binds 127.0.0.1 unless --serve-bind says
//       otherwise.
//
//   pbw-campaign worker --coordinator=HOST:PORT [--worker-id=NAME]
//                       [--poll-seconds=SEC]
//       Run one fleet worker: lease shards from the coordinator, execute
//       them, stream trial rows back.  Exits when the fleet drains (or on
//       SIGINT/SIGTERM).
//
//   pbw-campaign submit <spec-file> --coordinator=HOST:PORT [--wait]
//                       [--out=<file>] [--poll-seconds=SEC]
//       Submit a sweep spec to a running coordinator; prints the job id.
//       --wait polls until the job finishes and, with --out, downloads the
//       merged JSONL.
//
//   pbw-campaign plan <request.json> [--out=<file>|-] [--tape]
//       Answer a bandwidth-planner request: record (or load) its tape,
//       charge the envelope in one recost_batch pass, print the plan
//       report JSON.  --tape prints the resolved tape instead, reusable as
//       an inline "tape" in later requests.  "-" reads the request from
//       stdin.  `serve` and `run --serve-port` answer the same requests
//       on POST /plan.
//
// A numeric flag that does not parse, or lies outside its range (a port
// above 65535, --threads above 1024), exits 2 naming the flag.
//
// Spec format and JSON schema: docs/CAMPAIGN.md.  Fleet protocol:
// docs/FLEET.md.  Planner requests: docs/PLANNER.md.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "campaign/campaign.hpp"
#include "campaign/cli_docs.hpp"
#include "campaign/status.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/http_client.hpp"
#include "fleet/worker.hpp"
#include "planner/service.hpp"
#include "planner/wire.hpp"
#include "engine/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/http_server.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "obs/telemetry/signals.hpp"
#include "obs/telemetry/watchdog.hpp"
#include "util/cli.hpp"
#include "util/notification.hpp"
#include "util/table.hpp"

namespace {

using namespace pbw;

int cmd_list() {
  util::Table table({"scenario", "description", "parameters"});
  for (const auto* s : campaign::Registry::instance().all()) {
    std::string params;
    for (const auto& p : s->params) {
      if (!params.empty()) params += " ";
      params += p.name + "=" + p.default_value;
    }
    table.add_row({s->name, s->description, params});
  }
  table.print(std::cout);
  return 0;
}

/// The whole file at `path`, or nullopt (said on stderr) when it cannot
/// be read.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "pbw-campaign: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `text` to `path` ("-" for stdout); false (said on stderr) when
/// the file cannot be written.
bool write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream out(path);
  out << text;
  if (!out) std::cerr << "pbw-campaign: cannot write " << path << "\n";
  return static_cast<bool>(out);
}

/// Dumps the process metrics registry as JSON to `path` ("-" for stdout).
void dump_metrics_to(const std::string& path) {
  write_output(path, obs::MetricsRegistry::global().to_json().dump() + "\n");
}

/// --metrics=<file>: dump the metrics registry as JSON after the run.
void maybe_dump_metrics(const util::Cli& cli) {
  const std::string path = cli.get("metrics");
  if (!path.empty()) dump_metrics_to(path);
}

/// --serve-port; 0 (the default) picks a free port.
std::uint16_t serve_port(const util::Cli& cli) {
  return static_cast<std::uint16_t>(cli.get_int(
      "serve-port", 0, 0, std::numeric_limits<std::uint16_t>::max()));
}

/// Telemetry flags shared by `run` and `table1`.
struct TelemetryFlags {
  bool serve = false;             ///< --serve-port given
  std::uint16_t serve_port = 0;   ///< 0 picks an ephemeral port
  std::string serve_bind = "127.0.0.1";  ///< --serve-bind
  std::string metrics_path;
  std::string access_log;         ///< --access-log=FILE (JSONL); "" off
  bool profile = false;           ///< engine phase spans in every scenario
};

TelemetryFlags telemetry_flags(const util::Cli& cli) {
  TelemetryFlags flags;
  flags.serve = cli.has("serve-port");
  flags.serve_port = serve_port(cli);
  flags.serve_bind = cli.get("serve-bind", "127.0.0.1");
  flags.metrics_path = cli.get("metrics");
  flags.access_log = cli.get("access-log");
  flags.profile = cli.get_bool("profile");
  return flags;
}

/// Seconds a job may stay in flight before the watchdog flags it.
constexpr double kStallSeconds = 30.0;

/// Writes the --trace file now.  A file it cannot write is said on
/// stderr, not thrown: here the interrupt or the run's own error decides
/// the exit code.
void flush_traces_noting_errors(campaign::TraceFiles& traces) noexcept {
  try {
    traces.flush();
  } catch (const std::exception& e) {
    std::cerr << "pbw-campaign: " << e.what() << "\n";
  }
}

/// The campaign's live telemetry service: with --serve-port, the
/// /metrics + /status HTTP endpoint and the planner's POST /plan; always,
/// the supervisor thread, whose 100 ms tick runs the stall watchdog and
/// flushes the evidence snapshot and the --trace file the moment a
/// shutdown is requested (a second signal hard-exits, so that flush is
/// what survives a wedged job).
class Telemetry {
 public:
  Telemetry(campaign::CampaignStatus& status, campaign::TraceFiles& traces,
            TelemetryFlags flags)
      : status_(status),
        traces_(traces),
        flags_(std::move(flags)),
        watchdog_(
            kStallSeconds, [this] { return status_.in_flight(); },
            [this](const obs::WatchdogTask& task) {
              status_.mark_stalled(task.name);
              std::cerr << "pbw-campaign: watchdog: job '" << task.name
                        << "' in flight for " << task.seconds
                        << "s (threshold " << kStallSeconds << "s)\n";
            }) {}

  ~Telemetry() { stop(); }

  void start() {
    obs::install_shutdown_signals();
    if (flags_.profile) engine::set_profile_default(true);
    if (flags_.serve) {
      server_.route("GET", "/metrics", [](const obs::HttpRequest&) {
        obs::HttpResponse r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body =
            obs::render_prometheus(obs::MetricsRegistry::global().to_json());
        return r;
      });
      server_.route("GET", "/status", [this](const obs::HttpRequest&) {
        obs::HttpResponse r;
        r.content_type = "application/json";
        r.body = status_.to_json().dump() + "\n";
        return r;
      });
      server_.route("GET", "/healthz", [](const obs::HttpRequest&) {
        obs::HttpResponse r;
        r.body = "ok\n";
        return r;
      });
      // POST /plan — what-ifs during a run.  Built only here: its solve
      // pool is a thread per core.
      planner_.emplace().mount(server_);
      if (!flags_.access_log.empty()) server_.set_access_log(flags_.access_log);
      server_.start(flags_.serve_port, flags_.serve_bind);
      std::cerr << "pbw-campaign: telemetry on http://" << flags_.serve_bind
                << ":" << server_.port() << " (/metrics, /status, /plan)\n";
    }
    supervisor_ = std::thread([this] { supervise(); });
  }

  /// Joins the supervisor and stops the endpoint.  Safe to call twice
  /// (the destructor calls it during exception unwinding).
  void stop() {
    stop_.notify();
    if (supervisor_.joinable()) supervisor_.join();
    server_.stop();
  }

 private:
  void supervise() {
    bool announced = false;
    // The 100 ms tick is the signal check: a signal handler can only set
    // the shutdown flag, not notify, so stop_ ends the wait but a signal
    // is seen at the next tick.
    while (!stop_.wait_for(std::chrono::milliseconds(100))) {
      watchdog_.check();
      if (obs::shutdown_requested() && !announced) {
        announced = true;
        // Flush the evidence snapshot now, before in-flight jobs drain:
        // a second signal hard-exits, and this is what survives it.
        if (!flags_.metrics_path.empty() && flags_.metrics_path != "-") {
          dump_metrics_to(flags_.metrics_path);
        }
        flush_traces_noting_errors(traces_);
        std::cerr << "pbw-campaign: interrupt — finishing in-flight jobs; "
                     "recorded results are resumable (signal again to "
                     "abort)\n";
      }
    }
  }

  campaign::CampaignStatus& status_;
  campaign::TraceFiles& traces_;
  TelemetryFlags flags_;
  obs::HttpServer server_;
  std::optional<planner::PlanService> planner_;
  obs::Watchdog watchdog_;
  util::Notification stop_;
  std::thread supervisor_;
};

/// Interrupted runs exit 128+sig after pointing at the resume path.
int finalize_interrupt(const campaign::RunStats& stats) {
  if (!stats.interrupted) return 0;
  const std::size_t runnable = stats.total - stats.skipped;
  std::cerr << "pbw-campaign: interrupted after " << stats.executed << " of "
            << runnable
            << " runnable jobs; rerun the same command to resume.\n";
  const int sig = obs::shutdown_signal();
  return 128 + (sig == 0 ? 2 : sig);
}

/// Runs the jobs and prints the run summary; returns the wall-clock seconds.
campaign::RunStats run_and_report(const std::vector<campaign::Job>& jobs,
                                  campaign::Recorder& recorder,
                                  const campaign::ExecutorOptions& options,
                                  bool quiet) {
  const auto start = std::chrono::steady_clock::now();
  const auto stats = campaign::run_campaign(jobs, recorder, options);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!quiet) {
    std::cout << stats.total << " jobs: " << stats.executed << " executed ("
              << stats.simulated << " simulated, " << stats.recosted
              << " replay-recosted";
    if (stats.batched > 0) std::cout << ", " << stats.batched << " batched";
    if (stats.checked > 0) std::cout << ", " << stats.checked << " checked";
    std::cout << "), " << stats.skipped << " resume-skipped in " << secs
              << "s (batch kernel " << stats.batch_simd << " x"
              << stats.batch_threads << "; " << recorder.path() << ", git "
              << recorder.version() << ")\n";
  }
  return stats;
}

/// Prints what a finished run needs beyond its summary line; the exit code.
using RunReport = int (*)(const std::vector<campaign::Job>& jobs,
                          const campaign::Recorder& recorder);

/// The one run path, shared by `run` and the `table1` preset: expand the
/// spec text, open the recorder (--out, default `default_out`), start
/// telemetry, run every job and flush the metrics and the trace files.
/// `report` runs after an uninterrupted run.
int run_spec(const util::Cli& cli, const std::string& spec_text,
             const char* default_out, RunReport report = nullptr) {
  // Every flag is read and checked before a file is opened or a port bound.
  auto options = campaign::executor_options(cli);
  campaign::TraceFiles traces = campaign::trace_files(cli);
  TelemetryFlags flags = telemetry_flags(cli);
  const auto specs = campaign::parse_spec(spec_text);
  const auto jobs =
      campaign::expand_all(specs, campaign::Registry::instance());

  if (cli.get_bool("dry-run")) {
    for (const auto& job : jobs) {
      std::cout << job.base_key() << " trials=" << job.trials << "\n";
    }
    std::cout << jobs.size() << " jobs\n";
    return 0;
  }

  campaign::Recorder recorder(cli.get("out", default_out));
  campaign::CampaignStatus status;
  Telemetry telemetry(status, traces, std::move(flags));
  telemetry.start();

  options.status = &status;
  options.stop = obs::shutdown_flag();
  options.traces = &traces;
  campaign::RunStats stats;
  try {
    stats = run_and_report(jobs, recorder, options, cli.get_bool("quiet"));
  } catch (...) {
    // The finished jobs' runs are committed with their rows: keep them.
    flush_traces_noting_errors(traces);
    throw;
  }
  telemetry.stop();
  maybe_dump_metrics(cli);
  traces.flush();
  if (stats.interrupted || report == nullptr) return finalize_interrupt(stats);
  return report(jobs, recorder);
}

int cmd_run(const util::Cli& cli) {
  if (cli.positional().size() < 2) {
    std::cerr << "usage: pbw-campaign run <spec-file> [flags]\n"
                 "       (`pbw-campaign run --help` lists them)\n";
    return 2;
  }
  const auto spec = read_file(cli.positional()[1]);
  if (!spec) return 2;
  return run_spec(cli, *spec, "campaign.jsonl");
}

/// The Table 1 view, read back from the recorded artifact (so it covers
/// both fresh and resume-skipped jobs, and exercises the JSONL
/// round-trip).  Exit 0 only if every row is correct and within Theta.
int print_table1(const std::vector<campaign::Job>& jobs,
                 const campaign::Recorder& recorder) {
  std::set<std::string> wanted;
  for (const auto& job : jobs) wanted.insert(recorder.key_for(job));

  std::ifstream results(recorder.path());
  std::string line;
  util::Table table({"problem", "family", "local", "global", "sep (meas)",
                     "sep (paper)", "ratio", "correct"});
  bool all_correct = true;
  std::size_t shown = 0;
  while (std::getline(results, line)) {
    if (line.empty()) continue;
    const util::Json rec = util::Json::parse(line);
    const util::Json* key = rec.get("key");
    if (key == nullptr || wanted.count(key->as_string()) == 0) continue;
    wanted.erase(key->as_string());
    const util::Json& metrics = *rec.get("metrics");
    const auto mean = [&](const char* name) {
      return metrics.get(name)->get("mean")->as_double();
    };
    const util::Json* family = rec.get("params")->get("family");
    const util::Json* within = metrics.get("within_theta");
    const bool correct = mean("correct") >= 1.0 &&
                         (within == nullptr || within->get("mean")->as_double() >= 1.0);
    all_correct &= correct;
    table.add_row({rec.get("scenario")->as_string(),
                   family != nullptr ? family->as_string() : "-",
                   util::Table::num(mean("time_local")),
                   util::Table::num(mean("time_global")),
                   util::Table::num(mean("sep_meas")),
                   util::Table::num(mean("sep_pred")),
                   util::Table::num(mean("sep_ratio")),
                   correct ? "yes" : "NO"});
    ++shown;
  }
  table.print(std::cout);
  if (!wanted.empty()) {
    std::cerr << "pbw-campaign: " << wanted.size()
              << " expected records missing from " << recorder.path() << "\n";
    return 1;
  }
  std::cout << "\n" << shown << " rows; 'ratio' = measured separation /"
            << " predicted Theta — Table 1 asserts it stays within a"
            << " constant.\n";
  return all_correct ? 0 : 1;
}

int cmd_table1(const util::Cli& cli) {
  const auto flags = util::read_model_flags(cli);

  // The preset is itself a spec — the same path a user would script.
  std::ostringstream spec;
  for (const char* scenario : {"table1.one_to_all", "table1.broadcast",
                               "table1.summation"}) {
    spec << "[sweep]\nscenario = " << scenario << "\nfamily = bsp, qsm\n"
         << "p = " << flags.p << "\ng = " << flags.g << "\nL = " << flags.L
         << "\nseeds = " << flags.seed << "\ntrials = " << flags.trials
         << "\n";
  }
  for (const char* scenario : {"table1.list_ranking", "table1.sorting"}) {
    spec << "[sweep]\nscenario = " << scenario << "\np = " << flags.p
         << "\ng = " << flags.g << "\nL = " << flags.L
         << "\nseeds = " << flags.seed << "\ntrials = " << flags.trials
         << "\n";
  }
  return run_spec(cli, spec.str(), "table1.jsonl", print_table1);
}

// ---- fleet verbs (docs/FLEET.md) -------------------------------------------

int cmd_serve(const util::Cli& cli) {
  fleet::Coordinator::Options options;
  options.port = serve_port(cli);
  options.bind = cli.get("serve-bind", "127.0.0.1");
  options.out_dir = cli.get("out-dir", ".");
  options.lease_seconds = cli.get_positive("lease-seconds", 30.0);
  options.access_log = cli.get("access-log");

  obs::install_shutdown_signals();
  fleet::Coordinator coordinator(std::move(options));
  coordinator.start();
  std::cerr << "pbw-campaign: coordinator on http://"
            << cli.get("serve-bind", "127.0.0.1") << ":" << coordinator.port()
            << " (POST /submit, /status, /metrics)\n";
  while (!obs::shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  coordinator.stop();
  std::cerr << "pbw-campaign: coordinator stopped\n";
  return 0;
}

int cmd_worker(const util::Cli& cli) {
  const std::string endpoint_spec = cli.get("coordinator");
  if (endpoint_spec.empty()) {
    std::cerr << "usage: pbw-campaign worker --coordinator=HOST:PORT "
                 "[--worker-id=NAME] [--poll-seconds=SEC]\n";
    return 2;
  }
  const fleet::Endpoint endpoint = fleet::parse_endpoint(endpoint_spec);

  fleet::Worker::Options options;
  options.host = endpoint.host;
  options.port = endpoint.port;
  options.id = cli.get("worker-id");
  options.poll_seconds = cli.get_positive("poll-seconds", 0.5);
  obs::install_shutdown_signals();
  options.stop = obs::shutdown_flag();

  fleet::Worker worker(std::move(options));
  std::cerr << "pbw-campaign: worker " << worker.id() << " -> "
            << endpoint.host << ":" << endpoint.port << "\n";
  const fleet::Worker::Stats stats = worker.run();
  std::cout << "worker " << worker.id() << ": " << stats.shards
            << " shards, " << stats.rows << " rows";
  if (stats.errors > 0) std::cout << ", " << stats.errors << " errors";
  if (stats.stale > 0) std::cout << ", " << stats.stale << " stale leases";
  std::cout << "\n";
  return 0;
}

int cmd_submit(const util::Cli& cli) {
  const std::string endpoint_spec = cli.get("coordinator");
  if (cli.positional().size() < 2 || endpoint_spec.empty()) {
    std::cerr << "usage: pbw-campaign submit <spec-file> "
                 "--coordinator=HOST:PORT [--wait] [--out=<file>]\n";
    return 2;
  }
  const fleet::Endpoint endpoint = fleet::parse_endpoint(endpoint_spec);
  const double poll = cli.get_positive("poll-seconds", 0.5);
  const auto spec = read_file(cli.positional()[1]);
  if (!spec) return 2;

  const fleet::HttpResult res =
      fleet::http_post(endpoint.host, endpoint.port, "/submit", *spec);
  if (!res.ok) {
    std::cerr << "pbw-campaign: submit failed: " << res.error << "\n";
    return 1;
  }
  if (res.status != 200) {
    std::cerr << "pbw-campaign: submit rejected (" << res.status
              << "): " << res.body;
    return 1;
  }
  const util::Json reply = util::Json::parse(res.body);
  const std::string job = reply.get("job")->as_string();
  std::cout << "job " << job << ": " << reply.get("jobs")->as_int()
            << " grid points in " << reply.get("shards")->as_int()
            << " shards (" << reply.get("resumed")->as_int()
            << " resumed)\n";
  if (!cli.get_bool("wait")) return 0;

  obs::install_shutdown_signals();
  std::string state = "running";
  while (!obs::shutdown_requested()) {
    const fleet::HttpResult poll_res =
        fleet::http_get(endpoint.host, endpoint.port, "/jobs/" + job);
    if (poll_res.ok && poll_res.status == 200) {
      const util::Json doc = util::Json::parse(poll_res.body);
      state = doc.get("state")->as_string();
      if (state != "running") {
        std::cout << "job " << job << ": " << state << ", "
                  << doc.get("recorded")->as_int() << "/"
                  << doc.get("jobs")->as_int() << " rows recorded\n";
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(poll));
  }
  if (state == "running") return 130;  // interrupted while waiting

  const std::string out = cli.get("out");
  if (!out.empty()) {
    const fleet::HttpResult body =
        fleet::http_get(endpoint.host, endpoint.port, "/results/" + job);
    if (!body.ok || body.status != 200) {
      std::cerr << "pbw-campaign: cannot fetch results for " << job << "\n";
      return 1;
    }
    std::ofstream sink(out);
    sink << body.body;
    if (!sink) {
      std::cerr << "pbw-campaign: cannot write " << out << "\n";
      return 1;
    }
    std::cout << "results -> " << out << "\n";
  }
  return state == "done" ? 0 : 1;
}

int cmd_plan(const util::Cli& cli) {
  if (cli.positional().size() < 2) {
    std::cerr << "usage: pbw-campaign plan <request.json> [--out=<file>|-] "
                 "[--tape]\n"
                 "       (request schema: docs/PLANNER.md)\n";
    return 2;
  }
  const std::string& path = cli.positional()[1];
  std::optional<std::string> text;
  if (path == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    text = read_file(path);
    if (!text) return 2;
  }
  const util::Json request = util::Json::parse(*text);
  planner::PlanService service;
  const util::Json response =
      cli.get_bool("tape")
          ? planner::tape_to_json(*service.resolve_tape(request).tape)
          : service.plan(request);
  return write_output(cli.get("out", "-"), response.dump() + "\n") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string command =
      cli.positional().empty() ? "" : cli.positional()[0];

  // --help: the overview, or one command's flag table (campaign/cli_docs).
  const campaign::CommandDoc* doc = campaign::find_command_doc(command);
  if (cli.has("help")) {
    if (doc != nullptr) {
      campaign::print_command_help(std::cout, *doc);
    } else {
      campaign::print_overview(std::cout);
    }
    return 0;
  }
  // Reject flags the command does not read: a typo like --trails=5 must
  // not silently run a different experiment than the user asked for.
  if (doc != nullptr) {
    const std::vector<std::string> unknown = campaign::unknown_flags(cli, *doc);
    if (!unknown.empty()) {
      std::cerr << "pbw-campaign " << command << ": unknown flag";
      if (unknown.size() > 1) std::cerr << "s";
      std::cerr << ":";
      for (const std::string& flag : unknown) std::cerr << " --" << flag;
      std::cerr << "\n(`pbw-campaign " << command
                << " --help` lists the flags it reads)\n";
      return 2;
    }
  }

  try {
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(cli);
    if (command == "table1") return cmd_table1(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "submit") return cmd_submit(cli);
    if (command == "worker") return cmd_worker(cli);
    if (command == "plan") return cmd_plan(cli);
  } catch (const util::FlagError& e) {
    std::cerr << "pbw-campaign " << command << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pbw-campaign: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: pbw-campaign <list | run <spec-file> | table1 | serve "
               "| worker | submit <spec-file> | plan <request.json>> [flags]\n"
               "       (see docs/CAMPAIGN.md, docs/FLEET.md, "
               "docs/PLANNER.md; --help lists commands)\n";
  return 2;
}
