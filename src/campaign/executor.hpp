// Parallel campaign execution over the engine's host thread pool.
//
// Jobs group by structural key (Job::structural_key): every job of a group
// executes the exact same supersteps, so the executor simulates one
// representative per group, captures its StatsTape stream, and recosts the
// remaining members under their own cost parameters (src/replay) — a dense
// cost-only sweep pays one simulation per structural point instead of one
// per grid point.  Groups are embarrassingly parallel — every simulation
// constructs its own Machine (with a single host thread) — so the executor
// fans the group list out over util::ThreadPool with a dynamic work
// queue (group durations vary by orders of magnitude across a grid, so
// static chunking would serialize on the largest point).  Results are
// deterministic, independent of thread count, and bit-equal whether a
// point was simulated or recosted: trial t of a job draws from the stream
// (seed, hash(rng_key), t) regardless of which worker runs it, and the
// --replay-check gate re-simulates recosted points to enforce equality.
//
// The group is also the fleet's unit of work: group_jobs() is the shared
// sharding function and execute_shard() runs one group's jobs — the local
// thread-pool path and the distributed worker loop (src/fleet) both call
// it, which is what makes a fleet run bit-identical to a --threads run.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/recorder.hpp"
#include "campaign/sweep.hpp"
#include "obs/trace.hpp"

namespace pbw::util {
class ThreadPool;
}  // namespace pbw::util

namespace pbw::campaign {

class CampaignStatus;
class TraceFiles;

struct ExecutorOptions {
  /// Host threads; 0 selects hardware concurrency.
  std::size_t threads = 0;
  /// Re-run and re-record jobs already present in the manifest.
  bool force = false;
  /// Where each executed job's runs go (campaign/trace_files.hpp): its
  /// --trace-dir stream as it finishes, and the --trace file under its
  /// index in `jobs`.  The runs are derived from the tapes the job's rows
  /// came from (replay::trace_run), so a simulated, recosted or
  /// batch-recosted job traces the same, and tracing changes neither the
  /// path nor the batching.  Optional; the caller flushes it.
  TraceFiles* traces = nullptr;
  /// Recost cost-only grid points from captured tapes instead of
  /// simulating each (--no-replay disables; non-replayable scenarios are
  /// unaffected either way).
  bool replay = true;
  /// Re-simulate every recosted job and require its metric rows to be
  /// bit-equal to the replayed ones (--replay-check).  The equivalence
  /// gate: a mismatch fails the campaign.
  bool replay_check = false;
  /// Live progress board (campaign/status.hpp): job begin/done events,
  /// per-worker in-flight state, tape-cache totals.  Optional; the
  /// telemetry endpoint and the watchdog read from it.
  CampaignStatus* status = nullptr;
  /// Cooperative stop: workers drain no new jobs once this flips true
  /// (obs::shutdown_flag() wires SIGINT/SIGTERM here).  Already-recorded
  /// jobs stay in the manifest, so the interrupted campaign resumes.
  const std::atomic<bool>* stop = nullptr;
};

struct RunStats {
  std::size_t total = 0;      ///< jobs in the expanded sweep
  std::size_t executed = 0;   ///< jobs run this campaign (simulated + recosted)
  std::size_t skipped = 0;    ///< jobs skipped via the resume manifest
  std::size_t simulated = 0;  ///< engine simulations (group representatives,
                              ///< cache rebuilds, and replay checks)
  std::size_t recosted = 0;   ///< jobs recosted from a captured tape group
  /// Of `recosted`, jobs charged through the scenario's replay_batch hook
  /// (one tape traversal for the whole group) rather than job by job.
  std::size_t batched = 0;
  std::size_t checked = 0;    ///< recosted jobs verified bit-equal
  /// The stop flag fired before every job ran; `executed` then counts
  /// only the jobs actually recorded, and the rest await a resume.
  bool interrupted = false;
  /// Batch-recost kernel attribution: the SIMD path recost_batch
  /// dispatches to in this process, and the thread count it could tile
  /// across (1 unless the run lent its pool to a lone batch group).
  std::string batch_simd = "scalar";
  std::size_t batch_threads = 1;
};

/// Runs trial `trial` of `job` alone, for real: it draws from the stream
/// (job.seed, fnv1a64(job.rng_key()), trial), so its row and tapes equal
/// that trial of simulate_job whatever else ran (the planner service
/// records one requested trial through this).  With `capture` set, the
/// trial's machine runs land in `tapes`; without it, `tapes` is empty.
[[nodiscard]] replay::CapturedTrial simulate_trial(const Job& job,
                                                   std::uint64_t trial,
                                                   bool capture);

/// Runs one job's trials, each through simulate_trial.  With `capture`
/// set, the group holds every trial's CapturedTrial, so it is
/// bit-identical to any other capture of the point.  Without `capture`
/// the returned group is null.
[[nodiscard]] std::pair<std::vector<MetricRow>, std::shared_ptr<replay::TapeGroup>>
simulate_job(const Job& job, bool capture);

/// Runs (or resume-skips) every job.  Each shard's rows are committed
/// once, when the shard ends, is stopped or throws (Recorder::commit).
/// Grid points recost from a process-wide 256 MiB tape cache that
/// outlives the call.  With `options.traces` set, each finished job's runs
/// go to it.  Throws the first job or commit error after the pool drains.
RunStats run_campaign(const std::vector<Job>& jobs, Recorder& recorder,
                      const ExecutorOptions& options = {});

// ---- shard execution (shared by the local pool and the fleet worker) -------

/// Groups jobs by structural key, first-appearance order.  Jobs of a
/// non-replayable scenario (or with `replay` off) form singleton groups.
/// Each group is one shard: the canonical work-lease unit.
[[nodiscard]] std::vector<std::vector<const Job*>> group_jobs(
    const std::vector<const Job*>& jobs, bool replay);

/// A job failure inside execute_shard, tagged with the failing job's key
/// so callers can attribute it without re-deriving which job was live.
class ShardError : public std::runtime_error {
 public:
  ShardError(std::string job_key, const std::string& what)
      : std::runtime_error(what), job_key_(std::move(job_key)) {}
  [[nodiscard]] const std::string& job_key() const noexcept { return job_key_; }

 private:
  std::string job_key_;
};

struct ShardOptions {
  bool replay = true;
  bool replay_check = false;
  /// Optional cross-shard tape cache; null still captures and reuses
  /// tapes within the shard, they just don't outlive the call.
  replay::TapeCache* cache = nullptr;
  /// Optional pool the scenario's replay_batch hook may tile its batch
  /// across.  Only lend one when the caller's own parallelism is idle
  /// (e.g. a single-group campaign, or a fleet worker leasing one shard
  /// at a time); the rows are bit-identical with or without it.
  util::ThreadPool* batch_pool = nullptr;
  /// Checked between jobs; a true load stops before the next job.
  const std::atomic<bool>* stop = nullptr;
};

struct ShardCallbacks {
  /// Invoked before each job starts (progress boards).
  std::function<void(const Job&)> begin;
  /// Invoked with each job's trial rows as it completes.  `recosted`
  /// distinguishes replayed jobs from simulations; `seconds` is the
  /// job's wall-clock.
  std::function<void(const Job&, const std::vector<MetricRow>& trials,
                     bool recosted, double seconds)>
      done;
  /// When set, invoked before `done` with the job's runs, numbered from 0:
  /// replay::trace_run of every tape its rows came from, each charged
  /// under the scenario's models hook when it declares one, else under
  /// the model that charged its capture.  Setting it forces capture.
  std::function<void(const Job&, std::vector<obs::TraceRun> runs)> trace;
};

struct ShardStats {
  std::size_t simulated = 0;
  std::size_t recosted = 0;
  std::size_t batched = 0;  ///< of recosted: charged via replay_batch
  std::size_t checked = 0;
  bool stopped = false;  ///< the stop flag cut the shard short
};

/// Executes one shard: simulates the group representative (unless the
/// cache already holds the group's tapes), recosts the remaining members,
/// and optionally re-simulates each recosted member as a bit-equality
/// check.  All jobs must share a structural key when replay grouping is
/// on.  Throws ShardError on the first failing job.
ShardStats execute_shard(const std::vector<const Job*>& jobs,
                         const ShardOptions& options,
                         const ShardCallbacks& callbacks);

}  // namespace pbw::campaign
