#include "campaign/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/status.hpp"
#include "campaign/trace_files.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "replay/batch.hpp"
#include "replay/cache.hpp"
#include "replay/recorder.hpp"
#include "util/fnv1a.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace pbw::campaign {

namespace {

/// Bit-level equality: the replay equivalence gate compares doubles as
/// their bit patterns (operator== would pass -0.0 vs 0.0 and fail NaNs).
bool bits_equal(double a, double b) noexcept {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

bool rows_equal(const std::vector<MetricRow>& a,
                const std::vector<MetricRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (std::size_t k = 0; k < a[t].size(); ++k) {
      if (a[t][k].first != b[t][k].first) return false;
      if (!bits_equal(a[t][k].second, b[t][k].second)) return false;
    }
  }
  return true;
}

/// The tape cache outlives one run_campaign call so repeated invocations
/// in a process (presets, tests, --force re-runs) recost instead of
/// re-simulating.  It holds up to 256 MiB of tapes.
replay::TapeCache& shared_tape_cache() {
  static replay::TapeCache cache(std::size_t{256} << 20);
  return cache;
}

bool stop_requested(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_relaxed);
}

/// A finished job's runs, derived from the tapes its rows came from and
/// numbered from 0.  Trial by trial, tape i is charged under the
/// scenario's models(params)[i] when it declares the hook, else under the
/// model that charged its capture; a synthetic tape has no model and no
/// run to show.
std::vector<obs::TraceRun> job_runs(const Job& job,
                                    const replay::TapeGroup& group) {
  std::vector<std::shared_ptr<const engine::CostModel>> models;
  if (job.scenario->models) models = job.scenario->models(job.params);
  std::vector<obs::TraceRun> runs;
  for (const replay::CapturedTrial& trial : group.trials) {
    if (!models.empty() && models.size() != trial.tapes.size()) {
      throw std::runtime_error(
          job.scenario->name + " names " + std::to_string(models.size()) +
          " models for " + std::to_string(trial.tapes.size()) + " runs");
    }
    for (std::size_t i = 0; i < trial.tapes.size(); ++i) {
      const replay::StatsTape& tape = trial.tapes[i];
      const auto& model = models.empty() ? tape.model : models[i];
      if (model == nullptr) continue;
      runs.push_back(replay::trace_run(tape, *model));
      runs.back().id = runs.size() - 1;
    }
  }
  return runs;
}

}  // namespace

replay::CapturedTrial simulate_trial(const Job& job, std::uint64_t trial,
                                     bool capture) {
  auto rng = util::RngStreams(job.seed).stream(util::fnv1a64(job.rng_key()),
                                               trial);
  // Without capture the runs record nowhere: a replay check's
  // re-simulation adds no runs to a trace.
  replay::TapeRecorder tape_recorder;
  replay::CapturedTrial captured;
  {
    replay::ScopedTapeRecorder scope(capture ? &tape_recorder : nullptr);
    captured.metrics = job.scenario->run(job.params, rng);
  }
  if (capture) captured.tapes = tape_recorder.take();
  return captured;
}

std::pair<std::vector<MetricRow>, std::shared_ptr<replay::TapeGroup>>
simulate_job(const Job& job, bool capture) {
  std::vector<MetricRow> trials;
  trials.reserve(static_cast<std::size_t>(job.trials));
  auto group = capture ? std::make_shared<replay::TapeGroup>() : nullptr;
  for (int t = 0; t < job.trials; ++t) {
    replay::CapturedTrial trial =
        simulate_trial(job, static_cast<std::uint64_t>(t), capture);
    if (capture) {
      trials.push_back(trial.metrics);
      group->trials.push_back(std::move(trial));
    } else {
      trials.push_back(std::move(trial.metrics));
    }
  }
  return {std::move(trials), std::move(group)};
}

std::vector<std::vector<const Job*>> group_jobs(
    const std::vector<const Job*>& jobs, bool replay) {
  std::vector<std::vector<const Job*>> groups;
  std::unordered_map<std::string, std::size_t> index;
  for (const Job* job : jobs) {
    const bool groupable = replay && job->scenario->replayable();
    if (groupable) {
      const auto [it, inserted] =
          index.emplace(job->structural_key(), groups.size());
      if (!inserted) {
        groups[it->second].push_back(job);
        continue;
      }
    }
    groups.push_back({job});
  }
  return groups;
}

ShardStats execute_shard(const std::vector<const Job*>& jobs,
                         const ShardOptions& options,
                         const ShardCallbacks& callbacks) {
  ShardStats stats;
  if (jobs.empty()) return stats;

  // A traced job's runs are derived from the tapes its rows came from, so
  // tracing only forces capture; the path below is the untraced one.
  const bool traced = callbacks.trace != nullptr;
  const Job* current = jobs.front();
  try {
    const bool replayable = options.replay && current->scenario->replayable();
    const std::string group_key = current->structural_key();
    std::shared_ptr<const replay::TapeGroup> tapes;
    std::size_t start = 0;

    if (replayable && options.cache != nullptr) {
      obs::Span cache_span("replay.tape_cache.get");
      tapes = options.cache->get(group_key);
    }
    if (!tapes) {
      // Simulate the representative; capture its tapes when anything
      // could recost or trace them later.
      const Job& rep = *jobs.front();
      if (callbacks.begin) callbacks.begin(rep);
      const auto job_start = std::chrono::steady_clock::now();
      std::vector<MetricRow> trials;
      std::shared_ptr<replay::TapeGroup> captured;
      {
        PBW_SPAN("campaign.job.simulate");
        std::tie(trials, captured) = simulate_job(rep, replayable || traced);
      }
      if (traced) callbacks.trace(rep, job_runs(rep, *captured));
      ++stats.simulated;
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - job_start)
                              .count();
      if (callbacks.done) callbacks.done(rep, trials, false, secs);
      start = 1;
      if (replayable) {
        tapes = std::move(captured);
        if (options.cache != nullptr) {
          obs::Span cache_span("replay.tape_cache.put");
          options.cache->put(group_key, tapes);
        }
      }
    }

    // Recost the remaining members (every member, when the whole group
    // came out of the cache).  A scenario with a replay_batch hook gets
    // its whole cost-only sub-grid charged in ONE tape traversal per
    // trial, traced or not; otherwise each member recosts through replay()
    // in the loop below, so a stop lands between members either way.
    const std::size_t remaining = jobs.size() - start;
    const bool batch = remaining >= 2 && tapes != nullptr &&
                       jobs.front()->scenario->replay_batch != nullptr &&
                       !stop_requested(options.stop);
    // rows[t][k] is trial t's metric row for member start + k.
    std::vector<std::vector<MetricRow>> rows;
    double shared_secs = 0.0;
    if (batch) {
      const auto batch_start = std::chrono::steady_clock::now();
      std::vector<const ParamSet*> points;
      points.reserve(remaining);
      for (std::size_t j = start; j < jobs.size(); ++j) {
        points.push_back(&jobs[j]->params);
      }
      rows.reserve(tapes->trials.size());
      {
        PBW_SPAN("campaign.job.recost_batch");
        for (const auto& trial : tapes->trials) {
          auto batch_rows = jobs.front()->scenario->replay_batch(
              points, trial, options.batch_pool);
          if (batch_rows.size() != points.size()) {
            throw std::runtime_error(
                "replay_batch returned " +
                std::to_string(batch_rows.size()) + " rows for " +
                std::to_string(points.size()) + " points");
          }
          rows.push_back(std::move(batch_rows));
        }
      }
      // The charging work was shared; attribute it evenly across the
      // members, then add each member's own bookkeeping/check time.
      shared_secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - batch_start)
                        .count() /
                    static_cast<double>(remaining);
    }
    for (std::size_t j = start; j < jobs.size(); ++j) {
      if (stop_requested(options.stop)) {
        stats.stopped = true;
        break;
      }
      const Job& job = *jobs[j];
      current = &job;
      if (callbacks.begin) callbacks.begin(job);
      const auto job_start = std::chrono::steady_clock::now();
      std::vector<MetricRow> trials;
      trials.reserve(tapes->trials.size());
      if (batch) {
        for (auto& trial_rows : rows) {
          trials.push_back(std::move(trial_rows[j - start]));
        }
      } else {
        PBW_SPAN("campaign.job.recost");
        for (const auto& trial : tapes->trials) {
          trials.push_back(job.scenario->replay(job.params, trial));
        }
      }
      if (traced) callbacks.trace(job, job_runs(job, *tapes));
      ++stats.recosted;
      if (batch) ++stats.batched;
      if (options.replay_check) {
        // The check re-simulation is accounted by `checked`, not
        // `simulated` — the recorded row still came from replay.
        PBW_SPAN("campaign.job.replay_check");
        auto fresh = simulate_job(job, false).first;
        if (!rows_equal(trials, fresh)) {
          throw std::runtime_error(
              "replay check failed: recosted metrics differ from fresh "
              "simulation");
        }
        ++stats.checked;
      }
      const double secs =
          shared_secs + std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - job_start)
                            .count();
      if (callbacks.done) callbacks.done(job, trials, true, secs);
    }
  } catch (const ShardError&) {
    throw;
  } catch (const std::exception& e) {
    throw ShardError(current->base_key(), e.what());
  }
  return stats;
}

RunStats run_campaign(const std::vector<Job>& jobs, Recorder& recorder,
                      const ExecutorOptions& options) {
  RunStats stats;
  stats.total = jobs.size();

  std::vector<const Job*> runnable;
  runnable.reserve(jobs.size());
  for (const auto& job : jobs) {
    if (!options.force && recorder.already_recorded(job)) {
      ++stats.skipped;
    } else {
      runnable.push_back(&job);
    }
  }
  stats.executed = runnable.size();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("campaign.jobs_skipped").add(stats.skipped);
  if (runnable.empty()) return stats;

  // Group runnable jobs by structural key (first-appearance order).  A
  // non-replayable scenario's structural key is its full base key, so its
  // jobs form singleton groups and take the plain simulation path.
  const auto groups = group_jobs(runnable, options.replay);

  auto& executed_counter = metrics.counter("campaign.jobs_executed");
  auto& failed_counter = metrics.counter("campaign.jobs_failed");
  auto& job_seconds =
      metrics.histogram("campaign.job_seconds", 1e-4, 100.0, 24);

  replay::TapeCache& cache = shared_tape_cache();

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> simulated{0};
  std::atomic<std::size_t> recosted{0};
  std::atomic<std::size_t> batched{0};
  std::atomic<std::size_t> checked{0};
  std::atomic<std::size_t> completed{0};
  std::mutex error_mutex;
  std::string first_error;

  ShardOptions shard_options;
  shard_options.replay = options.replay;
  shard_options.replay_check = options.replay_check;
  shard_options.cache = &cache;
  shard_options.stop = options.stop;

  // A lone group starves the group-level fan-out (one worker, the rest of
  // the pool idle), so lend the concurrency to the batch-recost kernel
  // instead.  A separate pool: the group worker runs inside the outer
  // pool's parallel_for, and nested dispatch on one pool is forbidden.
  // With several groups the cores are already busy and batches stay
  // inline — either way the rows are bit-identical.
  std::optional<util::ThreadPool> batch_pool;
  if (groups.size() == 1 && options.threads != 1) {
    batch_pool.emplace(options.threads);
    if (batch_pool->size() > 1) {
      shard_options.batch_pool = &*batch_pool;
    } else {
      batch_pool.reset();
    }
  }
  stats.batch_simd = simd::path_name(replay::batch_kernel_path());
  stats.batch_threads = batch_pool ? batch_pool->size() : 1;
  if (options.status != nullptr) {
    options.status->set_batch_kernel(stats.batch_simd, stats.batch_threads);
  }

  auto worker = [&](std::size_t worker_index) {
    for (;;) {
      if (stop_requested(options.stop)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= groups.size()) return;

      // Each finished job's row is built here, outside the recorder's
      // lock; the shard's rows are committed together once it ends.
      std::vector<Recorder::Row> rows;
      ShardCallbacks callbacks;
      callbacks.begin = [&](const Job& job) {
        if (options.status != nullptr) {
          options.status->worker_begin(worker_index, job.base_key());
        }
      };
      callbacks.done = [&](const Job& job, const std::vector<MetricRow>& trials,
                           bool was_recosted, double secs) {
        rows.push_back(recorder.make_row(job, trials));
        job_seconds.observe(secs);
        if (options.status != nullptr) {
          options.status->job_done(job.scenario->name, secs, was_recosted);
        }
      };
      if (options.traces != nullptr && options.traces->enabled()) {
        // The --trace file lists jobs by their place in the spec, so it
        // does not depend on which thread finished first.
        callbacks.trace = [&](const Job& job, std::vector<obs::TraceRun> runs) {
          options.traces->add(static_cast<std::size_t>(&job - jobs.data()),
                              job, std::move(runs));
        };
      }

      std::string error;
      try {
        const ShardStats shard = execute_shard(groups[i], shard_options, callbacks);
        simulated.fetch_add(shard.simulated, std::memory_order_relaxed);
        recosted.fetch_add(shard.recosted, std::memory_order_relaxed);
        batched.fetch_add(shard.batched, std::memory_order_relaxed);
        checked.fetch_add(shard.checked, std::memory_order_relaxed);
      } catch (const ShardError& e) {
        failed_counter.add(1);
        if (options.status != nullptr) options.status->job_failed();
        error = e.job_key() + ": " + e.what();
      }
      // A shard that ends, is stopped or throws commits what finished.
      try {
        const std::size_t committed = recorder.commit(rows);
        executed_counter.add(committed);
        completed.fetch_add(committed, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        if (error.empty()) error = e.what();
      }
      if (!error.empty()) {
        std::lock_guard lock(error_mutex);
        if (first_error.empty()) first_error = std::move(error);
      }
      if (options.status != nullptr) options.status->worker_end(worker_index);
    }
  };

  util::ThreadPool pool(options.threads);
  const std::size_t worker_count = std::min(pool.size(), groups.size());
  if (options.status != nullptr) {
    options.status->begin(stats.total, stats.skipped, worker_count);
  }
  // One persistent worker per pool thread popping from the shared queue;
  // parallel_for's static chunks would pin whole grid regions to one thread.
  pool.parallel_for(worker_count, worker);

  stats.simulated = simulated.load();
  stats.recosted = recosted.load();
  stats.batched = batched.load();
  stats.checked = checked.load();
  if (stop_requested(options.stop) && completed.load() < runnable.size()) {
    stats.interrupted = true;
    stats.executed = completed.load();
  }
  metrics.counter("campaign.jobs_simulated").add(stats.simulated);
  metrics.counter("campaign.jobs_recosted").add(stats.recosted);
  metrics.counter("campaign.jobs_batch_recosted").add(stats.batched);
  metrics.counter("campaign.replay_checked").add(stats.checked);
  metrics.gauge("campaign.tape_cache.hits").set(static_cast<double>(cache.hits()));
  metrics.gauge("campaign.tape_cache.misses")
      .set(static_cast<double>(cache.misses()));
  metrics.gauge("campaign.tape_cache.evictions")
      .set(static_cast<double>(cache.evictions()));
  metrics.gauge("campaign.tape_cache.rejected")
      .set(static_cast<double>(cache.rejected()));
  metrics.gauge("campaign.tape_cache.bytes")
      .set(static_cast<double>(cache.bytes()));
  if (options.status != nullptr) {
    options.status->set_tape_cache(cache.hits(), cache.misses(),
                                   cache.evictions(), cache.rejected(),
                                   cache.bytes());
    options.status->finish(stats.interrupted);
  }

  if (!first_error.empty()) {
    throw std::runtime_error("campaign job failed: " + first_error);
  }
  return stats;
}

}  // namespace pbw::campaign
