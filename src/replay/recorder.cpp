#include "replay/recorder.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/telemetry/span.hpp"

namespace pbw::replay {

namespace {

// The recorder the innermost live ScopedTapeRecorder installed.
thread_local TapeRecorder* tl_recorder = nullptr;

/// The --trace file: owned here, flushed at exit.
struct FileTrace {
  std::string path;
  std::string format;
  std::mutex mutex;
  std::map<std::size_t, std::vector<StatsTape>> jobs;  ///< by order
  std::atomic<bool> flushed{false};
};
std::atomic<FileTrace*> g_file_trace{nullptr};
std::once_flag g_atexit_once;

}  // namespace

StatsTape& TapeRecorder::begin_tape(std::uint32_t p, std::uint64_t seed) {
  std::lock_guard lock(mutex_);
  StatsTape& tape = tapes_.emplace_back();
  tape.p = p;
  tape.seed = seed;
  return tape;
}

TapeList TapeRecorder::take() {
  std::lock_guard lock(mutex_);
  return std::move(tapes_);
}

TapeRecorder* current_tape_recorder() noexcept { return tl_recorder; }

ScopedTapeRecorder::ScopedTapeRecorder(TapeRecorder* recorder) noexcept
    : previous_(tl_recorder) {
  tl_recorder = recorder;
}

ScopedTapeRecorder::~ScopedTapeRecorder() { tl_recorder = previous_; }

void install_file_trace(std::string path, std::string format) {
  if (format != "jsonl" && format != "chrome" && format != "both") {
    std::fprintf(stderr,
                 "--trace-format=%s: expected jsonl, chrome, or both\n",
                 format.c_str());
    std::exit(2);
  }
  static FileTrace trace;
  trace.path = std::move(path);
  trace.format = std::move(format);
  trace.flushed = false;
  g_file_trace.store(&trace, std::memory_order_release);
  // Force the span registry into existence before registering the atexit
  // flush: function-local statics are destroyed in reverse construction
  // order, interleaved with atexit handlers, so a registry first touched
  // mid-run (every engine Span probes it) would otherwise be destructed
  // before the handler reads its event buffer.
  (void)obs::SpanRegistry::global();
  std::call_once(g_atexit_once, [] { std::atexit(&flush_file_trace); });
}

bool file_trace_installed() noexcept {
  return g_file_trace.load(std::memory_order_acquire) != nullptr;
}

void add_file_trace(std::size_t order, std::vector<StatsTape> runs) {
  FileTrace* trace = g_file_trace.load(std::memory_order_acquire);
  if (trace == nullptr) return;
  std::lock_guard lock(trace->mutex);
  trace->jobs[order] = std::move(runs);
}

void flush_file_trace() {
  FileTrace* trace = g_file_trace.load(std::memory_order_acquire);
  if (trace == nullptr || trace->flushed.exchange(true)) return;
  std::map<std::size_t, std::vector<StatsTape>> jobs;
  {
    std::lock_guard lock(trace->mutex);
    jobs.swap(trace->jobs);
  }
  std::vector<obs::TraceRun> runs;
  for (const auto& [order, tapes] : jobs) {
    for (const StatsTape& tape : tapes) {
      if (tape.model == nullptr) continue;
      runs.push_back(trace_run(tape, *tape.model));
      runs.back().id = runs.size() - 1;
    }
  }
  const bool jsonl = trace->format == "jsonl" || trace->format == "both";
  const bool chrome = trace->format == "chrome" || trace->format == "both";
  if (jsonl) {
    std::ofstream out(trace->path);
    if (!out) {
      std::fprintf(stderr, "--trace: cannot write %s\n", trace->path.c_str());
      return;
    }
    obs::write_jsonl(runs, out);
  }
  if (chrome) {
    const std::string path =
        trace->format == "chrome" ? trace->path : trace->path + ".chrome.json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "--trace: cannot write %s\n", path.c_str());
      return;
    }
    // Host-time spans (engine phases, executor jobs, replay recosts) ride
    // along in the chrome view so a profiled run is flamegraph-able.
    obs::write_chrome_trace(runs, obs::SpanRegistry::global().events(), out);
  }
}

}  // namespace pbw::replay
