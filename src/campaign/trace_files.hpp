// Where a campaign run's cost-attribution traces go: the --trace file and
// the --trace-dir streams.
//
// Both are written from the runs execute_shard hands ShardCallbacks::trace:
// replay::trace_run of every tape a finished job's rows came from,
// numbered from 0.  A run owns one TraceFiles as it owns its Recorder:
// run_campaign adds each finished job's runs (ExecutorOptions::traces),
// and the caller flushes the --trace file when the run is interrupted and
// again when it ends or throws.  Building one opens no file.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/sweep.hpp"
#include "obs/trace.hpp"

namespace pbw::campaign {

class TraceFiles {
 public:
  /// `dir` receives one --trace-dir stream per job; `file` is the --trace
  /// file in `format`: "jsonl", "chrome", or "both" (JSONL at `file`, the
  /// Chrome trace at `file + ".chrome.json"`).  An empty `dir` or `file`
  /// writes no such output.  Any other format throws util::FlagError.
  explicit TraceFiles(std::string dir = "", const std::string& file = "",
                      const std::string& format = "jsonl");

  /// True when either output is set.
  [[nodiscard]] bool enabled() const noexcept {
    return !dir_.empty() || !jsonl_.empty() || !chrome_.empty();
  }

  /// One finished job's runs, numbered from 0.  Writes the job's
  /// --trace-dir stream, <dir>/<sanitized base_key>.jsonl (the directory is
  /// created on first use), and keeps the runs for the --trace file under
  /// `order`, the job's place in the spec.  Thread-safe; throws when the
  /// stream cannot be written.
  void add(std::size_t order, const Job& job, std::vector<obs::TraceRun> runs);

  /// Writes the --trace file: the jobs added so far in order, run ids
  /// numbered in file order; the Chrome form adds the host-time spans
  /// recorded so far.  Each call rewrites the whole file through a rename,
  /// so a first signal's flush leaves a complete file and the run's last
  /// flush adds the jobs that finished after it.  Thread-safe; throws when
  /// a file cannot be written.
  void flush();

 private:
  std::string dir_;
  std::string jsonl_;   ///< --trace JSONL path; "" when not written
  std::string chrome_;  ///< --trace Chrome path; "" when not written
  std::once_flag dir_created_;
  std::mutex mutex_;
  std::map<std::size_t, std::vector<obs::TraceRun>> jobs_;  ///< by order
};

}  // namespace pbw::campaign
