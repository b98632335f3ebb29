#include "campaign/trace_files.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "obs/telemetry/span.hpp"
#include "util/cli.hpp"

namespace pbw::campaign {

namespace {

/// base_key() contains '/', '=', ';' — flatten to a portable filename.
std::string sanitize_filename(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    out.push_back(keep ? c : '_');
  }
  return out;
}

/// Writes `path` through `write` into a temporary file renamed over it, so
/// a reader never sees a half-written file; throws when it cannot be
/// written.
template <typename Write>
void write_file(const std::string& path, Write write) {
  const std::string temp = path + ".tmp";
  std::ofstream out(temp);
  if (out) write(out);
  out.close();
  std::error_code error;
  if (out) std::filesystem::rename(temp, path, error);
  if (!out || error) {
    std::filesystem::remove(temp, error);
    throw std::runtime_error("cannot write trace " + path);
  }
}

}  // namespace

TraceFiles::TraceFiles(std::string dir, const std::string& file,
                       const std::string& format)
    : dir_(std::move(dir)) {
  if (format != "jsonl" && format != "chrome" && format != "both") {
    throw util::FlagError("--trace-format=" + format +
                          ": expected jsonl, chrome or both");
  }
  if (file.empty()) return;
  if (format != "chrome") jsonl_ = file;
  if (format == "chrome") chrome_ = file;
  if (format == "both") chrome_ = file + ".chrome.json";
}

void TraceFiles::add(std::size_t order, const Job& job,
                     std::vector<obs::TraceRun> runs) {
  if (!dir_.empty()) {
    std::call_once(dir_created_,
                   [this] { std::filesystem::create_directories(dir_); });
    const auto path = std::filesystem::path(dir_) /
                      (sanitize_filename(job.base_key()) + ".jsonl");
    write_file(path.string(),
               [&runs](std::ostream& out) { obs::write_jsonl(runs, out); });
  }
  if (jsonl_.empty() && chrome_.empty()) return;
  std::lock_guard lock(mutex_);
  jobs_[order] = std::move(runs);
}

void TraceFiles::flush() {
  std::lock_guard lock(mutex_);
  if (jsonl_.empty() && chrome_.empty()) return;
  // The jobs stay: a later flush rewrites the file with them and the jobs
  // added since.
  std::vector<obs::TraceRun> runs;
  for (const auto& [order, job_runs] : jobs_) {
    for (const obs::TraceRun& run : job_runs) {
      runs.push_back(run);
      runs.back().id = runs.size() - 1;
    }
  }
  if (!jsonl_.empty()) {
    write_file(jsonl_,
               [&runs](std::ostream& out) { obs::write_jsonl(runs, out); });
  }
  if (!chrome_.empty()) {
    // Host-time spans (engine phases, executor jobs, replay recosts) ride
    // along in the chrome view so a profiled run is flamegraph-able.
    write_file(chrome_, [&runs](std::ostream& out) {
      obs::write_chrome_trace(runs, obs::SpanRegistry::global().events(), out);
    });
  }
}

}  // namespace pbw::campaign
