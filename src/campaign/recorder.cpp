#include "campaign/recorder.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

#ifndef PBW_GIT_DESCRIBE
#define PBW_GIT_DESCRIBE "unknown"
#endif

namespace pbw::campaign {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("Recorder: " + what + ": " + std::strerror(errno));
}

/// campaign.recorder.{rows,bytes,syncs}: rows committed, bytes appended
/// to both files, and fsync/fdatasync calls.
obs::Counter& counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter("campaign.recorder." + name);
}

int open_append(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot open " + path);
  return fd;
}

void write_all(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write " + path);
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Calls `on_line(text, end)` for each complete non-empty line of the file
/// open at `fd`, in order, until it returns false; `end` is the offset just
/// past the line's '\n'.  A final line without its '\n' is torn: the
/// append that wrote it died, so it is never reported.
template <typename OnLine>
void scan_lines(int fd, const std::string& path, OnLine&& on_line) {
  std::string line;
  char buf[1 << 16];
  off_t offset = 0;
  for (;;) {
    const ssize_t n = ::pread(fd, buf, sizeof buf, offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read " + path);
    }
    if (n == 0) return;
    const char* at = buf;
    const char* const stop = buf + n;
    while (const auto* nl = static_cast<const char*>(
               std::memchr(at, '\n', static_cast<std::size_t>(stop - at)))) {
      line.append(at, nl);
      at = nl + 1;
      if (!line.empty() && !on_line(std::string_view(line), offset + (at - buf))) {
        return;
      }
      line.clear();
    }
    line.append(at, stop);
    offset += n;
  }
}

/// Cuts the file open at `fd` back to `size` bytes if it is longer.
void cut(int fd, const std::string& path, off_t size) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) fail("stat " + path);
  if (st.st_size > size && ::ftruncate(fd, size) != 0) fail("truncate " + path);
}

/// Makes newly created directory entries under `file`'s directory durable.
void sync_directory(const std::string& file) {
  std::string dir = std::filesystem::path(file).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("cannot open directory " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync directory " + dir);
  counter("syncs").add(1);
}

}  // namespace

const char* git_version() { return PBW_GIT_DESCRIBE; }

Recorder::Recorder(std::string path, std::string version)
    : path_(std::move(path)), version_(std::move(version)) {
  // Created here so --metrics and /metrics show them before any commit.
  for (const char* name : {"rows", "bytes", "syncs"}) (void)counter(name);
  const std::string manifest_path = path_ + ".manifest";
  struct stat st {};
  const bool rows_exist = ::stat(path_.c_str(), &st) == 0;
  const bool has_rows = rows_exist && st.st_size > 0;
  const bool manifest_exists = ::stat(manifest_path.c_str(), &st) == 0;
  if (has_rows && !manifest_exists) {
    throw std::runtime_error("Recorder: " + path_ + " holds rows but " +
                             manifest_path +
                             " is missing; restore it or move the rows aside");
  }
  rows_fd_ = open_append(path_);
  try {
    manifest_fd_ = open_append(manifest_path);
    // Row i belongs to key i (the header comment): keep the complete
    // lines both files have, and cut each file after them.
    std::vector<std::pair<std::string, off_t>> keys;
    scan_lines(manifest_fd_, manifest_path, [&](std::string_view key, off_t end) {
      keys.emplace_back(key, end);
      return true;
    });
    std::size_t rows = 0;
    off_t rows_end = 0;
    if (!keys.empty()) {
      scan_lines(rows_fd_, path_, [&](std::string_view, off_t end) {
        rows_end = end;
        return ++rows < keys.size();
      });
    }
    keys.resize(rows);
    cut(rows_fd_, path_, rows_end);
    cut(manifest_fd_, manifest_path, keys.empty() ? 0 : keys.back().second);
    for (auto& entry : keys) keys_.insert(std::move(entry.first));
    if (!rows_exist || !manifest_exists) sync_directory(path_);
  } catch (...) {
    ::close(rows_fd_);
    if (manifest_fd_ >= 0) ::close(manifest_fd_);
    throw;
  }
}

Recorder::~Recorder() {
  ::close(rows_fd_);
  ::close(manifest_fd_);
}

bool Recorder::already_recorded(const Job& job) const {
  const std::string key = key_for(job);
  std::lock_guard lock(mutex_);
  return keys_.count(key) != 0;
}

std::size_t Recorder::recorded_count() const {
  std::lock_guard lock(mutex_);
  return keys_.size();
}

util::Json Recorder::aggregate(const std::vector<MetricRow>& trials) {
  // Collect values per metric name, keeping first-trial emission order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> values;
  for (const auto& row : trials) {
    for (const auto& [name, value] : row) {
      auto [it, inserted] = values.try_emplace(name);
      if (inserted) order.push_back(name);
      it->second.push_back(value);
    }
  }
  util::Json metrics = util::Json::object();
  for (const auto& name : order) {
    const auto& v = values[name];
    const util::Summary s = util::summarize(v);
    util::Json entry = util::Json::object();
    entry["n"] = util::Json(s.count);
    entry["mean"] = util::Json(s.mean);
    entry["stddev"] = util::Json(s.stddev);
    entry["min"] = util::Json(s.min);
    entry["max"] = util::Json(s.max);
    entry["p50"] = util::Json(util::quantile(v, 0.5));
    entry["p95"] = util::Json(util::quantile(v, 0.95));
    metrics[name] = std::move(entry);
  }
  return metrics;
}

Recorder::Row Recorder::make_row(const Job& job,
                                 const std::vector<MetricRow>& trials) const {
  if (trials.empty()) {
    throw std::invalid_argument("Recorder: no trial rows for " + job.base_key());
  }
  Row row;
  row.key = key_for(job);
  util::Json rec = util::Json::object();
  rec["key"] = util::Json(row.key);
  rec["scenario"] = util::Json(job.scenario->name);
  rec["git"] = util::Json(version_);
  rec["seed"] = util::Json(job.seed);
  rec["trials"] = util::Json(trials.size());
  rec["params"] = job.params.to_json();
  rec["metrics"] = aggregate(trials);
  row.line = rec.dump() + '\n';
  return row;
}

std::size_t Recorder::commit(const std::vector<Row>& rows, bool drop_recorded) {
  const std::string manifest_path = path_ + ".manifest";
  std::lock_guard lock(mutex_);
  if (failed_) {
    throw std::runtime_error("Recorder: an earlier commit to " + path_ +
                             " failed; reopen it to repair the files");
  }
  std::string lines, keys;
  std::vector<const std::string*> added;
  std::set<std::string_view> batch;
  for (const Row& row : rows) {
    if (drop_recorded &&
        (keys_.count(row.key) != 0 || !batch.insert(row.key).second)) {
      continue;
    }
    lines += row.line;
    keys += row.key;
    keys += '\n';
    added.push_back(&row.key);
  }
  if (added.empty()) return 0;
  try {
    write_all(rows_fd_, lines, path_);
    if (::fdatasync(rows_fd_) != 0) fail("fdatasync " + path_);
    write_all(manifest_fd_, keys, manifest_path);
    if (::fsync(manifest_fd_) != 0) fail("fsync " + manifest_path);
  } catch (...) {
    failed_ = true;
    throw;
  }
  for (const std::string* key : added) keys_.insert(*key);
  counter("rows").add(added.size());
  counter("bytes").add(lines.size() + keys.size());
  counter("syncs").add(2);
  return added.size();
}

void Recorder::record(const Job& job, const std::vector<MetricRow>& trials) {
  commit({make_row(job, trials)});
}

}  // namespace pbw::campaign
