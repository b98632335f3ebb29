// Result recording: per-job aggregation, JSON Lines output, resume manifest.
//
// Each completed job becomes one JSON object on one line of the output
// file, and its manifest key — scenario | canonical params | seed | git
// version — is appended to `<out>.manifest`.  A later run with the same
// spec skips every job whose key is already in the manifest, so growing a
// sweep re-simulates only the new grid points, and results are never
// silently mixed across code versions (the git-describe component changes
// whenever the binary does).
//
// Commit order: rows reach the disk before their keys.  A batch of rows —
// one shard's, or one fleet /results POST — is appended with one write(2)
// and fdatasync'd, and only then are its keys appended with one write(2)
// and fsync'd.  Rows and keys go out in the same order, so row i belongs
// to key i, and opening a recorder repairs whatever a crash left: each
// file is cut back to its last complete line, and both to the shorter
// count.  No crash point leaves a torn row, a row without its key, or a
// key without its row.  What a crash costs is the rows of the batches in
// flight, which re-run on resume.  Creating either file fsyncs their
// directory once, so the files themselves survive a crash too.
#pragma once

#include <cstddef>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "campaign/sweep.hpp"
#include "util/json.hpp"

namespace pbw::campaign {

/// `git describe --always --dirty` at configure time ("unknown" outside a
/// git checkout).
[[nodiscard]] const char* git_version();

class Recorder {
 public:
  /// One finished job's output: its manifest key and its JSONL line,
  /// newline included.  Built by make_row outside the recorder's lock.
  struct Row {
    std::string key;
    std::string line;
  };

  /// Opens `path` for appending, loads the resume manifest from
  /// `path + ".manifest"` and repairs both files (see the header comment).
  /// `version` is the code-version component of every key (defaults to
  /// git_version()).  Throws when `path` holds rows but the manifest is
  /// missing: the repair would otherwise cut every row.
  explicit Recorder(std::string path, std::string version = git_version());
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& version() const noexcept { return version_; }

  [[nodiscard]] std::string key_for(const Job& job) const {
    return job.base_key() + "|git=" + version_;
  }

  [[nodiscard]] bool already_recorded(const Job& job) const;

  /// Number of keys in the manifest (previously + newly recorded).
  [[nodiscard]] std::size_t recorded_count() const;

  /// Aggregates the trial rows into `job`'s row.  Takes no lock.
  [[nodiscard]] Row make_row(const Job& job,
                             const std::vector<MetricRow>& trials) const;

  /// Commits a batch in the order the header comment gives: the rows with
  /// one write and an fdatasync, then their keys with one write and an
  /// fsync.  With `drop_recorded`, a row whose key is already recorded, or
  /// repeats one earlier in the batch, is dropped first: the fleet
  /// coordinator's merge, where a crashed-and-reassigned lease may deliver
  /// the same job from two workers.  A batch left empty touches no file.
  /// Thread-safe; returns the rows written.  A failed write or sync
  /// throws, and every later commit on this recorder throws too: reopening
  /// it repairs the files.
  std::size_t commit(const std::vector<Row>& rows, bool drop_recorded = false);

  /// Commits `job`'s row alone.
  void record(const Job& job, const std::vector<MetricRow>& trials);

  /// Per-metric summary over trials: n/mean/stddev/min/max/p50/p95.
  /// Exposed for tests and for presets that format results themselves.
  [[nodiscard]] static util::Json aggregate(const std::vector<MetricRow>& trials);

 private:
  std::string path_;
  std::string version_;
  mutable std::mutex mutex_;
  std::set<std::string> keys_;
  /// POSIX fds (O_APPEND): each batch is one write(2) per file, synced.
  int rows_fd_ = -1;
  int manifest_fd_ = -1;
  bool failed_ = false;  ///< a commit failed; the files await a repair
};

}  // namespace pbw::campaign
