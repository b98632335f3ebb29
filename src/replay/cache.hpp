// In-memory LRU cache of captured tape groups, keyed by structural key.
//
// A campaign's cost-only grid collapses to one simulation per structural
// point; the tapes of that simulation serve every other point of the
// group.  The cache bounds how much tape memory a large campaign may pin:
// groups are evicted least-recently-used once the byte cap is exceeded,
// and an evicted group simply costs one extra simulation when touched
// again.  Thread-safe; hit/miss/eviction tallies feed the campaign's
// metrics registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "replay/recorder.hpp"

namespace pbw::replay {

/// Everything one captured trial needs to be recosted elsewhere: the tapes
/// of its machine runs (in run order) and the metric row the capture run
/// emitted (execution-derived values like correctness flags are copied
/// from it rather than re-derived).
struct CapturedTrial {
  TapeList tapes;
  std::vector<std::pair<std::string, double>> metrics;
  /// fingerprints[i] is tapes[i].fingerprint(), taken once by a reader
  /// that keys on tape content (the planner service, right after it
  /// records the group).  Campaign captures leave it empty: no campaign
  /// path reads a fingerprint, so none pays for one.
  std::vector<std::uint64_t> fingerprints;

  [[nodiscard]] std::size_t memory_bytes() const noexcept;
};

/// One structural grid point's capture: one CapturedTrial per trial.
struct TapeGroup {
  std::vector<CapturedTrial> trials;

  [[nodiscard]] std::size_t memory_bytes() const noexcept;
};

class TapeCache {
 public:
  /// `max_bytes` caps the summed TapeGroup::memory_bytes(); 0 disables
  /// caching entirely (every get() misses, put() drops).
  explicit TapeCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached group, freshly promoted to most-recently-used, or nullptr.
  [[nodiscard]] std::shared_ptr<const TapeGroup> get(const std::string& key);

  /// Inserts (or replaces) the group and evicts LRU entries over the cap.
  /// A group larger than the whole cap is rejected up front (counted in
  /// rejected()) without disturbing any existing entry for `key` — callers
  /// hold their own shared_ptr, so the current group keeps working.
  void put(const std::string& key, std::shared_ptr<const TapeGroup> group);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  /// Groups dropped by put() because they alone exceed the byte cap.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t entries() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const TapeGroup> group;
    std::size_t bytes = 0;
  };

  void evict_over_cap();  ///< caller holds mutex_

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace pbw::replay
