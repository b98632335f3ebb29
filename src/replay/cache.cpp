#include "replay/cache.hpp"

namespace pbw::replay {

std::size_t CapturedTrial::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(CapturedTrial);
  for (const auto& tape : tapes) bytes += tape.memory_bytes();
  bytes += fingerprints.capacity() * sizeof(std::uint64_t);
  for (const auto& [name, value] : metrics) {
    bytes += name.size() + sizeof(value) + sizeof(std::string);
  }
  return bytes;
}

std::size_t TapeGroup::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(TapeGroup);
  for (const auto& trial : trials) bytes += trial.memory_bytes();
  return bytes;
}

std::shared_ptr<const TapeGroup> TapeCache::get(const std::string& key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->group;
}

void TapeCache::put(const std::string& key,
                    std::shared_ptr<const TapeGroup> group) {
  if (group == nullptr) return;
  const std::size_t group_bytes = group->memory_bytes();
  std::lock_guard lock(mutex_);
  if (group_bytes > max_bytes_) {
    // Reject before touching the index: an oversized replacement must not
    // erase the entry already serving hits for this key.
    ++rejected_;
    return;
  }
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{key, std::move(group), group_bytes});
  index_[key] = lru_.begin();
  bytes_ += group_bytes;
  evict_over_cap();
}

std::size_t TapeCache::entries() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

void TapeCache::evict_over_cap() {
  // Drain all the way: put() guarantees no single entry exceeds the cap,
  // so stopping while one entry remains (the old `size() > 1` guard) could
  // leave the cache permanently over budget.
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace pbw::replay
