// FNV-1a, 64-bit: the one stable hash of the tree.
//
// Trial RNG streams key on fnv1a64(Job::rng_key()), fleet campaign ids on
// the spec text, and StatsTape::fingerprint() chains it over a tape's
// arrays.  All of these values are persisted or pinned (resume keys, job
// ids, CI's tape fingerprint), so the function must never change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pbw::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xCBF29CE484222325ULL;

/// Folds `n` bytes into the running hash `h` (start from kFnv1aOffset).
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                                           std::uint64_t h = kFnv1aOffset) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) noexcept {
  return fnv1a64(s.data(), s.size());
}

}  // namespace pbw::util
