#include "util/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pbw::simd {

namespace {

/// CPUID probing is not free; the answer cannot change mid-process.
bool probe_cpu(Path path) noexcept {
  switch (path) {
    case Path::kScalar:
      return true;
    case Path::kSse2:
#if defined(__x86_64__) || defined(_M_X64)
      return true;  // architectural baseline for x86-64
#else
      return false;
#endif
    case Path::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Path::kAvx512:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case Path::kNeon:
#if defined(__aarch64__)
      return true;  // AdvSIMD is architectural on aarch64
#else
      return false;
#endif
  }
  return false;
}

bool cached_cpu_supports(Path path) noexcept {
  // Index by enum value; probe lazily, remember forever.
  static std::atomic<int> cache[5] = {};  // 0 unknown, 1 yes, -1 no
  auto& slot = cache[static_cast<std::uint8_t>(path)];
  int v = slot.load(std::memory_order_relaxed);
  if (v == 0) {
    v = probe_cpu(path) ? 1 : -1;
    slot.store(v, std::memory_order_relaxed);
  }
  return v > 0;
}

/// The force_path() pin: enum value + 1, 0 for "no pin".
std::atomic<int> g_forced{0};

/// Env-derived request, nullopt for "auto"/unset/unknown.
std::optional<Path> env_request() noexcept {
  const char* simd = std::getenv("PBW_SIMD");
  if (simd == nullptr || *simd == '\0') return std::nullopt;
  std::string lowered(simd);
  for (char& c : lowered) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lowered == "auto") return std::nullopt;
  if (const auto path = path_from_name(lowered)) return path;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "pbw: ignoring unknown PBW_SIMD value '%s' "
                 "(expected scalar|sse2|avx2|avx512|neon|auto)\n",
                 simd);
  }
  return std::nullopt;
}

}  // namespace

const char* path_name(Path path) noexcept {
  switch (path) {
    case Path::kScalar: return "scalar";
    case Path::kSse2: return "sse2";
    case Path::kAvx2: return "avx2";
    case Path::kAvx512: return "avx512";
    case Path::kNeon: return "neon";
  }
  return "?";
}

std::optional<Path> path_from_name(std::string_view name) noexcept {
  if (name == "scalar") return Path::kScalar;
  if (name == "sse2") return Path::kSse2;
  if (name == "avx2") return Path::kAvx2;
  if (name == "avx512") return Path::kAvx512;
  if (name == "neon") return Path::kNeon;
  return std::nullopt;
}

bool cpu_supports(Path path) noexcept { return cached_cpu_supports(path); }

Path best_supported() noexcept {
  for (const Path path :
       {Path::kAvx512, Path::kAvx2, Path::kSse2, Path::kNeon}) {
    if (cpu_supports(path)) return path;
  }
  return Path::kScalar;
}

std::vector<Path> supported_paths() {
  std::vector<Path> paths = {Path::kScalar};
  for (const Path path :
       {Path::kSse2, Path::kAvx2, Path::kAvx512, Path::kNeon}) {
    if (cpu_supports(path)) paths.push_back(path);
  }
  return paths;
}

Path step_down(Path path) noexcept {
  switch (path) {
    case Path::kAvx512: return Path::kAvx2;
    case Path::kAvx2: return Path::kSse2;
    case Path::kSse2: return Path::kScalar;
    case Path::kNeon: return Path::kScalar;
    case Path::kScalar: return Path::kScalar;
  }
  return Path::kScalar;
}

Path clamp_to_cpu(Path path) noexcept {
  while (path != Path::kScalar && !cpu_supports(path)) {
    path = step_down(path);
  }
  return path;
}

Path active_path() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != 0) return static_cast<Path>(forced - 1);
  if (const auto requested = env_request()) return clamp_to_cpu(*requested);
  return best_supported();
}

void force_path(std::optional<Path> path) {
  if (!path) {
    g_forced.store(0, std::memory_order_relaxed);
    return;
  }
  if (!cpu_supports(*path)) {
    throw std::invalid_argument(std::string("simd::force_path: this CPU "
                                            "cannot run ") +
                                path_name(*path));
  }
  g_forced.store(static_cast<int>(static_cast<std::uint8_t>(*path)) + 1,
                 std::memory_order_relaxed);
}

std::optional<Path> forced_path() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced == 0) return std::nullopt;
  return static_cast<Path>(forced - 1);
}

}  // namespace pbw::simd
