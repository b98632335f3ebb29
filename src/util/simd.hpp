// CPU SIMD capability shim: which vector paths this host can run, and
// which one the process should use.
//
// The batch-recost kernel (replay/batch.hpp) compiles one charge-loop
// translation unit per instruction set (scalar always; SSE2/AVX2/AVX-512
// on x86-64; NEON on aarch64) and dispatches at runtime.  This shim owns
// the policy half of that dispatch:
//
//   * best_supported() — the widest path the *CPU* can execute, probed
//     once (CPUID via __builtin_cpu_supports on x86-64, architectural on
//     aarch64, scalar elsewhere);
//   * active_path()    — best_supported() clamped by the user: a
//     programmatic force_path() override (tests pin each path in turn),
//     else the PBW_SIMD environment variable ("scalar" | "sse2" | "avx2"
//     | "avx512" | "neon" | "auto").  A requested path the CPU cannot run
//     degrades down the ladder (avx512 -> avx2 -> sse2 -> scalar; neon ->
//     scalar) instead of crashing on an illegal instruction.
//
// Callers that also need the path to be *compiled in* (a -mno-avx2 build
// ships no AVX2 kernel even on an AVX2 CPU) intersect active_path() with
// their own build flags — see replay::batch_kernel_path().
//
// Every path computes bit-identical results by contract (the kernels use
// only IEEE-exact lane ops), so the choice here is pure throughput; it is
// still reported on /status, in plan responses, and in the campaign
// summary so a perf number can always be attributed to its kernel.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace pbw::simd {

/// Dispatchable instruction-set paths, narrowest first.  The ordering is
/// meaningful: degrading a path means stepping toward kScalar.
enum class Path : std::uint8_t {
  kScalar = 0,  ///< portable doubles, one lane (always available)
  kSse2 = 1,    ///< 2 x double (x86-64 baseline)
  kAvx2 = 2,    ///< 4 x double
  kAvx512 = 3,  ///< 8 x double (AVX-512F)
  kNeon = 4,    ///< 2 x double (aarch64 baseline)
};

/// Stable lower-case name ("scalar", "sse2", "avx2", "avx512", "neon").
[[nodiscard]] const char* path_name(Path path) noexcept;

/// Inverse of path_name, also accepting "auto" as nullopt-with-success
/// via parse_request below; unknown names return nullopt.
[[nodiscard]] std::optional<Path> path_from_name(std::string_view name) noexcept;

/// Can this host's CPU execute `path`?  kScalar is always true.
[[nodiscard]] bool cpu_supports(Path path) noexcept;

/// The widest CPU-supported path (the default choice).
[[nodiscard]] Path best_supported() noexcept;

/// Every CPU-supported path, narrowest first (kScalar always included).
[[nodiscard]] std::vector<Path> supported_paths();

/// One step down the degradation ladder (kAvx512 -> kAvx2 -> kSse2 ->
/// kScalar, kNeon -> kScalar).  kScalar maps to itself.
[[nodiscard]] Path step_down(Path path) noexcept;

/// `path` degraded until cpu_supports() holds (identity when it already
/// does; terminates at kScalar).
[[nodiscard]] Path clamp_to_cpu(Path path) noexcept;

/// The path the process should use right now:
///   1. the force_path() override, if set;
///   2. else PBW_SIMD, when set and not "auto" (unknown values warn once
///      on stderr and fall back to the automatic choice);
///   3. else best_supported().
/// The result is always CPU-supported (requests degrade via clamp_to_cpu).
/// The environment is re-read on every call, so tests may setenv/unsetenv
/// around it.
[[nodiscard]] Path active_path() noexcept;

/// Pins active_path() to a CPU-supported path (std::invalid_argument if
/// the CPU cannot run it); nullopt clears the pin.  Takes precedence over
/// the environment.  Intended for tests and benches that must measure a
/// specific kernel; prefer ScopedPath for automatic restore.
void force_path(std::optional<Path> path);

/// The current force_path() pin, if any.
[[nodiscard]] std::optional<Path> forced_path() noexcept;

/// RAII pin: forces `path` for the scope, restores the previous pin on
/// exit.  Not thread-safe against concurrent ScopedPath scopes (the pin
/// is process-global); tests use it from one thread.
class ScopedPath {
 public:
  explicit ScopedPath(Path path) : previous_(forced_path()) {
    force_path(path);
  }
  ~ScopedPath() { force_path(previous_); }
  ScopedPath(const ScopedPath&) = delete;
  ScopedPath& operator=(const ScopedPath&) = delete;

 private:
  std::optional<Path> previous_;
};

}  // namespace pbw::simd
