// pbw::simd policy shim tests: path-name round trips, the degradation
// ladder, force_path()/ScopedPath precedence and restore, and the
// PBW_SIMD environment override that pins the batch kernel from outside
// the process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/simd.hpp"

namespace {

using pbw::simd::Path;
namespace simd = pbw::simd;

constexpr Path kAllPaths[] = {Path::kScalar, Path::kSse2, Path::kAvx2,
                              Path::kAvx512, Path::kNeon};

/// Sets (or clears, for nullptr) an environment variable for the scope
/// and restores the previous value on exit.  active_path() re-reads the
/// environment on every call, so this is all a test needs.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

bool is_supported(Path path) {
  const auto paths = simd::supported_paths();
  return std::find(paths.begin(), paths.end(), path) != paths.end();
}

TEST(Simd, PathNamesRoundTrip) {
  for (const Path path : kAllPaths) {
    const auto parsed = simd::path_from_name(simd::path_name(path));
    ASSERT_TRUE(parsed.has_value()) << simd::path_name(path);
    EXPECT_EQ(*parsed, path);
  }
  EXPECT_FALSE(simd::path_from_name("mmx").has_value());
  EXPECT_FALSE(simd::path_from_name("").has_value());
  // "auto" means "no request", not a path.
  EXPECT_FALSE(simd::path_from_name("auto").has_value());
}

TEST(Simd, LadderStepsDownToScalar) {
  EXPECT_EQ(simd::step_down(Path::kScalar), Path::kScalar);
  EXPECT_EQ(simd::step_down(Path::kAvx512), Path::kAvx2);
  EXPECT_EQ(simd::step_down(Path::kAvx2), Path::kSse2);
  EXPECT_EQ(simd::step_down(Path::kSse2), Path::kScalar);
  EXPECT_EQ(simd::step_down(Path::kNeon), Path::kScalar);
  for (Path path : kAllPaths) {
    // Every chain terminates at scalar within the ladder's length.
    int steps = 0;
    while (path != Path::kScalar && steps < 8) {
      path = simd::step_down(path);
      ++steps;
    }
    EXPECT_EQ(path, Path::kScalar);
  }
}

TEST(Simd, SupportedPathsAndClampAgree) {
  const auto paths = simd::supported_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), Path::kScalar);  // narrowest first, always there
  for (const Path path : paths) EXPECT_TRUE(simd::cpu_supports(path));
  EXPECT_TRUE(is_supported(simd::best_supported()));
  for (const Path path : kAllPaths) {
    const Path clamped = simd::clamp_to_cpu(path);
    EXPECT_TRUE(simd::cpu_supports(clamped)) << simd::path_name(path);
    if (simd::cpu_supports(path)) {
      EXPECT_EQ(clamped, path);
    }
  }
}

TEST(Simd, ForcePathPinsActivePathAndRestores) {
  // Neutral environment so only the pin decides.
  const ScopedEnv no_simd("PBW_SIMD", nullptr);
  ASSERT_FALSE(simd::forced_path().has_value());
  for (const Path path : simd::supported_paths()) {
    const simd::ScopedPath pin(path);
    EXPECT_EQ(simd::active_path(), path) << simd::path_name(path);
    EXPECT_EQ(simd::forced_path(), path);
    {
      const simd::ScopedPath nested(Path::kScalar);
      EXPECT_EQ(simd::active_path(), Path::kScalar);
    }
    EXPECT_EQ(simd::active_path(), path);  // nested scope restored the pin
  }
  EXPECT_FALSE(simd::forced_path().has_value());
  EXPECT_EQ(simd::active_path(), simd::best_supported());
}

TEST(Simd, ForcingAnUnsupportedPathThrows) {
  for (const Path path : kAllPaths) {
    if (is_supported(path)) continue;
    EXPECT_THROW(simd::force_path(path), std::invalid_argument)
        << simd::path_name(path);
  }
  EXPECT_FALSE(simd::forced_path().has_value());
}

TEST(Simd, EnvironmentSelectsThePath) {
  {
    const ScopedEnv env("PBW_SIMD", "scalar");
    EXPECT_EQ(simd::active_path(), Path::kScalar);
  }
  {
    const ScopedEnv env("PBW_SIMD", "auto");
    EXPECT_EQ(simd::active_path(), simd::best_supported());
  }
  {
    // An unsupported request degrades down the ladder, never crashes.
    const ScopedEnv env("PBW_SIMD", "avx512");
    EXPECT_EQ(simd::active_path(), simd::clamp_to_cpu(Path::kAvx512));
  }
  {
    // force_path() outranks the environment.
    const ScopedEnv env("PBW_SIMD", "scalar");
    const simd::ScopedPath pin(simd::best_supported());
    EXPECT_EQ(simd::active_path(), simd::best_supported());
  }
}

}  // namespace
