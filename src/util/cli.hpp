// Minimal command-line flag parser for the CLI, benches and examples.
//
// Supports --key=value and --key value forms plus boolean switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pbw::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback = false) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Every --flag given on the command line (sorted; values dropped).
  /// Lets a CLI reject flags its command does not read instead of
  /// silently ignoring a typo like --trails=5.
  [[nodiscard]] std::vector<std::string> flag_names() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// One --flag and its one-line description, for --help output.
struct FlagDoc {
  std::string flag;  ///< e.g. "p=<n>"
  std::string help;  ///< one-line description
};

/// The model-parameter flags --p, --g, --m, --L, --seed, --trials and
/// --threads, with the m = p/g matched-bandwidth derivation.
/// `pbw-campaign table1` reads them.
struct ModelFlags {
  std::uint32_t p = 1;
  double g = 1.0;
  std::uint32_t m = 1;
  double L = 1.0;
  std::uint64_t seed = 1;
  int trials = 1;
  /// Host threads for the engine; 0 = hardware concurrency.
  std::size_t threads = 1;
};

/// Defaults for read_model_flags.  Leave m at 0 to derive the matched
/// aggregate bandwidth m = max(1, p/g) unless --m is given explicitly.
struct ModelFlagDefaults {
  std::int64_t p = 1024;
  double g = 16.0;
  std::int64_t m = 0;
  double L = 16.0;
  std::int64_t seed = 1;
  std::int64_t trials = 1;
  std::int64_t threads = 1;
};

/// Reads the model flags.  A non-positive --p, --g or --trials exits 2
/// with a message.
[[nodiscard]] ModelFlags read_model_flags(const Cli& cli,
                                          const ModelFlagDefaults& defaults = {});

}  // namespace pbw::util
