// Minimal command-line flag parser for the CLI, benches and examples.
//
// Supports --key=value and --key value forms plus boolean switches.  A
// numeric read takes the whole value or nothing: text that does not parse
// in full, or a value outside the flag's range, throws FlagError naming
// the flag, so `--threads=abc` is an error rather than 0.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace pbw::util {

/// A flag value that does not parse, or lies outside the flag's range.
/// The message names the flag; pbw-campaign exits 2 on it.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  /// --key as a base-10 integer in [min, max], or `fallback` when absent.
  [[nodiscard]] std::int64_t get_int(
      const std::string& key, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// --key as a finite number, or `fallback` when absent.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// get_double for a quantity where 0 means nothing: a gap, an interval.
  [[nodiscard]] double get_positive(const std::string& key,
                                    double fallback) const;
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

/// The Table 1 preset's flags --p, --g, --L, --seed and --trials.
struct ModelFlags {
  std::uint32_t p = 1024;
  double g = 16.0;
  double L = 16.0;
  std::uint64_t seed = 1;
  int trials = 1;
};

/// Reads the model flags over ModelFlags' defaults.  --p, --g and
/// --trials must be positive; a bad value throws FlagError.
[[nodiscard]] ModelFlags read_model_flags(const Cli& cli);

}  // namespace pbw::util
