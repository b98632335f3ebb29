// Minimal command-line flag parser for bench and example binaries.
//
// Supports --key=value and --key value forms plus boolean switches; every
// bench exposes --seed, --trials, and sweep-range overrides through this.
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

/// If --help was given, prints `summary`, then one aligned line per FlagDoc,
/// and exits 0.  Benches with bespoke flags call this directly; benches on
/// parse_model_flags get it (plus the shared flag docs) for free.
void handle_help_flag(const Cli& cli, const std::string& summary,
                      const std::vector<FlagDoc>& docs);

/// The model-parameter flags shared by every bench and the campaign CLI:
/// --p, --g, --m, --L, --seed, --trials, --threads.  Parsed once here so
/// the binaries agree on names, defaults and the m = p/g matched-bandwidth
/// derivation.
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

/// Defaults for parse_model_flags.  Leave m at 0 to derive the matched
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

/// Parses the shared flags; handles --help (listing the shared flags plus
/// `extra_docs`, then exiting 0) and --trace (apply_trace_flag).
[[nodiscard]] ModelFlags parse_model_flags(
    const Cli& cli, const ModelFlagDefaults& defaults = {},
    const std::vector<FlagDoc>& extra_docs = {});

/// The model flags alone: no --help, no --trace.  A non-positive --p, --g
/// or --trials exits 2 with a message.
[[nodiscard]] ModelFlags read_model_flags(const Cli& cli,
                                          const ModelFlagDefaults& defaults = {});

/// --trace[=FILE] / --trace-format: forwards the file (trace.jsonl for a
/// bare --trace) and the format to the handler installed by
/// set_trace_flag_handler; linking the engine installs one that writes
/// every Machine run to that file.  Does nothing without --trace.
void apply_trace_flag(const Cli& cli);

/// Hook invoked when apply_trace_flag sees --trace.  Lives here as a bare
/// function pointer so util does not depend on the replay layer;
/// replay/recorder.cpp registers the real handler from a static
/// initializer.
using TraceFlagHandler = void (*)(const std::string& file,
                                  const std::string& format);
void set_trace_flag_handler(TraceFlagHandler handler);

}  // namespace pbw::util
