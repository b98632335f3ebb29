#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <string_view>

namespace pbw::util {

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_.emplace(std::string(arg), argv[++i]);
    } else {
      flags_.emplace(std::string(arg), "true");
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.count(key) != 0; }

std::vector<std::string> Cli::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [key, value] : flags_) names.push_back(key);
  return names;
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void reject(const std::string& key, const std::string& value,
                         const std::string& expected) {
  throw FlagError("--" + key + "=" + value + ": expected " + expected);
}

}  // namespace

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback,
                          std::int64_t min, std::int64_t max) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value < min ||
      value > max) {
    const bool bounded = min != std::numeric_limits<std::int64_t>::min() ||
                         max != std::numeric_limits<std::int64_t>::max();
    reject(key, text,
           bounded ? "an integer in [" + std::to_string(min) + ", " +
                         std::to_string(max) + "]"
                   : "an integer");
  }
  return value;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    reject(key, text, "a number");
  }
  return value;
}

double Cli::get_positive(const std::string& key, double fallback) const {
  const double value = get_double(key, fallback);
  if (!(value > 0.0)) reject(key, get(key), "a number > 0");
  return value;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

ModelFlags read_model_flags(const Cli& cli) {
  const ModelFlags defaults;
  ModelFlags f;
  f.p = static_cast<std::uint32_t>(cli.get_int(
      "p", defaults.p, 1, std::numeric_limits<std::uint32_t>::max()));
  f.g = cli.get_positive("g", defaults.g);
  f.L = cli.get_double("L", defaults.L);
  f.seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(defaults.seed), 0));
  f.trials = static_cast<int>(cli.get_int(
      "trials", defaults.trials, 1, std::numeric_limits<int>::max()));
  return f;
}

}  // namespace pbw::util
