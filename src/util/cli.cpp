#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
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

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

namespace {
// strtoll yields 0 on garbage, which downstream code divides by; fail loudly
// instead of SIGFPE-ing three stack frames later.
void require_positive(const Cli& cli, const char* flag, double value) {
  if (value > 0) return;
  std::fprintf(stderr, "%s: --%s=%s must be a positive number\n",
               cli.program().c_str(), flag, cli.get(flag, "?").c_str());
  std::exit(2);
}

}  // namespace

ModelFlags read_model_flags(const Cli& cli, const ModelFlagDefaults& defaults) {
  ModelFlags f;
  f.p = static_cast<std::uint32_t>(cli.get_int("p", defaults.p));
  f.g = cli.get_double("g", defaults.g);
  f.L = cli.get_double("L", defaults.L);
  f.seed = static_cast<std::uint64_t>(cli.get_int("seed", defaults.seed));
  f.trials = static_cast<int>(cli.get_int("trials", defaults.trials));
  require_positive(cli, "p", static_cast<double>(f.p));
  require_positive(cli, "g", f.g);
  require_positive(cli, "trials", static_cast<double>(f.trials));
  std::int64_t m = cli.get_int("m", defaults.m);
  if (m <= 0) {
    m = f.g >= 1.0 ? static_cast<std::int64_t>(static_cast<double>(f.p) / f.g) : f.p;
  }
  f.m = static_cast<std::uint32_t>(m > 0 ? m : 1);
  const std::int64_t threads = cli.get_int("threads", defaults.threads);
  if (threads < 0) require_positive(cli, "threads", -1.0);
  f.threads = static_cast<std::size_t>(threads);
  return f;
}

}  // namespace pbw::util
