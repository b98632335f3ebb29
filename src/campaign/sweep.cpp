#include "campaign/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace pbw::campaign {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream stream(s);
  while (std::getline(stream, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("spec line " + std::to_string(line_no) + ": " +
                              what);
}

/// A parameter value as a point compares it: a value that parses as a
/// number becomes its shortest round-trip form (so `4` and `4.0` are one
/// point), any other value stays as written.
std::string point_value(const std::string& value) {
  double number = 0.0;
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, number);
  if (value.empty() || ec != std::errc{} || ptr != end) return value;
  if (number == 0.0) number = 0.0;  // -0 and 0 are one point
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, number).ptr);
}

/// Rejects a block whose axis or seed list names one point twice.
void check_distinct(const SweepSpec& spec) {
  const std::string where = "scenario '" + spec.scenario + "': ";
  for (const auto& [name, values] : spec.axes) {
    std::map<std::string, const std::string*> seen;
    for (const std::string& value : values) {
      const auto [it, fresh] = seen.emplace(point_value(value), &value);
      if (!fresh) {
        throw std::invalid_argument(
            where + "axis '" + name + "' repeats the value " + *it->second +
            (*it->second == value ? "" : " (as " + value + ")"));
      }
    }
  }
  std::set<std::uint64_t> seeds;
  for (const std::uint64_t seed : spec.seeds) {
    if (!seeds.insert(seed).second) {
      throw std::invalid_argument(where + "axis 'seeds' repeats the value " +
                                  std::to_string(seed));
    }
  }
}

/// The value list `spec` declares for `name`, or null when it declares none.
const std::vector<std::string>* declared(const SweepSpec& spec,
                                         const std::string& name) {
  for (const auto& [axis, values] : spec.axes) {
    if (axis == name) return &values;
  }
  return nullptr;
}

/// A point that blocks `a` and `b` of one scenario both expand to, as
/// "name=value, ..., seed=N" over the axes either declares, or "" when
/// they share none.  Both expand to cartesian products, so they share a
/// point exactly when every parameter's value sets and the seed lists
/// intersect.
std::string shared_point(const SweepSpec& a, const SweepSpec& b,
                         const Scenario& scenario) {
  std::string point;
  for (const ParamSpec& param : scenario.params) {
    const std::vector<std::string> fallback = {param.default_value};
    const auto* axis_a = declared(a, param.name);
    const auto* axis_b = declared(b, param.name);
    std::set<std::string> in_b;
    for (const std::string& value : axis_b ? *axis_b : fallback) {
      in_b.insert(point_value(value));
    }
    const auto& in_a = axis_a ? *axis_a : fallback;
    const auto common = std::find_if(in_a.begin(), in_a.end(), [&](const auto& v) {
      return in_b.count(point_value(v)) != 0;
    });
    if (common == in_a.end()) return "";
    if (axis_a || axis_b) point += param.name + "=" + *common + ", ";
  }
  const auto seed = std::find_first_of(a.seeds.begin(), a.seeds.end(),
                                       b.seeds.begin(), b.seeds.end());
  if (seed == a.seeds.end()) return "";
  return point + "seed=" + std::to_string(*seed);
}

}  // namespace

std::string Job::base_key() const {
  return scenario->name + "|" + params.canonical() + "|seed=" +
         std::to_string(seed);
}

std::string Job::rng_key() const {
  std::string key = scenario->name + "|";
  bool first = true;
  for (const auto& [name, value] : params.entries()) {
    if (scenario->is_cost_only(params, name)) continue;
    if (!first) key += ",";
    key += name + "=" + value;
    first = false;
  }
  key += "|seed=" + std::to_string(seed);
  return key;
}

std::string Job::structural_key() const {
  return rng_key() + "|trials=" + std::to_string(trials);
}

AxisSplit split_axes(const Scenario& scenario, const ParamSet& params) {
  AxisSplit split;
  for (const auto& spec : scenario.params) {
    if (scenario.is_cost_only(params, spec.name)) {
      split.cost_only.push_back(spec.name);
    } else {
      split.structural.push_back(spec.name);
    }
  }
  return split;
}

std::vector<SweepSpec> parse_spec(const std::string& text) {
  std::vector<SweepSpec> specs;
  SweepSpec current;
  bool block_open = false;

  auto flush = [&](std::size_t line_no) {
    if (!block_open) return;
    if (current.scenario.empty()) fail(line_no, "sweep block has no scenario");
    specs.push_back(std::move(current));
    current = SweepSpec{};
    block_open = false;
  };

  std::istringstream stream(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    const std::string line = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;
    if (line == "[sweep]") {
      flush(line_no);
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");
    block_open = true;

    if (key == "scenario") {
      if (!current.scenario.empty()) fail(line_no, "duplicate scenario key");
      current.scenario = value;
    } else if (key == "trials") {
      int trials = 0;
      const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), trials);
      if (ec != std::errc{} || p != value.data() + value.size() || trials < 1) {
        fail(line_no, "trials must be a positive integer");
      }
      current.trials = trials;
    } else if (key == "seeds") {
      current.seeds.clear();
      for (const auto& item : split_list(value)) {
        std::uint64_t seed = 0;
        const auto [p, ec] = std::from_chars(item.data(), item.data() + item.size(), seed);
        if (ec != std::errc{} || p != item.data() + item.size()) {
          fail(line_no, "bad seed '" + item + "'");
        }
        current.seeds.push_back(seed);
      }
      if (current.seeds.empty()) fail(line_no, "empty seed list");
    } else {
      for (const auto& [name, values] : current.axes) {
        if (name == key) fail(line_no, "duplicate axis '" + key + "'");
      }
      auto values = split_list(value);
      if (values.empty()) fail(line_no, "empty value list for '" + key + "'");
      current.axes.emplace_back(key, std::move(values));
    }
  }
  flush(line_no + 1);
  if (specs.empty()) throw std::invalid_argument("spec contains no sweep block");
  return specs;
}

std::vector<Job> expand(const SweepSpec& spec, const Registry& registry) {
  const Scenario* scenario = registry.find(spec.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" + spec.scenario + "'");
  }
  for (const auto& [name, values] : spec.axes) {
    if (scenario->find_param(name) == nullptr) {
      throw std::invalid_argument("scenario '" + spec.scenario +
                                  "' has no parameter '" + name + "'");
    }
  }

  check_distinct(spec);

  std::size_t points = 1;
  for (const auto& [name, values] : spec.axes) points *= values.size();

  std::vector<Job> jobs;
  jobs.reserve(points * spec.seeds.size());
  for (std::size_t index = 0; index < points; ++index) {
    ParamSet params;
    // Defaults first, then the grid point overrides (last axis fastest).
    for (const auto& p : scenario->params) params.set(p.name, p.default_value);
    std::size_t rem = index;
    for (auto it = spec.axes.rbegin(); it != spec.axes.rend(); ++it) {
      const auto& [name, values] = *it;
      params.set(name, values[rem % values.size()]);
      rem /= values.size();
    }
    for (const std::uint64_t seed : spec.seeds) {
      Job job;
      job.scenario = scenario;
      job.params = params;
      job.seed = seed;
      job.trials = spec.trials;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<Job> expand_all(const std::vector<SweepSpec>& specs,
                            const Registry& registry) {
  std::vector<Job> jobs;
  for (std::size_t b = 0; b < specs.size(); ++b) {
    auto block = expand(specs[b], registry);
    for (std::size_t a = 0; a < b; ++a) {
      if (specs[a].scenario != specs[b].scenario) continue;
      const std::string point =
          shared_point(specs[a], specs[b], *registry.find(specs[b].scenario));
      if (!point.empty()) {
        throw std::invalid_argument(
            "scenario '" + specs[b].scenario + "': blocks " +
            std::to_string(a + 1) + " and " + std::to_string(b + 1) +
            " both expand to the point " + point);
      }
    }
    jobs.insert(jobs.end(), std::make_move_iterator(block.begin()),
                std::make_move_iterator(block.end()));
  }
  return jobs;
}

}  // namespace pbw::campaign
