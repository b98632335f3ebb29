#include "fleet/wire.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace pbw::fleet {

std::string double_to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof v);
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

double double_from_bits(const std::string& hex) {
  if (hex.size() != 18 || hex[0] != '0' || hex[1] != 'x') {
    throw std::invalid_argument("fleet: bad double bits '" + hex + "'");
  }
  std::uint64_t bits = 0;
  const auto [p, ec] =
      std::from_chars(hex.data() + 2, hex.data() + hex.size(), bits, 16);
  if (ec != std::errc{} || p != hex.data() + hex.size()) {
    throw std::invalid_argument("fleet: bad double bits '" + hex + "'");
  }
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t u64_from_string(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) {
    throw std::invalid_argument(std::string("fleet: bad ") + what + " '" + s +
                                "'");
  }
  return v;
}

util::Json job_to_json(const campaign::Job& job) {
  util::Json j = util::Json::object();
  j["scenario"] = util::Json(job.scenario->name);
  util::Json params = util::Json::object();
  for (const auto& [name, value] : job.params.entries()) {
    params[name] = util::Json(value);
  }
  j["params"] = std::move(params);
  j["seed"] = util::Json(std::to_string(job.seed));
  j["trials"] = util::Json(job.trials);
  return j;
}

const util::Json& require(const util::Json& json, const char* key) {
  const util::Json* v = json.get(key);
  if (v == nullptr) {
    throw std::invalid_argument(std::string("fleet: missing '") + key + "'");
  }
  return *v;
}

namespace {

/// A wire integer that must fit `max` (Json::as_u64, then the bound).
std::uint64_t bounded_u64(const util::Json& json, std::uint64_t max,
                          const char* what) {
  const std::uint64_t v = json.as_u64();
  if (v > max) {
    throw std::invalid_argument(std::string("fleet: ") + what + " " +
                                std::to_string(v) + " is out of range");
  }
  return v;
}

std::uint64_t hex64_from_string(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto [p, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || p != s.data() + s.size()) {
    throw std::invalid_argument(std::string("fleet: bad ") + what + " '" + s +
                                "'");
  }
  return v;
}

}  // namespace

campaign::Job job_from_json(const util::Json& json,
                            const campaign::Registry& registry) {
  campaign::Job job;
  const std::string& name = require(json, "scenario").as_string();
  job.scenario = registry.find(name);
  if (job.scenario == nullptr) {
    throw std::invalid_argument("fleet: unknown scenario '" + name +
                                "' (version skew between coordinator and "
                                "worker?)");
  }
  for (const auto& [key, value] : require(json, "params").members()) {
    job.params.set(key, value.as_string());
  }
  job.seed = u64_from_string(require(json, "seed").as_string(), "seed");
  job.trials = static_cast<int>(bounded_u64(
      require(json, "trials"), std::numeric_limits<int>::max(), "trials"));
  if (job.trials < 1) {
    throw std::invalid_argument("fleet: trials must be positive");
  }
  return job;
}

util::Json rows_to_json(const std::vector<campaign::MetricRow>& trials) {
  util::Json out = util::Json::array();
  for (const auto& row : trials) {
    util::Json trial = util::Json::array();
    for (const auto& [name, value] : row) {
      util::Json pair = util::Json::array();
      pair.push_back(util::Json(name));
      pair.push_back(util::Json(double_to_bits(value)));
      trial.push_back(std::move(pair));
    }
    out.push_back(std::move(trial));
  }
  return out;
}

std::vector<campaign::MetricRow> rows_from_json(const util::Json& json) {
  std::vector<campaign::MetricRow> trials;
  trials.reserve(json.size());
  for (std::size_t t = 0; t < json.size(); ++t) {
    const util::Json& trial = json.at(t);
    campaign::MetricRow row;
    row.reserve(trial.size());
    for (std::size_t k = 0; k < trial.size(); ++k) {
      const util::Json& pair = trial.at(k);
      if (pair.size() != 2) {
        throw std::invalid_argument("fleet: metric pair must be [name, bits]");
      }
      row.emplace_back(pair.at(0).as_string(),
                       double_from_bits(pair.at(1).as_string()));
    }
    trials.push_back(std::move(row));
  }
  return trials;
}

util::Json span_events_to_json(const std::vector<obs::SpanEvent>& events) {
  util::Json out = util::Json::array();
  for (const obs::SpanEvent& event : events) {
    char parent[17];
    std::snprintf(parent, sizeof parent, "%016llx",
                  static_cast<unsigned long long>(event.parent_span));
    util::Json entry = util::Json::array();
    entry.push_back(util::Json(event.name));
    entry.push_back(util::Json(std::to_string(event.start_ns)));
    entry.push_back(util::Json(std::to_string(event.dur_ns)));
    entry.push_back(util::Json(event.tid));
    entry.push_back(util::Json(event.depth));
    entry.push_back(util::Json(std::string(parent)));
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<obs::SpanEvent> span_events_from_json(const util::Json& json) {
  std::vector<obs::SpanEvent> events;
  events.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    const util::Json& entry = json.at(i);
    if (entry.size() != 6) {
      throw std::invalid_argument(
          "fleet: span entry must be [name, start, dur, tid, depth, parent]");
    }
    obs::SpanEvent event;
    event.name = entry.at(0).as_string();
    event.start_ns = u64_from_string(entry.at(1).as_string(), "span start");
    event.dur_ns = u64_from_string(entry.at(2).as_string(), "span dur");
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    event.tid = static_cast<std::uint32_t>(
        bounded_u64(entry.at(3), kU32, "span tid"));
    event.depth = static_cast<std::uint32_t>(
        bounded_u64(entry.at(4), kU32, "span depth"));
    event.parent_span =
        hex64_from_string(entry.at(5).as_string(), "span parent");
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace pbw::fleet
