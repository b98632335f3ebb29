#include "planner/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cost.hpp"

namespace pbw::planner {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument("plan request: " + message);
}

double require_number(const util::Json& json, const std::string& where) {
  if (!json.is_number()) bad(where + " must be a number");
  return json.as_double();
}

void reject_unknown_keys(const util::Json& object,
                         std::initializer_list<const char*> known,
                         const std::string& where) {
  for (const auto& [key, value] : object.members()) {
    (void)value;
    if (std::find_if(known.begin(), known.end(), [&](const char* k) {
          return key == k;
        }) == known.end()) {
      bad("unknown " + where + " key \"" + key + "\"");
    }
  }
}

/// An axis is a JSON array of values or a {"min","max","steps","scale"}
/// range; `integral` rounds and deduplicates (a log-scaled integer range
/// may round neighbours together).
std::vector<double> parse_axis(const util::Json& json, const std::string& name,
                               bool integral) {
  std::vector<double> values;
  if (json.is_array()) {
    if (json.size() > Envelope::kMaxAxisValues) {
      bad("envelope." + name + " has more than " +
          std::to_string(Envelope::kMaxAxisValues) + " values");
    }
    for (std::size_t i = 0; i < json.size(); ++i) {
      values.push_back(require_number(json.at(i), "envelope." + name + "[]"));
    }
  } else if (json.is_object()) {
    reject_unknown_keys(json, {"min", "max", "steps", "scale"},
                        "envelope." + name);
    const util::Json* min = json.get("min");
    const util::Json* max = json.get("max");
    if (min == nullptr || max == nullptr) {
      bad("envelope." + name + " range needs min and max");
    }
    const double lo = require_number(*min, "envelope." + name + ".min");
    const double hi = require_number(*max, "envelope." + name + ".max");
    const util::Json* steps_json = json.get("steps");
    const std::uint64_t steps =
        steps_json != nullptr
            ? u64_from_json(*steps_json, "envelope." + name + ".steps")
            : 2;
    if (steps == 0) bad("envelope." + name + ".steps must be >= 1");
    if (steps > Envelope::kMaxAxisValues) {
      bad("envelope." + name + ".steps exceeds " +
          std::to_string(Envelope::kMaxAxisValues));
    }
    const util::Json* scale_json = json.get("scale");
    const std::string scale =
        scale_json != nullptr ? scale_json->as_string() : "linear";
    if (scale != "linear" && scale != "log") {
      bad("envelope." + name + ".scale must be \"linear\" or \"log\"");
    }
    if (hi < lo) bad("envelope." + name + ": max < min");
    if (scale == "log" && lo <= 0.0) {
      bad("envelope." + name + ": log scale needs min > 0");
    }
    if (steps == 1) {
      values.push_back(lo);
    } else {
      for (std::uint64_t i = 0; i < steps; ++i) {
        const double t =
            static_cast<double>(i) / static_cast<double>(steps - 1);
        values.push_back(scale == "log"
                             ? lo * std::pow(hi / lo, t)
                             : lo + (hi - lo) * t);
      }
    }
  } else {
    bad("envelope." + name + " must be an array or a {min,max,steps} range");
  }
  if (integral) {
    for (double& v : values) v = std::round(v);
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  return values;
}

}  // namespace

std::uint64_t u64_from_json(const util::Json& json, const std::string& where) {
  const double v = require_number(json, where);
  // 2^64 is exactly representable; every double below it and >= 0 that
  // is integral converts without loss.
  if (!(v >= 0.0) || v >= 18446744073709551616.0 || v != std::floor(v)) {
    bad(where + " must be an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(v);
}

Envelope envelope_from_json(const util::Json& json) {
  if (!json.is_object()) bad("envelope must be an object");
  reject_unknown_keys(json,
                      {"families", "g", "L", "m", "penalty",
                       "frontier_percent", "max_frontier"},
                      "envelope");
  Envelope envelope;
  if (const util::Json* families = json.get("families")) {
    if (!families->is_array()) bad("envelope.families must be an array");
    envelope.families.clear();
    for (std::size_t i = 0; i < families->size(); ++i) {
      const std::string& name = families->at(i).as_string();
      const auto family = family_from_name(name);
      if (!family) bad("unknown model family \"" + name + "\"");
      envelope.families.push_back(*family);
    }
  }
  if (const util::Json* g = json.get("g")) {
    envelope.g = parse_axis(*g, "g", /*integral=*/false);
  }
  if (const util::Json* L = json.get("L")) {
    envelope.L = parse_axis(*L, "L", /*integral=*/false);
  }
  if (const util::Json* m = json.get("m")) {
    envelope.m.clear();
    for (const double v : parse_axis(*m, "m", /*integral=*/true)) {
      if (v < 0.0 || v > 4294967295.0) bad("envelope.m value out of range");
      envelope.m.push_back(static_cast<std::uint32_t>(v));
    }
  }
  if (const util::Json* penalty = json.get("penalty")) {
    if (!penalty->is_array()) bad("envelope.penalty must be an array");
    envelope.penalties.clear();
    for (std::size_t i = 0; i < penalty->size(); ++i) {
      const std::string& name = penalty->at(i).as_string();
      const auto parsed = penalty_from_name(name);
      if (!parsed) bad("unknown penalty \"" + name + "\" (linear | exp)");
      envelope.penalties.push_back(*parsed);
    }
  }
  if (const util::Json* pct = json.get("frontier_percent")) {
    envelope.frontier_percent = require_number(*pct, "envelope.frontier_percent");
  }
  if (const util::Json* cap = json.get("max_frontier")) {
    envelope.max_frontier =
        static_cast<std::size_t>(u64_from_json(*cap, "envelope.max_frontier"));
  }
  envelope.check();
  return envelope;
}

util::Json point_to_json(const PlannedPoint& point) {
  util::Json json = util::Json::object();
  json["family"] = family_name(point.spec.family);
  if (replay::reads_g(point.spec.family)) json["g"] = point.spec.g;
  if (replay::reads_L(point.spec.family)) json["L"] = point.spec.L;
  if (replay::reads_m(point.spec.family)) json["m"] = point.spec.m;
  if (replay::reads_penalty(point.spec.family)) {
    json["penalty"] = core::penalty_name(point.spec.penalty);
  }
  json["cost"] = static_cast<double>(point.cost);
  json["index"] = point.index;
  return json;
}

util::Json plan_to_json(const PlanResult& result) {
  util::Json json = util::Json::object();
  json["best"] = point_to_json(result.best);

  util::Json frontier = util::Json::array();
  for (const PlannedPoint& point : result.frontier) {
    util::Json entry = point_to_json(point);
    const double best = static_cast<double>(result.best.cost);
    entry["over_best"] =
        best > 0.0 ? static_cast<double>(point.cost) / best - 1.0 : 0.0;
    frontier.push_back(std::move(entry));
  }
  json["frontier"] = std::move(frontier);
  json["frontier_total"] = result.frontier_total;

  util::Json dominant = util::Json::object();
  dominant["term"] = result.dominant_term;
  dominant["share"] = result.dominant_share;
  dominant["verdict"] = result.verdict;
  util::Json terms = util::Json::object();
  terms["w"] = result.term_totals.w;
  terms["gh"] = result.term_totals.gh;
  terms["h"] = result.term_totals.h;
  terms["cm"] = result.term_totals.cm;
  terms["kappa"] = result.term_totals.kappa;
  terms["L"] = result.term_totals.L;
  dominant["terms"] = std::move(terms);
  json["dominant"] = std::move(dominant);

  util::Json marginal = util::Json::object();
  const auto marginal_json = [](const Marginal& m) {
    util::Json j = util::Json::object();
    j["defined"] = m.defined;
    if (m.defined) j["value"] = m.value;
    return j;
  };
  marginal["dcost_dg"] = marginal_json(result.dcost_dg);
  marginal["dcost_dm"] = marginal_json(result.dcost_dm);
  json["marginal"] = std::move(marginal);

  json["grid_points"] = result.grid_points;
  json["supersteps"] = result.supersteps;
  util::Json kernel = util::Json::object();
  kernel["simd"] = result.simd_path;
  kernel["threads"] = result.batch_threads;
  json["batch_kernel"] = std::move(kernel);
  char fp[19];
  std::snprintf(fp, sizeof fp, "0x%016llx",
                static_cast<unsigned long long>(result.tape_fingerprint));
  json["tape_fingerprint"] = fp;
  return json;
}

util::Json tape_to_json(const replay::StatsTape& tape) {
  util::Json json = util::Json::object();
  json["p"] = tape.p;
  json["seed"] = tape.seed;
  if (!tape.captured_model.empty()) {
    json["captured_model"] = tape.captured_model;
  }
  util::Json steps = util::Json::array();
  for (std::size_t i = 0; i < tape.size(); ++i) {
    util::Json step = util::Json::object();
    step["w"] = tape.max_work[i];
    step["sent"] = tape.max_sent[i];
    step["received"] = tape.max_received[i];
    step["flits"] = tape.step_flits[i];
    step["reads"] = tape.max_reads[i];
    step["writes"] = tape.max_writes[i];
    step["kappa"] = tape.kappa[i];
    step["requests"] = tape.step_requests[i];
    util::Json slots = util::Json::array();
    for (const std::uint64_t count : tape.slots(i)) slots.push_back(count);
    step["slots"] = std::move(slots);
    steps.push_back(std::move(step));
  }
  json["steps"] = std::move(steps);
  util::Json totals = util::Json::object();
  totals["messages"] = tape.total_messages;
  totals["flits"] = tape.total_flits;
  totals["reads"] = tape.total_reads;
  totals["writes"] = tape.total_writes;
  json["totals"] = std::move(totals);
  return json;
}

replay::StatsTape tape_from_json(const util::Json& json) {
  if (!json.is_object()) bad("tape must be an object");
  reject_unknown_keys(json, {"p", "seed", "captured_model", "steps", "totals"},
                      "tape");
  replay::StatsTape tape;
  if (const util::Json* p = json.get("p")) {
    const std::uint64_t procs = u64_from_json(*p, "tape.p");
    if (procs > UINT32_MAX) bad("tape.p exceeds " + std::to_string(UINT32_MAX));
    tape.p = static_cast<std::uint32_t>(procs);
  }
  if (const util::Json* seed = json.get("seed")) {
    tape.seed = u64_from_json(*seed, "tape.seed");
  }
  if (const util::Json* model = json.get("captured_model")) {
    tape.captured_model = model->as_string();
  }
  const util::Json* steps = json.get("steps");
  if (steps == nullptr || !steps->is_array()) {
    bad("tape.steps must be an array");
  }
  for (std::size_t i = 0; i < steps->size(); ++i) {
    const util::Json& step = steps->at(i);
    if (!step.is_object()) bad("tape.steps[] must be objects");
    reject_unknown_keys(step,
                        {"w", "sent", "received", "flits", "reads", "writes",
                         "kappa", "requests", "slots"},
                        "tape.steps[]");
    engine::SuperstepStats stats;
    if (const util::Json* w = step.get("w")) {
      stats.max_work = require_number(*w, "tape.steps[].w");
    }
    const auto u64_field = [&](const char* name, std::uint64_t& out) {
      if (const util::Json* field = step.get(name)) {
        out = u64_from_json(*field, std::string("tape.steps[].") + name);
      }
    };
    u64_field("sent", stats.max_sent);
    u64_field("received", stats.max_received);
    u64_field("flits", stats.total_flits);
    u64_field("reads", stats.max_reads);
    u64_field("writes", stats.max_writes);
    u64_field("kappa", stats.kappa);
    u64_field("requests", stats.total_requests);
    if (const util::Json* slots = step.get("slots")) {
      if (!slots->is_array()) bad("tape.steps[].slots must be an array");
      for (std::size_t s = 0; s < slots->size(); ++s) {
        stats.slot_counts.push_back(
            u64_from_json(slots->at(s), "tape.steps[].slots[]"));
      }
    }
    tape.append(stats);
  }
  if (const util::Json* totals = json.get("totals")) {
    if (!totals->is_object()) bad("tape.totals must be an object");
    reject_unknown_keys(*totals, {"messages", "flits", "reads", "writes"},
                        "tape.totals");
    if (const util::Json* v = totals->get("messages")) {
      tape.total_messages = u64_from_json(*v, "tape.totals.messages");
    }
    if (const util::Json* v = totals->get("flits")) {
      tape.total_flits = u64_from_json(*v, "tape.totals.flits");
    }
    if (const util::Json* v = totals->get("reads")) {
      tape.total_reads = u64_from_json(*v, "tape.totals.reads");
    }
    if (const util::Json* v = totals->get("writes")) {
      tape.total_writes = u64_from_json(*v, "tape.totals.writes");
    }
  }
  return tape;
}

}  // namespace pbw::planner
