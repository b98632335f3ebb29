#include "planner/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/scenario.hpp"
#include "campaign/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"

namespace pbw::planner {

namespace {

/// The recorded-tape LRU's byte cap.
constexpr std::size_t kTapeCacheBytes = std::size_t{64} << 20;

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument("plan request: " + message);
}

/// A request's parameter override as the string a spec file would have
/// carried: numbers print shortest-round-trip, so "p": 64 becomes "64".
std::string param_string(const util::Json& value, const std::string& key) {
  switch (value.type()) {
    case util::Json::Type::kString:
      return value.as_string();
    case util::Json::Type::kNumber: {
      char buf[32];
      const double v = value.as_double();
      if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
      }
      return buf;
    }
    case util::Json::Type::kBool:
      return value.as_bool() ? "true" : "false";
    default:
      bad("params." + key + " must be a string, number, or bool");
  }
}

std::uint64_t u64_or(const util::Json& request, const char* key,
                     std::uint64_t fallback) {
  const util::Json* value = request.get(key);
  return value != nullptr ? u64_from_json(*value, key) : fallback;
}

/// The plan key's hash: a word-at-a-time 64-bit mix over the fingerprint
/// and the envelope's raw bits.  It is never persisted, so unlike the
/// byte-wise fnv1a64 it may change freely.  Each axis is preceded by its
/// length, so values cannot slide from one axis into the next.
class PlanKeyHash {
 public:
  void add(std::uint64_t word) noexcept {
    h_ = (h_ ^ word) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 32;
    ++words_;
  }
  template <typename T>
  void add_axis(const std::vector<T>& axis) noexcept {
    add(axis.size());
    for (const T v : axis) add(bits(v));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return words_ * sizeof(std::uint64_t);
  }

  static std::uint64_t bits(double v) noexcept {
    return std::bit_cast<std::uint64_t>(v);
  }
  template <typename T>
  static std::uint64_t bits(T v) noexcept {
    return static_cast<std::uint64_t>(v);
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
  std::size_t words_ = 0;
};

/// Everything the hash mixes, compared bit for bit (so 0.0 and -0.0, which
/// print differently, stay different plans).
bool same_envelope(const Envelope& a, const Envelope& b) noexcept {
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](double u, double v) {
                        return PlanKeyHash::bits(u) == PlanKeyHash::bits(v);
                      });
  };
  return a.families == b.families && same_bits(a.g, b.g) &&
         same_bits(a.L, b.L) && a.m == b.m && a.penalties == b.penalties &&
         PlanKeyHash::bits(a.frontier_percent) ==
             PlanKeyHash::bits(b.frontier_percent) &&
         a.max_frontier == b.max_frontier;
}

PlanKeyHash plan_key_hash(std::uint64_t fingerprint, const Envelope& e) {
  PlanKeyHash hash;
  hash.add(fingerprint);
  hash.add_axis(e.families);
  hash.add_axis(e.g);
  hash.add_axis(e.L);
  hash.add_axis(e.m);
  hash.add_axis(e.penalties);
  hash.add(PlanKeyHash::bits(e.frontier_percent));
  hash.add(e.max_frontier);
  return hash;
}

}  // namespace

PlanService::PlanService(PlanServiceOptions options)
    : options_(options), tapes_(kTapeCacheBytes) {
  // Only pay for worker threads when the host can actually run more than
  // one; an inline pool would just be dispatch overhead on every solve.
  if (options.solve_threads != 1) {
    auto pool = std::make_unique<util::ThreadPool>(options.solve_threads);
    if (pool->size() > 1) pool_ = std::move(pool);
  }
}

TapeRef PlanService::resolve_tape(const util::Json& request) {
  const util::Json* inline_tape = request.get("tape");
  const util::Json* scenario_name = request.get("scenario");
  if ((inline_tape != nullptr) == (scenario_name != nullptr)) {
    bad("give exactly one of \"tape\" (inline) or \"scenario\" (recorded)");
  }

  TapeRef ref;
  if (inline_tape != nullptr) {
    ref.owned =
        std::make_unique<replay::StatsTape>(tape_from_json(*inline_tape));
    ref.tape = ref.owned.get();
    ref.fingerprint = fingerprint_tape(*ref.tape);
    ref.source = "inline";
    return ref;
  }

  const campaign::Scenario* scenario =
      campaign::Registry::instance().find(scenario_name->as_string());
  if (scenario == nullptr) {
    throw NotFound("unknown scenario \"" + scenario_name->as_string() + "\"");
  }

  campaign::ParamSet params;
  for (const campaign::ParamSpec& spec : scenario->params) {
    params.set(spec.name, spec.default_value);
  }
  if (const util::Json* overrides = request.get("params")) {
    if (!overrides->is_object()) bad("params must be an object");
    for (const auto& [key, value] : overrides->members()) {
      if (scenario->find_param(key) == nullptr) {
        bad("scenario " + scenario->name + " has no parameter \"" + key +
            "\"");
      }
      params.set(key, param_string(value, key));
    }
  }

  const std::uint64_t seed = u64_or(request, "seed", 1);
  const std::uint64_t trial = u64_or(request, "trial", 0);
  const std::uint64_t tape_index = u64_or(request, "tape_index", 0);
  if (trial >= static_cast<std::uint64_t>(INT_MAX)) {
    bad("trial must be below " + std::to_string(INT_MAX));
  }

  const std::string key = scenario->name + "|" + params.canonical() +
                          "|seed=" + std::to_string(seed) +
                          "|trial=" + std::to_string(trial);
  std::shared_ptr<const replay::TapeGroup> group = tapes_.get(key);
  ref.cache_hit = group != nullptr;
  if (group == nullptr) {
    PBW_SPAN("planner.record_tape");
    // The campaign executor's own capture of this one trial, so the tape
    // is bit-identical to that trial of a campaign capture of the same
    // grid point, and no earlier trial is simulated.
    campaign::Job job;
    job.scenario = scenario;
    job.params = params;
    job.seed = seed;
    auto recorded = std::make_shared<replay::TapeGroup>();
    replay::CapturedTrial& captured = recorded->trials.emplace_back(
        campaign::simulate_trial(job, trial, /*capture=*/true));
    // Hash every tape now, before the group is shared: no later request
    // on it hashes again.
    for (const replay::StatsTape& tape : captured.tapes) {
      captured.fingerprints.push_back(fingerprint_tape(tape));
    }
    group = std::move(recorded);
    tapes_.put(key, group);
  }

  const replay::CapturedTrial& captured = group->trials.front();
  if (tape_index >= captured.tapes.size()) {
    throw NotFound("tape_index " + std::to_string(tape_index) +
                   " out of range: trial recorded " +
                   std::to_string(captured.tapes.size()) + " tape(s)");
  }
  ref.group = group;
  ref.tape = &captured.tapes[tape_index];
  ref.fingerprint = captured.fingerprints.at(tape_index);
  ref.source = key + "#" + std::to_string(tape_index);
  return ref;
}

util::Json PlanService::plan(const util::Json& request) {
  PBW_SPAN("planner.plan");
  if (!request.is_object()) bad("request must be a JSON object");
  for (const auto& [key, value] : request.members()) {
    (void)value;
    if (key != "scenario" && key != "params" && key != "seed" &&
        key != "trial" && key != "tape_index" && key != "tape" &&
        key != "envelope") {
      bad("unknown key \"" + key + "\"");
    }
  }
  const util::Json* envelope_json = request.get("envelope");
  if (envelope_json == nullptr) bad("missing \"envelope\"");
  Envelope envelope = envelope_from_json(*envelope_json);

  const TapeRef tape = resolve_tape(request);
  const PlanKeyHash key = plan_key_hash(tape.fingerprint, envelope);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("planner.key_bytes").add(key.bytes());
  std::shared_ptr<const PlanResult> result =
      cached_plan(key.value(), tape.fingerprint, envelope);
  const bool plan_hit = result != nullptr;
  if (plan_hit) {
    metrics.counter("planner.cache_hits").add(1);
  } else {
    metrics.counter("planner.cache_misses").add(1);
    const auto start = std::chrono::steady_clock::now();
    result = std::make_shared<PlanResult>(
        solve(*tape.tape, envelope, pool_.get(), tape.fingerprint));
    metrics.histogram("planner.solve_seconds", 0.0, 10.0, 64)
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    store_plan({key.value(), tape.fingerprint, std::move(envelope), result});
  }

  util::Json response = util::Json::object();
  util::Json tape_json = util::Json::object();
  tape_json["source"] = tape.source;
  tape_json["p"] = tape.tape->p;
  tape_json["supersteps"] = tape.tape->size();
  tape_json["fingerprint"] = fingerprint_hex(tape.fingerprint);
  tape_json["cache_hit"] = tape.cache_hit;
  response["tape"] = std::move(tape_json);
  response["plan"] = plan_to_json(*result);
  util::Json cache = util::Json::object();
  cache["plan_hit"] = plan_hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache["plan_hits"] = plan_hits_;
    cache["plan_misses"] = plan_misses_;
    cache["plan_entries"] = plan_lru_.size();
  }
  response["cache"] = std::move(cache);
  return response;
}

obs::HttpResponse PlanService::handle(const obs::HttpRequest& request) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("planner.requests").add(1);
  obs::HttpResponse response;
  response.content_type = "application/json";
  const auto error_body = [](const std::string& message) {
    util::Json json = util::Json::object();
    json["error"] = message;
    return json.dump() + "\n";
  };
  try {
    const util::Json body = util::Json::parse(request.body);
    // Collect this request's spans (planner.plan / record_tape / solve /
    // recost_batch — all on this thread) so the response can attribute
    // its own latency per phase.  The HTTP middleware installed the
    // request's trace, so the spans also carry its trace id.
    obs::ScopedSpanCollector collector;
    util::Json doc = plan(body);
    util::Json req = util::Json::object();
    if (!request.id.empty()) req["id"] = request.id;
    if (request.trace.valid()) req["trace"] = request.trace.trace_id_hex();
    util::Json phases = util::Json::object();
    for (const obs::SpanEvent& event : collector.take()) {
      util::Json* total = &phases[event.name];
      *total = util::Json((total->is_number() ? total->as_double() : 0.0) +
                          static_cast<double>(event.dur_ns));
    }
    req["phase_ns"] = std::move(phases);
    doc["request"] = std::move(req);
    response.body = doc.dump() + "\n";
    return response;
  } catch (const util::JsonError& e) {
    response.status = 400;
    response.body = error_body(std::string("invalid JSON: ") + e.what());
  } catch (const std::invalid_argument& e) {
    response.status = 400;
    response.body = error_body(e.what());
  } catch (const NotFound& e) {
    response.status = 404;
    response.body = error_body(e.what());
  } catch (const std::exception& e) {
    response.status = 500;
    response.body = error_body(e.what());
  }
  metrics.counter("planner.errors").add(1);
  return response;
}

void PlanService::mount(obs::HttpServer& server) {
  server.route("POST", "/plan", [this](const obs::HttpRequest& request) {
    return handle(request);
  });
}

util::Json PlanService::stats() const {
  util::Json json = util::Json::object();
  util::Json plans = util::Json::object();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plans["entries"] = plan_lru_.size();
    plans["hits"] = plan_hits_;
    plans["misses"] = plan_misses_;
  }
  json["plan_cache"] = std::move(plans);
  util::Json tapes = util::Json::object();
  tapes["entries"] = tapes_.entries();
  tapes["bytes"] = tapes_.bytes();
  tapes["hits"] = tapes_.hits();
  tapes["misses"] = tapes_.misses();
  tapes["evictions"] = tapes_.evictions();
  json["tape_cache"] = std::move(tapes);
  return json;
}

PlanService::PlanList::iterator PlanService::find_plan(
    std::uint64_t hash, std::uint64_t fingerprint, const Envelope& envelope) {
  const auto [first, last] = plan_index_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    const CachedPlan& entry = *it->second;
    if (entry.fingerprint == fingerprint &&
        same_envelope(entry.envelope, envelope)) {
      return it->second;
    }
  }
  return plan_lru_.end();
}

std::shared_ptr<const PlanResult> PlanService::cached_plan(
    std::uint64_t hash, std::uint64_t fingerprint, const Envelope& envelope) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = find_plan(hash, fingerprint, envelope);
  if (it == plan_lru_.end()) {
    ++plan_misses_;
    return nullptr;
  }
  ++plan_hits_;
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it);
  return it->result;
}

void PlanService::store_plan(CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = find_plan(plan.hash, plan.fingerprint, plan.envelope);
  if (it != plan_lru_.end()) {
    it->result = std::move(plan.result);
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it);
    return;
  }
  const std::uint64_t hash = plan.hash;
  plan_lru_.push_front(std::move(plan));
  plan_index_.emplace(hash, plan_lru_.begin());
  while (plan_lru_.size() > options_.plan_cache_entries) {
    const auto victim = std::prev(plan_lru_.end());
    const auto [first, last] = plan_index_.equal_range(victim->hash);
    for (auto record = first; record != last; ++record) {
      if (record->second == victim) {
        plan_index_.erase(record);
        break;
      }
    }
    plan_lru_.pop_back();
  }
}

}  // namespace pbw::planner
