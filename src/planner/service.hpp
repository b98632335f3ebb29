// PlanService: the planner as a served endpoint.
//
// Wraps planner::solve() with everything a request needs beyond the math:
// tape acquisition (an inline JSON tape, or one trial of a named campaign
// scenario the service records on demand — with the executor's exact RNG
// derivation, so a planner tape is bit-identical to that trial of a
// campaign capture of the same job), an LRU of recorded tapes
// (replay::TapeCache), and an
// LRU of solved plans keyed by (tape fingerprint, envelope), so a repeated
// what-if costs a hash lookup instead of a tape pass.  Each tape is hashed
// once, where it enters the service: a recorded group right after the
// recording, an inline tape right after it is parsed.  The plan key mixes
// that fingerprint with the envelope's raw axis bits, and a hit compares
// the stored envelope exactly, so a hit costs O(request), never O(tape).
//
// The same object backs all three exposure paths: planner::solve() is the
// library API, plan() drives `pbw-campaign plan`, and mount() registers
// POST /plan on any obs::HttpServer (the fleet coordinator and a campaign
// run's telemetry server both do).  Instrumentation: every
// request opens PBW_SPAN("planner.plan") and the planner.* metrics family
// (requests, errors, cache_hits/misses, tape_passes, grid_points,
// tape_bytes_hashed, key_bytes, solve_seconds) lands on /metrics next to
// the campaign counters.
//
// Request document (docs/PLANNER.md):
//   {"scenario": "grid.pattern", "params": {...}, "seed": 1,
//    "trial": 0, "tape_index": 0,          — or "tape": {inline tape}
//    "envelope": {...}}                    — planner/wire.hpp schema
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/telemetry/http_server.hpp"
#include "planner/planner.hpp"
#include "planner/wire.hpp"
#include "replay/cache.hpp"
#include "util/json.hpp"

namespace pbw::planner {

/// Thrown for a request that names something that does not exist (an
/// unregistered scenario, an out-of-range tape index): HTTP 404, where
/// a malformed document (std::invalid_argument) is a 400.
class NotFound : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PlanServiceOptions {
  std::size_t plan_cache_entries = 128;       ///< solved-plan LRU cap
  /// Threads solve()'s batch pass may tile across (0 = hardware
  /// concurrency, 1 = inline).  The plan report is bit-identical at every
  /// setting; on a single-core host the pool stays inline regardless.
  std::size_t solve_threads = 0;
};

/// The tape a request resolved to.  `tape` points into `group` (scenario
/// path) or `owned` (inline path); keep the struct alive while using it.
struct TapeRef {
  std::shared_ptr<const replay::TapeGroup> group;
  std::unique_ptr<replay::StatsTape> owned;
  const replay::StatsTape* tape = nullptr;
  std::uint64_t fingerprint = 0;  ///< tape->fingerprint(), taken on entry
  std::string source;     ///< "inline" or "scenario|params|seed=N|trial=T#tape"
  bool cache_hit = false; ///< scenario tape served from the tape cache
};

class PlanService {
 public:
  explicit PlanService(PlanServiceOptions options = {});

  /// Answers one planning request; the full response document (plan report
  /// plus tape identity and cache accounting).  Throws
  /// std::invalid_argument (bad document), NotFound (unknown scenario /
  /// tape index), util::JsonError is the caller's to map.
  [[nodiscard]] util::Json plan(const util::Json& request);

  /// Resolves the request's tape without solving — the `pbw-campaign plan
  /// --tape` path.  A scenario tape is recorded alone (its one trial),
  /// through (and into) the tape cache.
  [[nodiscard]] TapeRef resolve_tape(const util::Json& request);

  /// HTTP adapter: parses the body, maps exceptions to 400/404/500, and
  /// counts planner.requests / planner.errors.
  [[nodiscard]] obs::HttpResponse handle(const obs::HttpRequest& request);

  /// Registers POST /plan on `server`.  The service must outlive it.
  void mount(obs::HttpServer& server);

  /// Cache accounting: {"plan_cache": {...}, "tape_cache": {...}}.
  [[nodiscard]] util::Json stats() const;

 private:
  /// One solved plan and the exact query it answers.  `hash` mixes both
  /// halves; a lookup compares them in full, so two queries whose hashes
  /// collide never share a plan.
  struct CachedPlan {
    std::uint64_t hash = 0;
    std::uint64_t fingerprint = 0;
    Envelope envelope;
    std::shared_ptr<const PlanResult> result;
  };
  using PlanList = std::list<CachedPlan>;

  [[nodiscard]] std::shared_ptr<const PlanResult> cached_plan(
      std::uint64_t hash, std::uint64_t fingerprint, const Envelope& envelope);
  void store_plan(CachedPlan plan);
  /// The entry answering (fingerprint, envelope), or end(); caller holds
  /// mutex_.
  [[nodiscard]] PlanList::iterator find_plan(std::uint64_t hash,
                                             std::uint64_t fingerprint,
                                             const Envelope& envelope);

  PlanServiceOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< batch tiling; null = inline
  replay::TapeCache tapes_;
  mutable std::mutex mutex_;  ///< guards the plan LRU and its stats
  PlanList plan_lru_;  ///< front = most recently used
  /// Plan hash -> its entries; one record per entry, so an eviction
  /// removes exactly its own.
  std::unordered_multimap<std::uint64_t, PlanList::iterator> plan_index_;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t plan_misses_ = 0;
};

}  // namespace pbw::planner
