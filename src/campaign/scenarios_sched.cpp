// The Section 6 scheduling experiments as scenarios: Unbalanced-Send
// (E5, Theorem 6.2) and its consecutive (E6, Theorem 6.3), granular (E7,
// Theorem 6.4), long-message (E8) and startup-overhead (E9) variants, the
// self-scheduling metric (E11) and the tau routine (E15).  Every trial
// draws its relation and its schedule from the trial stream, so a job's
// `trials` average over both.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "sched/count_n.hpp"
#include "sched/runner.hpp"
#include "sched/schedule.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"

namespace pbw::campaign {

namespace {

namespace bounds = core::bounds;
constexpr core::Penalty kExp = core::Penalty::kExponential;

/// The point's p, m and L at matched bandwidth g = p/m.
core::ModelParams matched(const ParamSet& params) {
  core::ModelParams prm;
  prm.p = static_cast<std::uint32_t>(params.get_int("p"));
  prm.m = static_cast<std::uint32_t>(params.get_int("m"));
  prm.g = static_cast<double>(prm.p) / prm.m;
  prm.L = params.get_double("L");
  return prm;
}

/// Offline optimum max(n/m, xbar, ybar, L) of routing `rel`.
double optimal(const sched::Relation& rel, std::uint32_t m, double L) {
  return bounds::routing_bsp_m_optimal(rel.total_flits(), rel.max_sent(),
                                       rel.max_received(), m, L);
}

/// Evaluates `schedule` under the exponential penalty at L = 1.
sched::ScheduleCost charge(const sched::Relation& rel,
                           const sched::SlotSchedule& schedule,
                           std::uint32_t m) {
  return sched::evaluate_schedule(rel, schedule, m, kExp, 1);
}

// ---- sched.unbalanced_send (E5) -------------------------------------------

MetricRow run_unbalanced_send(const ParamSet& params, util::Xoshiro256& rng) {
  const auto prm = matched(params);
  const double eps = params.get_double("eps");
  const auto rel = sched::point_skew_relation(
      prm.p, static_cast<std::uint64_t>(params.get_int("n")),
      params.get_double("hot"), rng);
  const std::uint64_t n = rel.total_flits();
  const double opt = optimal(rel, prm.m, prm.L);
  const auto schedule =
      sched::unbalanced_send_schedule(rel, prm.m, eps, n, rng);
  const auto r = sched::route_relation(core::BspM(prm, kExp), rel, schedule,
                                       prm.m, prm.L, /*count_n=*/true);
  const double bsp_g = bounds::routing_bsp_g(rel.max_sent(),
                                             rel.max_received(), prm.g, prm.L);
  return {
      {"xbar", static_cast<double>(rel.max_sent())},
      {"optimal", opt},
      {"send_time", r.send_time},
      {"ratio", r.send_time / opt},
      {"ratio_tau", (r.send_time + r.count_time) / opt},
      {"bsp_g", bsp_g},
      {"g_advantage", bsp_g / r.send_time},
      {"overload", !r.within_limit ? 1.0 : 0.0},
      {"chernoff_bound", bounds::unbalanced_send_failure_prob(n, prm.m, eps)},
      {"correct", r.delivered ? 1.0 : 0.0},
  };
}

// ---- sched.consecutive (E6) -----------------------------------------------

MetricRow run_consecutive(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const double eps = params.get_double("eps");
  const auto rel = sched::point_skew_relation(
      p, static_cast<std::uint64_t>(params.get_int("n")),
      params.get_double("hot"), rng);
  const std::uint64_t n = rel.total_flits();
  const double window = std::ceil((1 + eps) * static_cast<double>(n) / m);
  const double bound =
      std::max({window + static_cast<double>(rel.max_sent_below(window)),
                static_cast<double>(rel.max_sent()),
                static_cast<double>(rel.max_received())});
  const auto plain =
      charge(rel, sched::unbalanced_send_schedule(rel, m, eps, n, rng), m);
  const auto schedule = sched::consecutive_send_schedule(rel, m, eps, n, rng);
  sched::validate_schedule(rel, schedule);
  const auto consecutive = charge(rel, schedule, m);
  return {
      {"optimal", optimal(rel, m, 1)},
      {"plain_time", plain.total},
      {"consecutive_time", consecutive.total},
      {"bound", bound},
      {"within", consecutive.total <= 1.3 * bound ? 1.0 : 0.0},
      // Rare overloads stay mild.
      {"limit_ok", consecutive.max_mt <= 2 * m ? 1.0 : 0.0},
  };
}

// ---- sched.granular (E7) --------------------------------------------------

MetricRow run_granular(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const double c = params.get_double("c");
  const std::uint64_t n = 2048ull * m;  // n >> p
  const auto rel =
      sched::balanced_relation(p, static_cast<std::uint32_t>(n / p), rng);
  const std::uint64_t flits = rel.total_flits();
  const auto granular =
      charge(rel, sched::granular_send_schedule(rel, m, c, flits, rng), m);
  const auto plain = charge(
      rel, sched::unbalanced_send_schedule(rel, m, 0.25, flits, rng), m);
  const double target = c * static_cast<double>(flits) / m;
  return {
      {"n", static_cast<double>(flits)},
      {"time", granular.total},
      {"ratio", granular.total / target},
      {"overload", !granular.within_limit ? 1.0 : 0.0},
      {"plain_overload", !plain.within_limit ? 1.0 : 0.0},
  };
}

// ---- sched.long_messages (E8) ---------------------------------------------

MetricRow run_long_messages(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const auto max_len = static_cast<std::uint32_t>(params.get_int("max_len"));
  const double eps = params.get_double("eps");
  const auto rel = sched::variable_length_relation(
      p, static_cast<std::uint64_t>(params.get_int("messages")), max_len, 0.1,
      rng);
  const std::uint64_t n = rel.total_flits();
  const double window = std::ceil((1 + eps) * static_cast<double>(n) / m);
  const auto schedule = sched::long_message_schedule(rel, m, eps, n, rng);
  sched::validate_schedule(rel, schedule);
  const auto cost = charge(rel, schedule, m);
  return {
      {"n", static_cast<double>(n)},
      {"window", window},
      {"slots_used", static_cast<double>(cost.slots_used)},
      {"window_lhat", window + rel.max_length()},
      {"ratio", cost.total / optimal(rel, m, 1)},
      {"limit_ok", cost.max_mt <= 2 * m ? 1.0 : 0.0},
  };
}

// ---- sched.overhead (E9) --------------------------------------------------

MetricRow run_overhead(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const auto o = static_cast<std::uint32_t>(params.get_int("o"));
  const double eps = params.get_double("eps");
  const auto rel = sched::variable_length_relation(
      p, static_cast<std::uint64_t>(params.get_int("messages")), 8, 0.1, rng);
  const double n = static_cast<double>(rel.total_flits());
  const double lbar = rel.mean_length();
  const auto schedule = sched::overhead_schedule(rel, o, m, eps, rng);
  sched::validate_schedule(rel, schedule);
  const auto cost = charge(rel, schedule, m);
  // The theorem's window term, maxed with the inevitable per-processor
  // occupancy: a processor sending k messages of total length x is busy
  // x + k*o slots no matter the schedule.
  double xbar_inflated = 0;
  for (std::uint32_t src = 0; src < p; ++src) {
    const double busy = static_cast<double>(rel.sent_by(src)) +
                        double(o) * static_cast<double>(rel.items(src).size());
    xbar_inflated = std::max(xbar_inflated, busy);
  }
  const double bound = std::max(
      (1 + eps) * (1 + o / lbar) * n / m + rel.max_length() + o, xbar_inflated);
  // The makespan includes the trailing overhead of the last message.
  const auto makespan = static_cast<double>(cost.slots_used);
  return {
      {"lbar", lbar},
      {"makespan", makespan},
      {"bound", bound},
      {"within", makespan <= 1.3 * bound ? 1.0 : 0.0},
      {"limit_ok", cost.max_mt <= 2 * m ? 1.0 : 0.0},
  };
}

// ---- sched.selfsched (E11) ------------------------------------------------

sched::Relation selfsched_workload(const std::string& name, std::uint32_t p,
                                   util::Xoshiro256& rng) {
  constexpr std::uint64_t n = 16384;
  if (name == "balanced") return sched::balanced_relation(p, 64, rng);
  if (name == "point-skew") return sched::point_skew_relation(p, n, 0.5, rng);
  if (name == "zipf") return sched::zipf_relation(p, n, 1.0, rng);
  if (name == "dest-skew") return sched::dest_skew_relation(p, n, 0.8, rng);
  if (name == "nearly-local") {
    return sched::nearly_local_relation(p, n, 0.1, rng);
  }
  throw std::invalid_argument("sched.selfsched: unknown workload '" + name +
                              "'");
}

MetricRow run_selfsched(const ParamSet& params, util::Xoshiro256& rng) {
  const auto prm = matched(params);
  const double eps = params.get_double("eps");
  const auto rel = selfsched_workload(params.get("workload"), prm.p, rng);
  const double self_cost =
      sched::route_relation(core::SelfSchedulingBspM(prm), rel,
                            sched::naive_schedule(rel), prm.m, prm.L)
          .send_time;
  const auto schedule = sched::unbalanced_send_schedule(
      rel, prm.m, eps, rel.total_flits(), rng);
  const double bsp_m_cost =
      sched::route_relation(core::BspM(prm, kExp), rel, schedule, prm.m, prm.L)
          .send_time;
  const double ratio = bsp_m_cost / self_cost;
  return {
      {"self_cost", self_cost},
      {"bsp_m_cost", bsp_m_cost},
      {"ratio", ratio},
      {"within", ratio <= 1 + eps + 0.15 ? 1.0 : 0.0},
  };
}

// ---- sched.count_n (E15) --------------------------------------------------

MetricRow run_count_n(const ParamSet& params, util::Xoshiro256& rng) {
  const auto prm = matched(params);
  const auto arity = params.get_int("arity") > 0
                         ? static_cast<std::uint32_t>(params.get_int("arity"))
                         : static_cast<std::uint32_t>(prm.L);
  std::vector<std::uint64_t> x(prm.p);
  for (auto& v : x) v = rng.below(100);
  const auto r =
      sched::count_and_broadcast(core::BspM(prm), x, prm.m, arity);
  const double formula = bounds::count_n_time(prm.p, prm.m, prm.L);
  const std::uint64_t n = std::accumulate(x.begin(), x.end(), std::uint64_t{0});
  return {
      {"time", r.time},
      {"formula", formula},
      {"ratio", r.time / formula},
      {"correct", r.all_procs_agree && r.n == n ? 1.0 : 0.0},
  };
}

}  // namespace

void register_sched_scenarios(Registry& registry) {
  const ParamSpec p{"p", "256", "processors"};
  const ParamSpec eps{"eps", "0.25", "Unbalanced-Send slack"};
  const ParamSpec hot{"hot", "0", "share of the flits one hot processor sends"};
  registry.add(
      {.name = "sched.unbalanced_send",
       .description = "Unbalanced-Send vs the offline optimum (E5)",
       .params = {p,
                  {"m", "32", "aggregate bandwidth limit; g = p/m"},
                  {"n", "16384", "flits"},
                  {"L", "8", "BSP latency/periodicity"},
                  hot,
                  eps},
       .run = run_unbalanced_send});
  registry.add(
      {.name = "sched.consecutive",
       .description = "Consecutive-Send vs the Thm 6.3 bound (E6)",
       .params = {p,
                  {"m", "32", "aggregate bandwidth limit"},
                  {"n", "16384", "flits"},
                  hot,
                  eps},
       .run = run_consecutive});
  registry.add(
      {.name = "sched.granular",
       .description = "Granular-Send at small m, huge n vs c*n/m (E7)",
       .params = {{"p", "128", "processors"},
                  {"m", "8", "aggregate bandwidth limit; n = 2048 m flits"},
                  {"c", "3", "target constant in c*n/m"}},
       .run = run_granular});
  registry.add(
      {.name = "sched.long_messages",
       .description = "long messages in consecutive slots: window + lhat (E8)",
       .params = {{"p", "128", "processors"},
                  {"m", "16", "aggregate bandwidth limit"},
                  {"messages", "2048", "messages"},
                  {"max_len", "1", "lengths uniform in 1..max_len flits"},
                  eps},
       .run = run_long_messages});
  registry.add(
      {.name = "sched.overhead",
       .description = "startup overhead o per message vs Section 6.1 (E9)",
       .params = {{"p", "128", "processors"},
                  {"m", "16", "aggregate bandwidth limit"},
                  {"messages", "1024", "messages, lengths uniform in 1..8"},
                  {"o", "0", "idle slots before each message"},
                  eps},
       .run = run_overhead});
  registry.add(
      {.name = "sched.selfsched",
       .description = "self-scheduling BSP(m) metric vs the true BSP(m) (E11)",
       .params = {p,
                  {"m", "32", "aggregate bandwidth limit; g = p/m"},
                  {"L", "8", "BSP latency/periodicity"},
                  eps,
                  {"workload", "balanced",
                   "balanced | point-skew | zipf | dest-skew | nearly-local"}},
       .run = run_selfsched});
  registry.add(
      {.name = "sched.count_n",
       .description = "tau: count and broadcast n vs its formula (E15)",
       .params = {p,
                  {"m", "16", "aggregate bandwidth limit; g = p/m"},
                  {"L", "4", "BSP latency/periodicity"},
                  {"arity", "0", "combining-tree arity; 0 takes L"}},
       .run = run_count_n});
}

}  // namespace pbw::campaign
