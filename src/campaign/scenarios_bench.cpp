// Scenarios for the paper's parameter studies outside Table 1: the
// overload-penalty study (E12), the Theorem 4.1 broadcast bounds (E2), the
// two sorting engines (E16) and the list-ranking ablation (E17).
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algos/broadcast.hpp"
#include "algos/columnsort.hpp"
#include "algos/list_ranking.hpp"
#include "algos/sorting.hpp"
#include "campaign/scenario.hpp"
#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "replay/recorder.hpp"
#include "sched/schedule.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"

namespace pbw::campaign {

namespace {

namespace bounds = core::bounds;

// ---- sched.penalty (E12) --------------------------------------------------

MetricRow penalty_row(const sched::ScheduleCost& cost,
                      std::uint64_t total_flits) {
  return {
      {"cost", cost.total},
      {"c_m", cost.c_m},
      {"max_mt", static_cast<double>(cost.max_mt)},
      {"slots_used", static_cast<double>(cost.slots_used)},
      {"within_limit", cost.within_limit ? 1.0 : 0.0},
      {"per_flit", cost.total / static_cast<double>(total_flits)},
  };
}

MetricRow run_penalty(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto n = static_cast<std::uint64_t>(params.get_int("n"));
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const double eps = params.get_double("eps");
  const std::string& which = params.get("schedule");
  const core::Penalty penalty = core::parse_penalty(params.get("penalty"));

  const auto rel =
      sched::balanced_relation(p, static_cast<std::uint32_t>(n / p), rng);
  sched::SlotSchedule schedule(p);
  if (which == "naive") {
    schedule = sched::naive_schedule(rel);
  } else if (which == "unbalanced-send") {
    schedule =
        sched::unbalanced_send_schedule(rel, m, eps, rel.total_flits(), rng);
  } else if (which == "offline") {
    schedule = sched::offline_optimal_schedule(rel, m);
  } else {
    throw std::invalid_argument("sched.penalty: unknown schedule '" + which +
                                "'");
  }
  auto counts = sched::slot_occupancy(rel, schedule);
  const auto h =
      static_cast<double>(std::max(rel.max_sent(), rel.max_received()));
  const auto cost = sched::evaluate_occupancy(counts, h, m, penalty, 1);
  // No Machine runs here, so capture is a synthetic one-step tape holding
  // the occupancy vector — everything evaluate_occupancy needs to recharge
  // this schedule under another (m, penalty).
  if (auto* recorder = replay::current_tape_recorder()) {
    auto& tape = recorder->begin_tape(p, 0);
    tape.captured_model = "sched.schedule";
    engine::SuperstepStats stats;
    stats.max_sent = rel.max_sent();
    stats.max_received = rel.max_received();
    stats.total_flits = rel.total_flits();
    stats.slot_counts = std::move(counts);
    tape.append(stats);
    tape.total_flits = rel.total_flits();
  }
  return penalty_row(cost, rel.total_flits());
}

MetricRow replay_penalty(const ParamSet& params,
                         const replay::CapturedTrial& trial) {
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const core::Penalty penalty = core::parse_penalty(params.get("penalty"));
  const auto stats = trial.tapes.at(0).step(0);
  const auto h =
      static_cast<double>(std::max(stats.max_sent, stats.max_received));
  const auto cost =
      sched::evaluate_occupancy(stats.slot_counts, h, m, penalty, 1);
  return penalty_row(cost, stats.total_flits);
}

/// The penalty shape only ever changes charging; m shapes the schedule for
/// the scheduled senders but is ignored by the naive one.
bool penalty_cost_only(const ParamSet& params, const std::string& name) {
  if (name == "penalty") return true;
  if (name == "m") return params.get("schedule") == "naive";
  return false;
}

// ---- broadcast.bounds (E2, Theorem 4.1) -----------------------------------

MetricRow run_broadcast_bounds(const ParamSet& params, util::Xoshiro256& rng) {
  core::ModelParams prm;
  prm.p = static_cast<std::uint32_t>(params.get_int("p"));
  prm.g = params.get_double("g");
  prm.L = params.get_double("L");
  prm.m = std::max(1u, static_cast<std::uint32_t>(
                           static_cast<double>(prm.p) / prm.g));
  const core::BspG model(prm);

  const auto arity = std::max(1u, static_cast<std::uint32_t>(prm.L / prm.g));
  const auto tree = algos::broadcast_bsp_tree(model, arity, 3);
  const auto ternary = algos::broadcast_ternary_bsp(model, rng.bernoulli(0.5));
  const double lb = bounds::broadcast_bsp_g_lower(prm.p, prm.g, prm.L);
  const double best = std::min(tree.time, ternary.time);
  return {
      {"lb", lb},
      {"tree_time", tree.time},
      {"ternary_time", ternary.time},
      {"ub_formula", bounds::broadcast_bsp_g(prm.p, prm.g, prm.L)},
      {"ternary_formula", bounds::broadcast_ternary(prm.p, prm.g)},
      {"lb_ok", lb <= best + 1e-9 ? 1.0 : 0.0},
      {"correct", tree.correct && ternary.correct ? 1.0 : 0.0},
  };
}

// ---- sorting.engines (Table 1 sorting ablation) ---------------------------

std::uint32_t pow2_columns(std::uint64_t n, std::uint32_t p) {
  std::uint32_t s = 2;
  while (2 * s <= algos::columnsort_max_columns(n, p)) s *= 2;
  return s;
}

MetricRow run_sorting_engines(const ParamSet& params, util::Xoshiro256& rng) {
  core::ModelParams prm;
  prm.p = static_cast<std::uint32_t>(params.get_int("p"));
  prm.m = static_cast<std::uint32_t>(params.get_int("m"));
  prm.g = static_cast<double>(prm.p) / prm.m;
  prm.L = params.get_double("L");
  const auto n = static_cast<std::uint32_t>(params.get_int("n"));
  const core::BspM model(prm);

  std::vector<engine::Word> keys(n);
  for (auto& x : keys) x = static_cast<engine::Word>(rng.below(1 << 30));
  const double bound = bounds::sort_bsp_m(n, prm.m, prm.L);

  const auto s = pow2_columns(n, prm.p);
  const auto col = algos::columnsort_bsp(model, keys, s, prm.m);
  const auto smp = algos::sample_sort_bsp(model, keys, prm.m);
  return {
      {"bound", bound},
      {"columnsort_time", col.time},
      {"samplesort_time", smp.time},
      {"columnsort_ratio", col.time / bound},
      {"samplesort_ratio", smp.time / bound},
      {"correct", col.correct && smp.correct ? 1.0 : 0.0},
  };
}

// ---- list_ranking.qsm (E17) -----------------------------------------------

MetricRow run_list_ranking(const ParamSet& params, util::Xoshiro256& rng) {
  core::ModelParams prm;
  prm.p = static_cast<std::uint32_t>(params.get_int("n"));
  prm.m = static_cast<std::uint32_t>(params.get_int("m"));
  prm.g = static_cast<double>(prm.p) / prm.m;
  prm.L = 1;
  const auto collectors = params.get_int("collectors") > 0
                              ? static_cast<std::uint32_t>(
                                    params.get_int("collectors"))
                              : prm.m;
  const auto r = algos::list_rank_qsm(
      core::QsmM(prm), algos::random_list(prm.p, rng()), collectors, prm.m);
  const double profile = static_cast<double>(prm.p) / prm.m + bounds::lg(prm.p);
  return {
      {"time", r.time},
      {"profile", profile},
      {"ratio", r.time / profile},
      {"correct", r.correct ? 1.0 : 0.0},
  };
}

}  // namespace

void register_bench_scenarios(Registry& registry) {
  Scenario penalty;
  penalty.name = "sched.penalty";
  penalty.description = "overload penalty f_m: naive vs scheduled sends (E12)";
  penalty.params = {{"p", "128", "processors"},
                    {"n", "4096", "total flits"},
                    {"m", "16", "aggregate bandwidth limit"},
                    {"eps", "0.25", "Unbalanced-Send slack"},
                    {"schedule", "naive", "naive | unbalanced-send | offline"},
                    {"penalty", "exp", "linear | exp overload charge"}};
  penalty.run = run_penalty;
  penalty.replay = replay_penalty;
  penalty.cost_only_at = penalty_cost_only;
  registry.add(std::move(penalty));
  Scenario broadcast;
  broadcast.name = "broadcast.bounds";
  broadcast.description =
      "Theorem 4.1 BSP(g) broadcast LB vs tree/ternary UBs (E2)";
  broadcast.params = {{"p", "1024", "processors"},
                      {"g", "8", "per-processor gap"},
                      {"L", "4", "BSP latency/periodicity"}};
  broadcast.run = run_broadcast_bounds;
  registry.add(std::move(broadcast));
  Scenario sorting;
  sorting.name = "sorting.engines";
  sorting.description = "columnsort vs sample sort against Theta(n/m + L)";
  sorting.params = {{"p", "256", "processors"},
                    {"n", "16384", "keys (power of two)"},
                    {"m", "16", "aggregate bandwidth limit"},
                    {"L", "4", "BSP latency/periodicity"}};
  sorting.run = run_sorting_engines;
  registry.add(std::move(sorting));
  registry.add(
      {.name = "list_ranking.qsm",
       .description = "QSM(m) list ranking vs the n/m + lg n profile (E17)",
       .params = {{"n", "2048", "list nodes = processors"},
                  {"m", "32", "aggregate bandwidth limit; g = n/m"},
                  {"collectors", "0", "contraction collectors; 0 takes m"}},
       .run = run_list_ranking});
}

}  // namespace pbw::campaign
