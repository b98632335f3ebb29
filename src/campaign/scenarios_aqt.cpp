// The Section 6.2 dynamic-routing experiments as scenarios (E10): the
// BSP(g) interval router's stability threshold beta = 1/g (Theorem 6.5),
// Algorithm B on the BSP(m) against the adversary zoo and its batch
// policies (Theorems 6.6-6.7), and the M/G/1 constants of Claim 6.8.
//
// The queueing runs are deterministic: the aqt simulators draw arrivals
// and schedules from streams keyed by their own fixed seed, so these rows
// repeat at every campaign seed and trial.
#include <cstdint>
#include <stdexcept>
#include <string>

#include "aqt/adversary.hpp"
#include "aqt/dynamic.hpp"
#include "campaign/scenario.hpp"
#include "core/bounds.hpp"

namespace pbw::campaign {

namespace {

// ---- aqt.bsp_g (Theorem 6.5) ----------------------------------------------

MetricRow run_bsp_g(const ParamSet& params, util::Xoshiro256&) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto w = static_cast<std::uint32_t>(params.get_int("w"));
  const double g = static_cast<double>(p) / params.get_int("m");
  const double beta = params.get_double("beta_g") / g;
  auto adversary = aqt::make_single_source({p, /*alpha=*/2.0, beta, w});
  const auto r = aqt::run_bsp_g_dynamic(
      *adversary, g, static_cast<std::uint64_t>(params.get_int("windows")),
      params.get_double("L"));
  const bool predicted = core::bounds::bsp_g_stable(beta, g);
  return {
      {"beta", beta},
      {"predicted_stable", predicted ? 1.0 : 0.0},
      {"tail_slope", r.tail_slope},
      {"final_queue", r.final_queue},
      {"stable", r.stable ? 1.0 : 0.0},
      {"as_predicted", r.stable == predicted ? 1.0 : 0.0},
  };
}

// ---- aqt.algorithm_b (Theorems 6.6-6.7) -----------------------------------

aqt::BatchPolicy parse_policy(const std::string& name) {
  if (name == "unbalanced-send") return aqt::BatchPolicy::kUnbalancedSend;
  if (name == "offline") return aqt::BatchPolicy::kOffline;
  if (name == "naive") return aqt::BatchPolicy::kNaive;
  throw std::invalid_argument("aqt.algorithm_b: unknown policy '" + name + "'");
}

MetricRow run_algorithm_b(const ParamSet& params, util::Xoshiro256&) {
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const aqt::AqtParams prm{static_cast<std::uint32_t>(params.get_int("p")),
                           params.get_double("alpha_m") * m,
                           params.get_double("beta"),
                           static_cast<std::uint32_t>(params.get_int("w"))};
  const std::string& name = params.get("adversary");
  for (auto& adversary : aqt::adversary_zoo(prm)) {
    if (adversary->name() != name) continue;
    const auto r = aqt::run_algorithm_b(
        *adversary, m, /*eps=*/0.25,
        static_cast<std::uint64_t>(params.get_int("windows")),
        params.get_double("L"), parse_policy(params.get("policy")));
    return {
        {"alpha", prm.alpha},
        {"mean_queue", r.mean_queue},
        {"tail_slope", r.tail_slope},
        {"mean_service", r.mean_service},
        {"max_service", r.max_service},
        {"stable", r.stable ? 1.0 : 0.0},
        {"correct", r.restrictions_ok ? 1.0 : 0.0},
    };
  }
  throw std::invalid_argument("aqt.algorithm_b: unknown adversary '" + name +
                              "'");
}

// ---- aqt.mg1 (Claim 6.8) --------------------------------------------------

MetricRow run_mg1(const ParamSet& params, util::Xoshiro256&) {
  const double w = params.get_double("w");
  const double u = w / 10;
  const auto moments = aqt::algob_service_moments(w, u);
  const double bound = 1.21 * w / u;
  return {
      {"mu1", moments.mu1},
      {"mu1_bound", bound},
      {"within", moments.mu1 < bound ? 1.0 : 0.0},
      {"mean_queue", aqt::mg1_mean_queue(0.05, moments.mu1, moments.mu2)},
  };
}

}  // namespace

void register_aqt_scenarios(Registry& registry) {
  const ParamSpec p{"p", "32", "processors"};
  const ParamSpec m{"m", "8", "aggregate bandwidth limit; g = p/m"};
  const ParamSpec w{"w", "128", "adversary window, steps"};
  const ParamSpec windows{"windows", "300", "windows simulated"};
  const ParamSpec L{"L", "4", "BSP latency/periodicity"};
  registry.add(
      {.name = "aqt.bsp_g",
       .description = "BSP(g) interval router: stable iff beta <= 1/g (E10)",
       .params = {p, m, w, windows, L,
                  {"beta_g", "0.5", "local rate beta in units of 1/g"}},
       .run = run_bsp_g});
  registry.add(
      {.name = "aqt.algorithm_b",
       .description = "Algorithm B on BSP(m) under adversarial arrivals (E10)",
       .params = {p, m, w, windows, L,
                  {"alpha_m", "0.5", "global rate alpha in units of m"},
                  {"beta", "0.5", "local (per-processor) rate"},
                  {"adversary", "steady",
                   "steady | single-source | rotating-hotspot | "
                   "destination-hotspot | random"},
                  {"policy", "unbalanced-send",
                   "unbalanced-send | offline | naive"}},
       .run = run_algorithm_b});
  registry.add(
      {.name = "aqt.mg1",
       .description = "Claim 6.8: M/G/1 service moments, mu1 < 1.21 w/u (E10)",
       .params = {w},
       .run = run_mg1});
}

}  // namespace pbw::campaign
