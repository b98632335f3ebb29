// The Section 4 and 5 PRAM experiments as scenarios: one CRCW PRAM(m)
// step simulated on the QSM(m) (E3, Theorem 5.1), the central-read
// ablation of its proof (E19), Leader Recognition's ER-vs-CR separation
// (E4, Theorem 5.2 / Lemma 5.3) and the two O(h) CRCW h-relation
// realizations behind the lower-bound transfer of Section 4.1 (E18).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/bounds.hpp"
#include "core/model/models.hpp"
#include "pram/cr_sim.hpp"
#include "pram/h_relation.hpp"
#include "pram/leader.hpp"
#include "sched/workloads.hpp"

namespace pbw::campaign {

namespace {

namespace bounds = core::bounds;

/// The QSM(m) of Theorem 5.1 at p: m = max(2, sqrt(p)/2), g = p/m, L = 1.
core::QsmM cr_model(std::uint32_t p) {
  core::ModelParams prm;
  prm.p = p;
  prm.m = static_cast<std::uint32_t>(
      std::max(2.0, std::sqrt(static_cast<double>(p)) / 2));
  prm.g = static_cast<double>(p) / prm.m;
  prm.L = 1;
  return core::QsmM(prm);
}

/// Processor i's read address in an m-cell memory.
std::vector<std::uint32_t> read_pattern(const std::string& kind,
                                        std::uint32_t p, std::uint32_t m,
                                        util::Xoshiro256& rng) {
  if (kind != "all-same" && kind != "round-robin" && kind != "random" &&
      kind != "zipf") {
    throw std::invalid_argument("pram.concurrent_read: unknown pattern '" +
                                kind + "'");
  }
  std::vector<std::uint32_t> addr(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    if (kind == "all-same") {
      addr[i] = 0;
    } else if (kind == "round-robin") {
      addr[i] = i % m;
    } else if (kind == "zipf") {
      addr[i] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(m - 1, rng.below(m) * rng.below(m) / m));
    } else {
      addr[i] = static_cast<std::uint32_t>(rng.below(m));
    }
  }
  return addr;
}

// ---- pram.concurrent_read (E3) --------------------------------------------

MetricRow run_concurrent_read(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const core::QsmM model = cr_model(p);
  const std::uint32_t m = model.params().m;
  std::vector<engine::Word> memory(m);
  for (std::uint32_t a = 0; a < m; ++a) memory[a] = 1000 + a;
  const auto addr = read_pattern(params.get("pattern"), p, m, rng);
  const auto r = pram::simulate_cr_step(model, memory, addr, m);
  const double bound = bounds::cr_step_sim_qsm_m(p, m);
  return {
      {"m", static_cast<double>(m)},
      {"time", r.time},
      {"bound", bound},
      {"ratio", r.time / bound},
      {"direct_reads", static_cast<double>(r.direct_reads)},
      {"correct", r.correct ? 1.0 : 0.0},
  };
}

// ---- pram.central_reads (E19) ---------------------------------------------

MetricRow run_central_reads(const ParamSet& params, util::Xoshiro256&) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const core::QsmM model = cr_model(p);
  const std::uint32_t m = model.params().m;
  const std::vector<engine::Word> memory(m, 5);
  const std::vector<std::uint32_t> addr(p, 0);  // the all-same pattern
  const auto central = pram::simulate_cr_step(
      model, memory, addr, m, pram::CrDistribution::kCentralReads);
  const auto doubling = pram::simulate_cr_step(
      model, memory, addr, m, pram::CrDistribution::kStandardDoubling);
  return {
      {"m", static_cast<double>(m)},
      {"central_time", central.time},
      {"doubling_time", doubling.time},
      {"slowdown", doubling.time / central.time},
      {"lg_p", bounds::lg(p)},
      {"correct", central.correct && doubling.correct ? 1.0 : 0.0},
  };
}

// ---- pram.leader (E4) -----------------------------------------------------

MetricRow run_leader(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto m = static_cast<std::uint32_t>(params.get_int("m"));
  const auto leader = static_cast<std::uint32_t>(rng.below(p));
  const std::uint64_t seed = rng();
  const auto cr = pram::leader_concurrent_read(p, m, leader, seed);
  const auto er = pram::leader_exclusive_read(p, m, leader, seed);
  return {
      {"cr_steps", static_cast<double>(cr.steps)},
      {"er_steps", static_cast<double>(er.steps)},
      {"gap", er.time / cr.time},
      {"lb_formula", bounds::er_cr_separation(p, m)},
      {"correct", cr.correct && er.correct ? 1.0 : 0.0},
  };
}

// ---- pram.h_relation (E18) ------------------------------------------------

MetricRow run_h_relation(const ParamSet& params, util::Xoshiro256& rng) {
  const auto p = static_cast<std::uint32_t>(params.get_int("p"));
  const auto rel =
      sched::point_skew_relation(p, 8ull * p, params.get_double("hot"), rng);
  const auto h =
      static_cast<double>(std::max(rel.max_sent(), rel.max_received()));
  const auto array = pram::realize_h_relation_array(rel, rng());
  const auto retry = pram::realize_h_relation_crcw(rel, rng());
  return {
      {"n", static_cast<double>(rel.total_flits())},
      {"h", h},
      {"array_steps", static_cast<double>(array.steps)},
      {"retry_steps", static_cast<double>(retry.steps)},
      {"array_per_h", static_cast<double>(array.steps) / h},
      {"retry_per_h", static_cast<double>(retry.steps) / h},
      {"correct", array.delivered && retry.delivered ? 1.0 : 0.0},
  };
}

}  // namespace

void register_pram_scenarios(Registry& registry) {
  registry.add(
      {.name = "pram.concurrent_read",
       .description = "one CRCW PRAM(m) step on the QSM(m) vs p/m (E3)",
       .params = {{"p", "1024", "processors; m = max(2, sqrt(p)/2)"},
                  {"pattern", "random",
                   "all-same | round-robin | random | zipf"}},
       .run = run_concurrent_read});
  registry.add(
      {.name = "pram.central_reads",
       .description = "central reads vs the standard EREW doubling (E19)",
       .params = {{"p", "1024", "processors; m = max(2, sqrt(p)/2)"}},
       .run = run_central_reads});
  registry.add(
      {.name = "pram.leader",
       .description = "Leader Recognition: ER vs CR PRAM(m) steps (E4)",
       .params = {{"p", "1024", "processors (ROM cells)"},
                  {"m", "16", "shared memory cells"}},
       .run = run_leader});
  registry.add(
      {.name = "pram.h_relation",
       .description = "array and retry CRCW h-relations: steps vs h (E18)",
       .params = {{"p", "16", "processors, 8 messages each"},
                  {"hot", "0", "share of the messages one processor sends"}},
       .run = run_h_relation});
}

}  // namespace pbw::campaign
