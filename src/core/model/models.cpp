#include "core/model/models.hpp"

#include <algorithm>
#include <cstdio>

#include "core/model/charge.hpp"

namespace pbw::core {
namespace {

std::string format_name(const char* base, const ModelParams& params, bool local,
                        const char* suffix = "") {
  char buf[96];
  if (local) {
    std::snprintf(buf, sizeof buf, "%s(g=%g,L=%g,p=%u)%s", base, params.g,
                  params.L, params.p, suffix);
  } else {
    std::snprintf(buf, sizeof buf, "%s(m=%u,L=%g,p=%u)%s", base, params.m,
                  params.L, params.p, suffix);
  }
  return buf;
}

}  // namespace

// Each model's superstep_cost is the max over its cost_components, and is
// computed that way: the component split is the single source of truth, so
// the attribution the tracer emits can never drift from the charge.  The
// raw-counter -> term derivations come from core/model/charge.hpp, the
// same helpers the non-virtual batch-recost functors use, so the two
// charging paths cannot diverge on how a term is computed.

engine::SimTime BspG::superstep_cost(const engine::SuperstepStats& stats) const {
  return cost_components(stats).max_term();
}

engine::CostComponents BspG::cost_components(
    const engine::SuperstepStats& stats) const {
  engine::CostComponents c;
  c.w = stats.max_work;
  c.gh = params_.g * charge::flit_h(stats.max_sent, stats.max_received);
  c.L = params_.L;
  return c;
}

std::string BspG::name() const { return format_name("BSP", params_, true); }

engine::SimTime BspM::superstep_cost(const engine::SuperstepStats& stats) const {
  return cost_components(stats).max_term();
}

engine::CostComponents BspM::cost_components(
    const engine::SuperstepStats& stats) const {
  engine::CostComponents c;
  c.w = stats.max_work;
  c.h = charge::flit_h(stats.max_sent, stats.max_received);
  c.cm = charge::cm(stats.slot_counts, params_.m, penalty_);
  c.L = params_.L;
  return c;
}

std::string BspM::name() const {
  return format_name("BSP", params_, false,
                     penalty_ == Penalty::kLinear ? "[lin]" : "[exp]");
}

engine::SimTime QsmG::superstep_cost(const engine::SuperstepStats& stats) const {
  return cost_components(stats).max_term();
}

engine::CostComponents QsmG::cost_components(
    const engine::SuperstepStats& stats) const {
  // QSM charges h = max(1, max_i(r_i, w_i)): even a communication-free
  // phase pays one gap unit, so every superstep costs at least g.
  engine::CostComponents c;
  c.w = stats.max_work;
  c.gh = params_.g * charge::mem_h_floor1(stats.max_reads, stats.max_writes);
  c.kappa = static_cast<double>(stats.kappa);
  return c;
}

std::string QsmG::name() const { return format_name("QSM", params_, true); }

engine::SimTime QsmM::superstep_cost(const engine::SuperstepStats& stats) const {
  return cost_components(stats).max_term();
}

engine::CostComponents QsmM::cost_components(
    const engine::SuperstepStats& stats) const {
  engine::CostComponents c;
  c.w = stats.max_work;
  c.h = charge::mem_h(stats.max_reads, stats.max_writes);
  c.cm = charge::cm(stats.slot_counts, params_.m, penalty_);
  c.kappa = static_cast<double>(stats.kappa);
  return c;
}

std::string QsmM::name() const {
  return format_name("QSM", params_, false,
                     penalty_ == Penalty::kLinear ? "[lin]" : "[exp]");
}

engine::SimTime SelfSchedulingBspM::superstep_cost(
    const engine::SuperstepStats& stats) const {
  return cost_components(stats).max_term();
}

engine::CostComponents SelfSchedulingBspM::cost_components(
    const engine::SuperstepStats& stats) const {
  engine::CostComponents c;
  c.w = stats.max_work;
  c.h = charge::flit_h(stats.max_sent, stats.max_received);
  c.cm = charge::self_sched_cm(stats.total_flits, params_.m);
  c.L = params_.L;
  return c;
}

std::string SelfSchedulingBspM::name() const {
  return format_name("SS-BSP", params_, false);
}

}  // namespace pbw::core
