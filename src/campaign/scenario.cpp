#include "campaign/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace pbw::campaign {

const ParamSpec* Scenario::find_param(const std::string& param_name) const {
  for (const auto& spec : params) {
    if (spec.name == param_name) return &spec;
  }
  return nullptr;
}

bool Scenario::is_cost_only(const ParamSet& point,
                            const std::string& param) const {
  if (!replayable()) return false;
  if (cost_only_at) return cost_only_at(point, param);
  const ParamSpec* spec = find_param(param);
  return spec != nullptr && spec->cost_only;
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    register_table1_scenarios(*r);
    register_bench_scenarios(*r);
    register_grid_scenarios(*r);
    register_contour_scenarios(*r);
    register_sched_scenarios(*r);
    register_pram_scenarios(*r);
    register_aqt_scenarios(*r);
    return r;
  }();
  return *registry;
}

void Registry::add(Scenario scenario) {
  if (scenario.name.empty() || !scenario.run) {
    throw std::invalid_argument("Registry: scenario needs a name and a run fn");
  }
  if (find(scenario.name) != nullptr) {
    throw std::invalid_argument("Registry: duplicate scenario '" +
                                scenario.name + "'");
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* Registry::find(const std::string& name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Scenario*> Registry::all() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Scenario* a, const Scenario* b) {
    return a->name < b->name;
  });
  return out;
}

}  // namespace pbw::campaign
