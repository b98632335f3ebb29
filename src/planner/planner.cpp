#include "planner/planner.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"

namespace pbw::planner {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
void require_axis(const std::vector<T>& axis, const char* name, T floor) {
  if (axis.empty()) {
    throw std::invalid_argument(std::string("Envelope: empty ") + name +
                                " axis");
  }
  T prev = floor;
  bool first = true;
  for (const T v : axis) {
    if (v < floor) {
      throw std::invalid_argument(std::string("Envelope: ") + name +
                                  " value below " + num(double(floor)));
    }
    if (!first && v <= prev) {
      throw std::invalid_argument(std::string("Envelope: ") + name +
                                  " axis must be strictly increasing");
    }
    prev = v;
    first = false;
  }
}

/// Where a grid point sits inside its family's block: the family's offset
/// into the flat grid plus the per-axis indices, recoverable from the flat
/// index because the grid nests the read axes in a fixed order.  Turns a
/// charged index back into its CostPointSpec, and lets the marginal
/// computation step to a value-neighbour on one axis by pure index
/// arithmetic instead of re-searching the grid.
struct GridPosition {
  replay::ModelFamily family = replay::ModelFamily::kBspG;
  std::size_t block_offset = 0;
  std::array<std::size_t, 4> sizes = {1, 1, 1, 1};    // g, L, m, penalty
  std::array<std::size_t, 4> strides = {0, 0, 0, 0};  // in flat-grid points
  std::array<std::size_t, 4> at = {0, 0, 0, 0};       // best point's indices
};

GridPosition locate(const replay::CostGrid& grid, std::size_t flat_index) {
  std::size_t offset = 0;
  for (const replay::ModelFamily family : grid.families) {
    const auto sizes = grid.axis_sizes(family);
    const std::size_t block = sizes[0] * sizes[1] * sizes[2] * sizes[3];
    if (flat_index < offset + block) {
      GridPosition pos;
      pos.family = family;
      pos.block_offset = offset;
      pos.sizes = sizes;
      pos.strides = {sizes[1] * sizes[2] * sizes[3], sizes[2] * sizes[3],
                     sizes[3], 1};
      std::size_t rest = flat_index - offset;
      for (int axis = 0; axis < 4; ++axis) {
        pos.at[axis] = rest / pos.strides[axis];
        rest %= pos.strides[axis];
      }
      return pos;
    }
    offset += block;
  }
  throw std::logic_error("planner: grid index out of range");
}

/// The CostPointSpec at `pos`; axes its family does not read stay at the
/// defaults.
replay::CostPointSpec spec_at(const Envelope& e, const GridPosition& pos) {
  replay::CostPointSpec spec;
  spec.family = pos.family;
  if (replay::reads_g(pos.family)) spec.g = e.g[pos.at[0]];
  if (replay::reads_L(pos.family)) spec.L = e.L[pos.at[1]];
  if (replay::reads_m(pos.family)) spec.m = e.m[pos.at[2]];
  if (replay::reads_penalty(pos.family)) spec.penalty = e.penalties[pos.at[3]];
  return spec;
}

PlannedPoint planned(const Envelope& e, std::span<const engine::SimTime> costs,
                     std::size_t index) {
  return {spec_at(e, locate(e.grid(), index)), costs[index], index};
}

/// Finite difference along one axis of the best point's block.  `axis` is
/// the nesting level (0 = g, 2 = m), `values` the envelope's axis values.
template <typename T>
Marginal differentiate(const GridPosition& pos, int axis,
                       const std::vector<T>& values,
                       std::span<const engine::SimTime> costs) {
  Marginal marginal;
  if (pos.sizes[axis] < 2) return marginal;  // axis unread or single-valued
  const std::size_t i = pos.at[axis];
  const std::size_t lo = i > 0 ? i - 1 : i;
  const std::size_t hi = i + 1 < pos.sizes[axis] ? i + 1 : i;
  const auto cost_at = [&](std::size_t k) {
    std::size_t flat = pos.block_offset;
    for (int a = 0; a < 4; ++a) {
      flat += (a == axis ? k : pos.at[a]) * pos.strides[a];
    }
    return static_cast<double>(costs[flat]);
  };
  marginal.defined = true;
  marginal.value = (cost_at(hi) - cost_at(lo)) /
                   (static_cast<double>(values[hi]) -
                    static_cast<double>(values[lo]));
  return marginal;
}

}  // namespace

void Envelope::check() const {
  if (families.empty()) {
    throw std::invalid_argument("Envelope: no model families");
  }
  for (std::size_t i = 0; i < families.size(); ++i) {
    for (std::size_t j = i + 1; j < families.size(); ++j) {
      if (families[i] == families[j]) {
        throw std::invalid_argument(std::string("Envelope: duplicate family ") +
                                    family_name(families[i]));
      }
    }
  }
  require_axis(g, "g", 1.0);
  require_axis(L, "L", 1.0);
  require_axis(m, "m", std::uint32_t{1});
  if (penalties.empty()) {
    throw std::invalid_argument("Envelope: empty penalty set");
  }
  if (penalties.size() > 2 ||
      (penalties.size() == 2 && penalties[0] == penalties[1])) {
    throw std::invalid_argument("Envelope: duplicate penalty");
  }
  if (!(frontier_percent >= 0.0)) {
    throw std::invalid_argument("Envelope: frontier_percent must be >= 0");
  }
  // grid_size() without overflow: each factor is checked against the room
  // the cap leaves before it is multiplied in, so total + block never
  // exceeds kMaxGridPoints.
  std::size_t total = 0;
  for (const replay::ModelFamily family : families) {
    std::size_t block = 1;
    for (const std::size_t n : grid().axis_sizes(family)) {
      if (n > (kMaxGridPoints - total) / block) {
        throw std::invalid_argument("Envelope: more than " +
                                    std::to_string(kMaxGridPoints) +
                                    " grid points");
      }
      block *= n;
    }
    total += block;
  }
}

replay::CostGrid Envelope::grid() const noexcept {
  return {families, g, L, m, penalties};
}

std::size_t Envelope::grid_size() const noexcept { return grid().size(); }

std::vector<replay::CostPointSpec> Envelope::enumerate() const {
  check();
  std::vector<replay::CostPointSpec> points(grid_size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    points[k] = spec_at(*this, locate(grid(), k));
  }
  return points;
}

std::string Envelope::canonical_key() const {
  std::string key = "families=";
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (i > 0) key += ",";
    key += family_name(families[i]);
  }
  key += ";g=";
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (i > 0) key += ",";
    key += num(g[i]);
  }
  key += ";L=";
  for (std::size_t i = 0; i < L.size(); ++i) {
    if (i > 0) key += ",";
    key += num(L[i]);
  }
  key += ";m=";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) key += ",";
    key += std::to_string(m[i]);
  }
  key += ";penalty=";
  for (std::size_t i = 0; i < penalties.size(); ++i) {
    if (i > 0) key += ",";
    key += core::penalty_name(penalties[i]);
  }
  key += ";frontier=" + num(frontier_percent) + "," +
         std::to_string(max_frontier);
  return key;
}

std::uint64_t fingerprint_tape(const replay::StatsTape& tape) {
  obs::MetricsRegistry::global()
      .counter("planner.tape_bytes_hashed")
      .add(tape.fingerprint_bytes());
  return tape.fingerprint();
}

PlanResult solve(const replay::StatsTape& tape, const Envelope& envelope,
                 util::ThreadPool* pool,
                 std::optional<std::uint64_t> tape_fingerprint) {
  PBW_SPAN("planner.solve");
  envelope.check();
  const replay::CostGrid grid = envelope.grid();
  const std::size_t points = grid.size();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("planner.grid_points").add(points);
  std::vector<engine::SimTime> costs;
  replay::BatchInfo batch_info;
  {
    PBW_SPAN("planner.recost_batch");
    metrics.counter("planner.tape_passes").add(1);
    costs = replay::recost_batch(tape, {&grid, 1}, pool, &batch_info);
  }

  PlanResult result;
  result.grid_points = points;
  result.supersteps = tape.size();
  result.tape_fingerprint =
      tape_fingerprint ? *tape_fingerprint : fingerprint_tape(tape);
  result.simd_path = simd::path_name(batch_info.path);
  result.batch_threads = batch_info.threads;

  // Argmin; ties to the lowest index for determinism.  A NaN charge never
  // wins (every comparison with it is false), matching max_term()'s
  // poisoning rule: a poisoned point simply cannot be the plan.
  std::size_t best = 0;
  for (std::size_t i = 1; i < costs.size(); ++i) {
    if (costs[i] < costs[best]) best = i;
  }
  result.best = planned(envelope, costs, best);

  // The frontier, cheapest first with ties by index, then capped: only
  // the points kept become PlannedPoints.
  const double threshold =
      static_cast<double>(costs[best]) * (1.0 + envelope.frontier_percent / 100.0);
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (static_cast<double>(costs[i]) <= threshold) frontier.push_back(i);
  }
  result.frontier_total = frontier.size();
  std::stable_sort(frontier.begin(), frontier.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] < costs[b];
                   });
  if (frontier.size() > envelope.max_frontier) {
    frontier.resize(envelope.max_frontier);
  }
  for (const std::size_t i : frontier) {
    result.frontier.push_back(planned(envelope, costs, i));
  }

  // Dominant-term attribution at the optimum: each superstep's whole max
  // charge lands in the bucket of the term that bound it.  The largest
  // bucket wins, ties to the earlier term.
  const engine::TermTotals attribution =
      replay::term_totals(tape, *make_model(tape.p, result.best.spec));
  result.term_totals = attribution.by_term;
  const std::size_t dominant = result.term_totals.dominant_index();
  result.dominant_term = engine::CostComponents::kNames[dominant];
  result.dominant_share =
      attribution.total > 0.0
          ? result.term_totals.terms()[dominant] / attribution.total
          : 0.0;
  result.verdict = tape.empty() ? "empty-tape"
                                : verdict_for_term(result.dominant_term);

  const GridPosition pos = locate(grid, best);
  result.dcost_dg = differentiate(pos, 0, envelope.g, costs);
  result.dcost_dm = differentiate(pos, 2, envelope.m, costs);
  return result;
}

std::unique_ptr<core::ModelBase> make_model(std::uint32_t p,
                                            const replay::CostPointSpec& spec) {
  core::ModelParams params;
  params.p = p > 0 ? p : 1;  // synthetic tapes may carry p = 0
  params.g = spec.g;
  params.L = spec.L;
  params.m = spec.m;
  switch (spec.family) {
    case replay::ModelFamily::kBspG:
      return std::make_unique<core::BspG>(params);
    case replay::ModelFamily::kBspM:
      return std::make_unique<core::BspM>(params, spec.penalty);
    case replay::ModelFamily::kQsmG:
      return std::make_unique<core::QsmG>(params);
    case replay::ModelFamily::kQsmM:
      return std::make_unique<core::QsmM>(params, spec.penalty);
    case replay::ModelFamily::kSelfSchedulingBspM:
      return std::make_unique<core::SelfSchedulingBspM>(params);
  }
  throw std::invalid_argument("planner: unknown model family");
}

const char* family_name(replay::ModelFamily family) noexcept {
  switch (family) {
    case replay::ModelFamily::kBspG: return "bsp-g";
    case replay::ModelFamily::kBspM: return "bsp-m";
    case replay::ModelFamily::kQsmG: return "qsm-g";
    case replay::ModelFamily::kQsmM: return "qsm-m";
    case replay::ModelFamily::kSelfSchedulingBspM: return "ss-bsp-m";
  }
  return "?";
}

std::optional<replay::ModelFamily> family_from_name(
    std::string_view name) noexcept {
  if (name == "bsp-g") return replay::ModelFamily::kBspG;
  if (name == "bsp-m") return replay::ModelFamily::kBspM;
  if (name == "qsm-g") return replay::ModelFamily::kQsmG;
  if (name == "qsm-m") return replay::ModelFamily::kQsmM;
  if (name == "ss-bsp-m") return replay::ModelFamily::kSelfSchedulingBspM;
  return std::nullopt;
}

std::optional<core::Penalty> penalty_from_name(std::string_view name) {
  try {
    return core::parse_penalty(name);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

const char* verdict_for_term(std::string_view term) noexcept {
  if (term == "w") return "compute-bound";
  if (term == "gh" || term == "h") return "local-bandwidth-bound";
  if (term == "cm") return "global-bandwidth-bound";
  if (term == "kappa") return "contention-bound";
  return "latency-bound";
}

}  // namespace pbw::planner
