// Non-virtual charge kernels shared by the cost models and batch recost.
//
// The raw-counter -> term helpers are what the virtual cost_components()
// of core/model/models.cpp charges with, and the batch-recost kernels
// (replay/batch.cpp, replay/batch_lanes.hpp) precompute their term streams
// with the same helpers, so the two paths cannot diverge on how a term is
// derived.  Each functor runs the `x > v ? x : v` chain in the field order
// of engine::CostComponents::max_term (w, gh, h, cm, kappa, L), skipping
// the terms its model never charges, so it is bit for bit the max_term()
// of the matching cost_components().  cm() is the only sum of the
// aggregate charge in the tree: the models, the batch recost and the
// schedule evaluator all call it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/model/penalty.hpp"

namespace pbw::core::charge {

/// h of the message-passing models: max(s_i, r_i) in flits.
[[nodiscard]] inline double flit_h(std::uint64_t sent,
                                   std::uint64_t received) noexcept {
  return static_cast<double>(sent > received ? sent : received);
}

/// h of QSM(m): max(r_i, w_i) in shared-memory requests.
[[nodiscard]] inline double mem_h(std::uint64_t reads,
                                  std::uint64_t writes) noexcept {
  return static_cast<double>(reads > writes ? reads : writes);
}

/// h of QSM(g): max(1, r_i, w_i), so an idle superstep still pays g.
[[nodiscard]] inline double mem_h_floor1(std::uint64_t reads,
                                         std::uint64_t writes) noexcept {
  const double h = mem_h(reads, writes);
  return h > 1.0 ? h : 1.0;
}

/// c_m of BSP(m) and QSM(m): sum_t f_m(m_t) over a superstep's occupied
/// slots, summed in slot order (Section 2).  Throws std::invalid_argument
/// when m == 0, whether or not there are slots.
[[nodiscard]] inline double cm(std::span<const std::uint64_t> slots,
                               std::uint32_t m, Penalty penalty) {
  if (m == 0) throw std::invalid_argument("charge::cm: m == 0");
  double c = 0.0;
  for (const std::uint64_t m_t : slots) c += overload_charge(m_t, m, penalty);
  return c;
}

/// c_m of self-scheduling BSP(m): n/m.
[[nodiscard]] inline double self_sched_cm(std::uint64_t flits,
                                          std::uint32_t m) noexcept {
  return static_cast<double>(flits) / static_cast<double>(m);
}

[[nodiscard]] inline double chain(double x, double v) noexcept {
  return x > v ? x : v;
}

/// BSP(g): max(w, g*h, L).
struct BspG {
  double g = 1.0;
  double L = 1.0;
  [[nodiscard]] double operator()(double w, double h) const noexcept {
    return chain(L, chain(g * h, w));
  }
};

/// BSP(m): max(w, h, c_m, L).
struct BspM {
  double L = 1.0;
  [[nodiscard]] double operator()(double w, double h,
                                  double cm) const noexcept {
    return chain(L, chain(cm, chain(h, w)));
  }
};

/// QSM(g): max(w, g*h1, kappa), h1 from mem_h_floor1.
struct QsmG {
  double g = 1.0;
  [[nodiscard]] double operator()(double w, double h1,
                                  double kappa) const noexcept {
    return chain(kappa, chain(g * h1, w));
  }
};

/// QSM(m): max(w, h, c_m, kappa).
struct QsmM {
  [[nodiscard]] double operator()(double w, double h, double cm,
                                  double kappa) const noexcept {
    return chain(kappa, chain(cm, chain(h, w)));
  }
};

/// Self-scheduling BSP(m): max(w, h, n/m, L).
struct SelfSchedulingBspM {
  double m = 1.0;
  double L = 1.0;
  [[nodiscard]] double operator()(double w, double h,
                                  double flits) const noexcept {
    return chain(L, chain(flits / m, chain(h, w)));
  }
};

}  // namespace pbw::core::charge
