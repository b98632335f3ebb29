// The paper's charges, written a second time for differential tests.
//
// Every charge path of the program (the virtual cost_components(), scalar
// replay::recost, the SIMD batch kernels, the planner) derives its terms
// from src/core/model/charge.hpp, so comparing those paths with each other
// cannot catch a wrong helper.  This header restates Section 2 of the
// paper (PAPER.md) without including anything from src/: one line per
// model family, c_m summed in slot order and a run summed in superstep
// order, so its totals compare with the program's bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pbw::oracle {

enum class Penalty { kLinear, kExponential };

/// One superstep, in the paper's quantities.
struct Step {
  double w = 0.0;              ///< max_i w_i, local work
  std::uint64_t sent = 0;      ///< max_i s_i, flits sent by one processor
  std::uint64_t received = 0;  ///< max_i r_i, flits received by one processor
  std::uint64_t reads = 0;     ///< max_i shared-memory reads of one processor
  std::uint64_t writes = 0;    ///< max_i shared-memory writes of one processor
  std::uint64_t kappa = 0;     ///< largest contention at one location
  std::uint64_t n = 0;         ///< flits injected by all processors
  std::vector<std::uint64_t> m_t;  ///< injections per slot, in slot order
};

/// f_m(m_t): 0 for an empty slot, 1 up to the limit m, and above it the
/// linear m_t/m (lower bounds) or the exponential e^{m_t/m - 1} (upper
/// bounds).
inline double f_m(std::uint64_t m_t, std::uint32_t m, Penalty penalty) {
  if (m_t == 0) return 0.0;
  if (m_t <= m) return 1.0;
  const double x = static_cast<double>(m_t) / static_cast<double>(m);
  return penalty == Penalty::kLinear ? x : std::exp(x - 1.0);
}

/// c_m = sum_t f_m(m_t), in slot order.
inline double c_m(const Step& s, std::uint32_t m, Penalty penalty) {
  double c = 0.0;
  for (const std::uint64_t m_t : s.m_t) c += f_m(m_t, m, penalty);
  return c;
}

/// h of message passing: max(s_i, r_i).  h of shared memory: max(r_i, w_i).
inline double h_msg(const Step& s) { return static_cast<double>(std::max(s.sent, s.received)); }
inline double h_mem(const Step& s) { return static_cast<double>(std::max(s.reads, s.writes)); }

// The superstep charges of Section 2, one line per model.
inline double bsp_g(const Step& s, double g, double L) { return std::max({s.w, g * h_msg(s), L}); }
inline double bsp_m(const Step& s, std::uint32_t m, double L, Penalty pen) { return std::max({s.w, h_msg(s), c_m(s, m, pen), L}); }
inline double qsm_g(const Step& s, double g) { return std::max({s.w, g * std::max(1.0, h_mem(s)), static_cast<double>(s.kappa)}); }
inline double qsm_m(const Step& s, std::uint32_t m, Penalty pen) { return std::max({s.w, h_mem(s), c_m(s, m, pen), static_cast<double>(s.kappa)}); }
inline double ss_bsp_m(const Step& s, std::uint32_t m, double L) { return std::max({s.w, h_msg(s), static_cast<double>(s.n) / static_cast<double>(m), L}); }

/// A run's charge: the superstep charges summed in superstep order.
template <typename Charge>
double run_total(const std::vector<Step>& steps, Charge&& charge) {
  double total = 0.0;
  for (const Step& s : steps) total += charge(s);
  return total;
}

}  // namespace pbw::oracle
