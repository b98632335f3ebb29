// Overload penalty functions f_m for the globally-limited models.
//
// Section 2: f_m(m_t) = 0 when m_t = 0, = 1 when 1 <= m_t <= m, and when
// m_t > m it is an increasing function with f_m(m_t) >= m_t/m.  The paper
// uses the linear charge for lower bounds and the exponential charge
// e^{m_t/m - 1} for upper bounds ("the breaking point at which the
// performance of the network deteriorates drastically").
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "engine/types.hpp"

namespace pbw::core {

enum class Penalty {
  kLinear,       ///< f_m(m_t) = m_t / m for m_t > m (lower-bound model)
  kExponential,  ///< f_m(m_t) = e^{m_t/m - 1} for m_t > m (upper-bound model)
};

/// f_m(m_t) for aggregate limit m under the given penalty regime.
[[nodiscard]] inline engine::SimTime overload_charge(std::uint64_t m_t,
                                                     std::uint32_t m,
                                                     Penalty penalty) {
  // Callers that bypass ModelParams::check() (e.g. raw m fed to the
  // schedule evaluator) would otherwise divide by zero and poison every
  // downstream cost with inf/NaN.
  if (m == 0) throw std::invalid_argument("overload_charge: m == 0");
  if (m_t == 0) return 0.0;
  if (m_t <= m) return 1.0;
  const double ratio = static_cast<double>(m_t) / static_cast<double>(m);
  switch (penalty) {
    case Penalty::kLinear:
      return ratio;
    case Penalty::kExponential:
      return std::exp(ratio - 1.0);
  }
  return ratio;  // unreachable
}

[[nodiscard]] inline std::string penalty_name(Penalty penalty) {
  return penalty == Penalty::kLinear ? "linear" : "exp";
}

/// The penalty `name` spells, as penalty_name writes it; any other name
/// throws std::invalid_argument naming it.
[[nodiscard]] inline Penalty parse_penalty(std::string_view name) {
  if (name == "linear") return Penalty::kLinear;
  if (name == "exp") return Penalty::kExponential;
  throw std::invalid_argument("unknown penalty '" + std::string(name) +
                              "' (linear | exp)");
}

}  // namespace pbw::core
