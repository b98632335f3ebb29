// The four cost models of the paper, plus the self-scheduling BSP(m).
//
//   BSP(g):  T = max(w, g*h, L)           h = max_i max(s_i, r_i)
//   BSP(m):  T = max(w, h, c_m, L)        c_m = sum_t f_m(m_t)
//   QSM(g):  T = max(w, g*h, kappa)       h = max(1, max_i max(r_i, w_i))
//   QSM(m):  T = max(w, h, kappa, c_m)
//   self-scheduling BSP(m):  T = max(w, h, n/m, L)
//
// Section 6's scheduling theorems justify replacing BSP(m) by the
// self-scheduling variant in most situations; the sched.selfsched
// scenario (E11) measures the (1+eps) gap between the two.
#pragma once

#include <memory>
#include <string>

#include "core/model/params.hpp"
#include "core/model/penalty.hpp"
#include "engine/cost.hpp"

namespace pbw::core {

/// Common base holding the parameters.
class ModelBase : public engine::CostModel {
 public:
  explicit ModelBase(ModelParams params) : params_(params) { params_.check(); }
  [[nodiscard]] std::uint32_t processors() const override { return params_.p; }
  [[nodiscard]] const ModelParams& params() const noexcept { return params_; }

 protected:
  ModelParams params_;
};

/// The BSP model of Valiant with per-processor gap g (locally limited).
class BspG final : public ModelBase {
 public:
  using ModelBase::ModelBase;
  [[nodiscard]] engine::SimTime superstep_cost(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] engine::CostComponents cost_components(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<engine::CostModel> clone() const override {
    return std::make_unique<BspG>(*this);
  }
};

/// The BSP(m) model defined in Section 2 (globally limited).
class BspM final : public ModelBase {
 public:
  BspM(ModelParams params, Penalty penalty = Penalty::kExponential)
      : ModelBase(params), penalty_(penalty) {}
  [[nodiscard]] engine::SimTime superstep_cost(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] engine::CostComponents cost_components(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<engine::CostModel> clone() const override {
    return std::make_unique<BspM>(*this);
  }
  [[nodiscard]] Penalty penalty() const noexcept { return penalty_; }

 private:
  Penalty penalty_;
};

/// The Queuing Shared Memory model with per-processor gap g.
class QsmG final : public ModelBase {
 public:
  using ModelBase::ModelBase;
  [[nodiscard]] engine::SimTime superstep_cost(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] engine::CostComponents cost_components(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<engine::CostModel> clone() const override {
    return std::make_unique<QsmG>(*this);
  }
};

/// The QSM(m) model defined in Section 2 (globally limited).
class QsmM final : public ModelBase {
 public:
  QsmM(ModelParams params, Penalty penalty = Penalty::kExponential)
      : ModelBase(params), penalty_(penalty) {}
  [[nodiscard]] engine::SimTime superstep_cost(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] engine::CostComponents cost_components(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<engine::CostModel> clone() const override {
    return std::make_unique<QsmM>(*this);
  }
  [[nodiscard]] Penalty penalty() const noexcept { return penalty_; }

 private:
  Penalty penalty_;
};

/// The self-scheduling BSP(m): ignores injection slots and charges
/// max(w, h, n/m, L) for a superstep transmitting n flits (Section 2,
/// "A simplified cost metric").
class SelfSchedulingBspM final : public ModelBase {
 public:
  using ModelBase::ModelBase;
  [[nodiscard]] engine::SimTime superstep_cost(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] engine::CostComponents cost_components(
      const engine::SuperstepStats& stats) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<engine::CostModel> clone() const override {
    return std::make_unique<SelfSchedulingBspM>(*this);
  }
};

}  // namespace pbw::core
