#include "algos/reduce.hpp"

#include <algorithm>

#include "engine/error.hpp"
#include "engine/program.hpp"

namespace pbw::algos {
namespace {

engine::Word apply(ReduceOp op, engine::Word a, engine::Word b) {
  return op == ReduceOp::kSum ? a + b : (a ^ b);
}

std::uint32_t tree_rounds(std::uint32_t width, std::uint32_t arity) {
  std::uint32_t rounds = 0;
  std::uint64_t reach = 1;
  while (reach < width) {
    reach *= arity;
    ++rounds;
  }
  return rounds;
}

std::uint64_t ipow(std::uint64_t base, std::uint32_t exp) {
  std::uint64_t r = 1;
  for (std::uint32_t i = 0; i < exp; ++i) {
    if (r > (1ull << 40)) return r;
    r *= base;
  }
  return r;
}

class BspReduce final : public engine::SuperstepProgram {
 public:
  BspReduce(std::vector<engine::Word> inputs, std::uint32_t collectors,
            std::uint32_t arity, ReduceOp op)
      : inputs_(std::move(inputs)),
        p_(static_cast<std::uint32_t>(inputs_.size())),
        collectors_(std::min(collectors, p_)),
        arity_(std::max(2u, arity)),
        rounds_(tree_rounds(collectors_, arity_)),
        op_(op),
        funnel_(collectors_ < p_ ? 1u : 0u),
        partial_(p_, op == ReduceOp::kSum ? 0 : 0) {
    if (funnel_ == 0) partial_ = inputs_;
  }

  /// Every processor sends its input in the funnel superstep; after it
  /// only the collectors act.
  [[nodiscard]] std::uint32_t participants(std::uint64_t superstep) const override {
    return superstep < funnel_ ? p_ : collectors_;
  }

  bool step(engine::ProcContext& ctx) override {
    const auto id = ctx.id();
    const auto s = ctx.superstep();
    if (s < funnel_) {
      ctx.send(id % collectors_, inputs_[id],
               static_cast<engine::Slot>(id / collectors_ + 1));
      return true;
    }
    // Accumulate whatever arrived (funnel inputs or subtree partials).
    for (const auto& msg : ctx.inbox()) {
      partial_[id] = apply(op_, partial_[id], msg.payload);
      ctx.charge(1.0);
    }
    const std::uint64_t r = s - funnel_;
    if (r >= rounds_) return false;
    const std::uint64_t below = ipow(arity_, static_cast<std::uint32_t>(r));
    const std::uint64_t at = below * arity_;
    if (id % below == 0 && id % at != 0) {
      ctx.send(static_cast<engine::ProcId>(id - id % at), partial_[id], 1);
    }
    return true;
  }

  [[nodiscard]] engine::Word result() const { return partial_[0]; }

 private:
  std::vector<engine::Word> inputs_;
  std::uint32_t p_;
  std::uint32_t collectors_;
  std::uint32_t arity_;
  std::uint32_t rounds_;
  ReduceOp op_;
  std::uint32_t funnel_;
  std::vector<engine::Word> partial_;
};

class QsmReduce final : public engine::SuperstepProgram {
 public:
  QsmReduce(std::vector<engine::Word> inputs, std::uint32_t collectors,
            std::uint32_t arity, std::uint32_t m, ReduceOp op)
      : inputs_(std::move(inputs)),
        n_(static_cast<std::uint32_t>(inputs_.size())),
        collectors_(std::min(collectors, n_)),
        arity_(std::max(2u, arity)),
        rounds_(tree_rounds(collectors_, arity_)),
        m_(m),
        op_(op),
        partial_(n_, 0) {}

  void setup(engine::Machine& machine) override {
    machine.resize_shared(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      machine.poke_shared(i, inputs_[i]);
    }
  }

  /// Only the collectors act.
  [[nodiscard]] std::uint32_t participants(std::uint64_t /*superstep*/) const override {
    return collectors_;
  }

  bool step(engine::ProcContext& ctx) override {
    const auto id = ctx.id();
    const auto s = ctx.superstep();
    const std::uint32_t chunk = (n_ + collectors_ - 1) / collectors_;

    if (s == 0) {  // scan phase: collector j reads its block, staggered
      const std::uint64_t begin = static_cast<std::uint64_t>(id) * chunk;
      const std::uint64_t end = std::min<std::uint64_t>(begin + chunk, n_);
      for (std::uint64_t a = begin; a < end; ++a) {
        ctx.read(a, stagger_slot(id, a - begin, collectors_, m_));
      }
      return true;
    }
    if (s == 1) {  // local reduce; publish partial into own cell
      for (const engine::Word v : ctx.reads()) {
        partial_[id] = apply(op_, partial_[id], v);
        ctx.charge(1.0);
      }
      ctx.write(id, partial_[id]);
      return true;
    }
    // Tree rounds: read children (even offset), fold + write (odd offset).
    const std::uint64_t r = (s - 2) / 2;
    if (r >= rounds_) return false;
    const std::uint64_t below = ipow(arity_, static_cast<std::uint32_t>(r));
    const std::uint64_t at = below * arity_;
    const bool leader = id % at == 0;
    if ((s - 2) % 2 == 0) {
      if (leader) {
        for (std::uint32_t k = 1; k < arity_; ++k) {
          const std::uint64_t child = id + k * below;
          if (child < collectors_) ctx.read(child, k);
        }
      }
      return true;
    }
    if (leader) {
      for (const engine::Word v : ctx.reads()) {
        partial_[id] = apply(op_, partial_[id], v);
        ctx.charge(1.0);
      }
      ctx.write(id, partial_[id]);
    }
    return true;
  }

  [[nodiscard]] engine::Word result() const { return partial_[0]; }

 private:
  std::vector<engine::Word> inputs_;
  std::uint32_t n_;
  std::uint32_t collectors_;
  std::uint32_t arity_;
  std::uint32_t rounds_;
  std::uint32_t m_;
  ReduceOp op_;
  std::vector<engine::Word> partial_;
};

}  // namespace

engine::Word reduce_reference(const std::vector<engine::Word>& inputs, ReduceOp op) {
  engine::Word acc = 0;
  for (engine::Word v : inputs) acc = apply(op, acc, v);
  return acc;
}

AlgoResult reduce_bsp(const engine::CostModel& model,
                      const std::vector<engine::Word>& inputs,
                      std::uint32_t collectors, std::uint32_t arity, ReduceOp op,
                      engine::MachineOptions options) {
  if (inputs.size() != model.processors()) {
    throw engine::SimulationError("reduce_bsp: |inputs| != p");
  }
  BspReduce program(inputs, collectors, arity, op);
  engine::Machine machine(model, options);
  const auto run = machine.run(program);
  return AlgoResult{run.total_time, run.supersteps,
                    program.result() == reduce_reference(inputs, op)};
}

AlgoResult reduce_qsm(const engine::CostModel& model,
                      const std::vector<engine::Word>& inputs,
                      std::uint32_t collectors, std::uint32_t arity,
                      std::uint32_t m, ReduceOp op,
                      engine::MachineOptions options) {
  if (inputs.size() != model.processors()) {
    throw engine::SimulationError("reduce_qsm: |inputs| != p");
  }
  QsmReduce program(inputs, collectors, arity, m, op);
  engine::Machine machine(model, options);
  const auto run = machine.run(program);
  return AlgoResult{run.total_time, run.supersteps,
                    program.result() == reduce_reference(inputs, op)};
}

}  // namespace pbw::algos
