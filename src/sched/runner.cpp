#include "sched/runner.hpp"

#include <algorithm>

#include "engine/program.hpp"
#include "replay/recorder.hpp"
#include "sched/count_n.hpp"

namespace pbw::sched {
namespace {

/// One-superstep program: every processor injects its relation items at
/// the scheduled slots; receivers tally delivered flits for verification.
class SendProgram final : public engine::SuperstepProgram {
 public:
  SendProgram(const Relation& rel, const SlotSchedule& sched)
      : rel_(rel), sched_(sched), received_(rel.p(), 0) {}

  bool step(engine::ProcContext& ctx) override {
    const auto id = ctx.id();
    if (ctx.superstep() == 0) {
      const auto& items = rel_.items(id);
      for (std::size_t k = 0; k < items.size(); ++k) {
        ctx.send(items[k].dst, static_cast<engine::Word>(id),
                 sched_.start[id][k], items[k].length);
      }
      return true;
    }
    for (const auto& msg : ctx.inbox()) received_[id] += msg.length;
    return false;
  }

  [[nodiscard]] std::uint64_t total_received() const {
    std::uint64_t total = 0;
    for (std::uint64_t r : received_) total += r;
    return total;
  }

 private:
  const Relation& rel_;
  const SlotSchedule& sched_;
  std::vector<std::uint64_t> received_;
};

}  // namespace

RoutingResult route_relation(const engine::CostModel& model, const Relation& rel,
                             const SlotSchedule& sched, std::uint32_t m, double L,
                             bool count_n, engine::MachineOptions options) {
  RoutingResult result;

  // The send superstep is read back off the run's tape: the recorder that
  // captures the run anyway (so a --trace file still shows it), else a
  // local one.
  replay::TapeRecorder local;
  if (options.tape_recorder == nullptr &&
      replay::current_tape_recorder() == nullptr) {
    options.tape_recorder = &local;
  }
  SendProgram program(rel, sched);
  engine::Machine machine(model, options);
  const engine::RunResult run = machine.run(program);
  const replay::StatsTape& tape = *machine.tape();

  // The first superstep is the send; the trailing superstep only drains
  // inboxes and is charged max(w, L)=L by every model — the paper's
  // accounting ends when the last message lands, so we report the send
  // superstep's cost.
  result.send_time =
      tape.empty() ? run.total_time : model.superstep_cost(tape.step(0));
  if (!tape.empty()) {
    for (const std::uint64_t m_t : tape.slots(0)) {
      result.max_mt = std::max(result.max_mt, m_t);
    }
  }
  result.within_limit = result.max_mt <= m;
  result.delivered = program.total_received() == rel.total_flits();

  if (count_n) {
    std::vector<std::uint64_t> x(rel.p());
    for (std::uint32_t i = 0; i < rel.p(); ++i) x[i] = rel.sent_by(i);
    const CountNResult count = count_and_broadcast(
        model, x, m, static_cast<std::uint32_t>(L), options);
    result.count_time = count.time;
  }
  result.total_time = result.send_time + result.count_time;

  result.optimal = core::bounds::routing_bsp_m_optimal(
      rel.total_flits(), rel.max_sent(), rel.max_received(), m, L);
  result.ratio = result.optimal > 0.0 ? result.total_time / result.optimal : 0.0;
  return result;
}

}  // namespace pbw::sched
