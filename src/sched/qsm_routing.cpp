#include "sched/qsm_routing.hpp"

#include <algorithm>
#include <numeric>

#include "core/bounds.hpp"
#include "engine/error.hpp"
#include "engine/program.hpp"
#include "replay/recorder.hpp"
#include "sched/senders.hpp"

namespace pbw::sched {
namespace {

/// Two-phase mailbox routing: writes at the given schedule's slots, reads
/// at an offline-optimal staggering of the reverse (receive-side)
/// relation.  In the full protocol the receivers learn their in-degree
/// from the same counting phase that computes n; here the harness
/// precomputes the mailbox layout, which does not change any charged
/// superstep (layout arithmetic is free local work in the model).
class QsmRouteProgram final : public engine::SuperstepProgram {
 public:
  QsmRouteProgram(const Relation& rel, const SlotSchedule& sched)
      : rel_(rel), sched_(sched), received_(rel.p(), 0) {
    const std::uint32_t p = rel.p();
    // Mailbox region per destination: base[d] .. base[d] + y_d.
    std::vector<std::uint64_t> indegree(p, 0);
    for (std::uint32_t src = 0; src < p; ++src) {
      for (const auto& item : rel.items(src)) {
        if (item.length != 1) {
          throw engine::SimulationError("route_relation_qsm: unit messages only");
        }
        ++indegree[item.dst];
      }
    }
    base_.resize(p + 1, 0);
    std::partial_sum(indegree.begin(), indegree.end(), base_.begin() + 1);
    cells_ = base_[p];

    // Assign each message its mailbox cell (arrival order within region).
    std::vector<std::uint64_t> cursor(base_.begin(), base_.end() - 1);
    cell_of_.resize(p);
    for (std::uint32_t src = 0; src < p; ++src) {
      cell_of_[src].reserve(rel.items(src).size());
      for (const auto& item : rel.items(src)) {
        cell_of_[src].push_back(cursor[item.dst]++);
      }
    }

    // Read-side staggering: the reverse relation (who receives how much)
    // laid out on the offline ring, one read per (receiver, slot).
    Relation reverse(p);
    for (std::uint32_t d = 0; d < p; ++d) {
      for (std::uint64_t k = 0; k < indegree[d]; ++k) reverse.add(d, d);
    }
    // m is only needed for the ring size; recover it from the forward
    // schedule evaluation context via max occupancy of the write side —
    // the caller passes the same m to evaluate; we store reads per ring of
    // the reverse offline schedule computed in route_relation_qsm().
    reverse_ = std::move(reverse);
  }

  void set_read_schedule(SlotSchedule read_sched) {
    read_sched_ = std::move(read_sched);
  }
  [[nodiscard]] const Relation& reverse() const { return reverse_; }

  void setup(engine::Machine& machine) override {
    machine.resize_shared(std::max<std::uint64_t>(cells_, 1), -1);
  }

  bool step(engine::ProcContext& ctx) override {
    const auto id = ctx.id();
    switch (ctx.superstep()) {
      case 0: {  // write phase at the forward schedule's slots
        const auto& items = rel_.items(id);
        for (std::size_t k = 0; k < items.size(); ++k) {
          ctx.write(cell_of_[id][k], static_cast<engine::Word>(id),
                    sched_.start[id][k]);
        }
        return true;
      }
      case 1: {  // read phase at the reverse schedule's slots
        const std::uint64_t mine = base_[id + 1] - base_[id];
        for (std::uint64_t k = 0; k < mine; ++k) {
          ctx.read(base_[id] + k, read_sched_.start[id][k]);
        }
        return true;
      }
      default:
        for (const engine::Word v : ctx.reads()) received_[id] += (v >= 0);
        return false;
    }
  }

  [[nodiscard]] std::uint64_t total_received() const {
    std::uint64_t total = 0;
    for (std::uint64_t r : received_) total += r;
    return total;
  }

 private:
  const Relation& rel_;
  const SlotSchedule& sched_;
  Relation reverse_{0};
  SlotSchedule read_sched_;
  std::vector<std::uint64_t> base_;
  std::vector<std::vector<std::uint64_t>> cell_of_;
  std::uint64_t cells_ = 0;
  std::vector<std::uint64_t> received_;
};

}  // namespace

RoutingResult route_relation_qsm(const engine::CostModel& model,
                                 const Relation& rel, const SlotSchedule& sched,
                                 std::uint32_t m, double L,
                                 engine::MachineOptions options) {
  QsmRouteProgram program(rel, sched);
  program.set_read_schedule(
      offline_optimal_schedule(program.reverse(), m));

  // The supersteps are read back off the run's tape: the recorder that
  // captures the run anyway (so a --trace file still shows it), else a
  // local one.
  replay::TapeRecorder local;
  if (options.tape_recorder == nullptr &&
      replay::current_tape_recorder() == nullptr) {
    options.tape_recorder = &local;
  }
  engine::Machine machine(model, options);
  machine.run(program);
  const replay::StatsTape& tape = *machine.tape();

  RoutingResult result;
  // Charge the write and read supersteps (the drain superstep is free of
  // communication and only adds the model's floor).
  for (std::size_t i = 0; i + 1 < tape.size() && i < 2; ++i) {
    result.send_time += model.superstep_cost(tape.step(i));
    for (const std::uint64_t m_t : tape.slots(i)) {
      result.max_mt = std::max(result.max_mt, m_t);
    }
  }
  result.total_time = result.send_time;
  result.within_limit = result.max_mt <= m;
  result.delivered = program.total_received() == rel.total_flits();
  result.optimal = core::bounds::routing_bsp_m_optimal(
      rel.total_flits(), rel.max_sent(), rel.max_received(), m, L);
  result.ratio = result.optimal > 0 ? result.total_time / result.optimal : 0.0;
  return result;
}

}  // namespace pbw::sched
