#include "sched/schedule.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/model/charge.hpp"
#include "engine/error.hpp"

namespace pbw::sched {
namespace {

/// Applies fn(slot) to every slot occupied by a message of `length` flits
/// starting at `start` under the given layout.
template <typename Fn>
void for_each_flit_slot(engine::Slot start, std::uint32_t length,
                        FlitLayout layout, std::uint64_t window, Fn&& fn) {
  if (layout == FlitLayout::kConsecutive || window == 0) {
    for (std::uint32_t k = 0; k < length; ++k) fn(start + k);
    return;
  }
  // Wrapped: slots are 1-based; wrap within [1, window].
  for (std::uint32_t k = 0; k < length; ++k) {
    const std::uint64_t slot = (start - 1 + k) % window + 1;
    fn(static_cast<engine::Slot>(slot));
  }
}

}  // namespace

std::vector<std::uint64_t> slot_occupancy(const Relation& rel,
                                          const SlotSchedule& sched) {
  std::uint64_t max_slot = 0;
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    const auto& items = rel.items(src);
    for (std::size_t k = 0; k < items.size(); ++k) {
      for_each_flit_slot(sched.start[src][k], items[k].length, sched.layout,
                         sched.window,
                         [&](engine::Slot s) { max_slot = std::max<std::uint64_t>(max_slot, s); });
    }
  }
  std::vector<std::uint64_t> counts(max_slot, 0);
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    const auto& items = rel.items(src);
    for (std::size_t k = 0; k < items.size(); ++k) {
      for_each_flit_slot(sched.start[src][k], items[k].length, sched.layout,
                         sched.window, [&](engine::Slot s) { ++counts[s - 1]; });
    }
  }
  return counts;
}

ScheduleCost evaluate_schedule(const Relation& rel, const SlotSchedule& sched,
                               std::uint32_t m, core::Penalty penalty, double L) {
  const auto h = static_cast<double>(std::max(rel.max_sent(), rel.max_received()));
  return evaluate_occupancy(slot_occupancy(rel, sched), h, m, penalty, L);
}

ScheduleCost evaluate_occupancy(const std::vector<std::uint64_t>& counts,
                                double h, std::uint32_t m,
                                core::Penalty penalty, double L) {
  ScheduleCost cost;
  cost.slots_used = counts.size();
  const core::charge::SlotSummary summary = core::charge::summarize(counts);
  cost.c_m = core::charge::cm(counts, summary, m, penalty);
  cost.max_mt = summary.max_mt;
  cost.within_limit = summary.within(m);
  cost.total = std::max({h, cost.c_m, L});
  return cost;
}

void validate_schedule(const Relation& rel, const SlotSchedule& sched) {
  for (std::uint32_t src = 0; src < rel.p(); ++src) {
    const auto& items = rel.items(src);
    if (sched.start[src].size() != items.size()) {
      throw engine::SimulationError("schedule/relation size mismatch at proc " +
                                    std::to_string(src));
    }
    std::unordered_set<std::uint64_t> occupied;
    for (std::size_t k = 0; k < items.size(); ++k) {
      bool clash = false;
      for_each_flit_slot(sched.start[src][k], items[k].length, sched.layout,
                         sched.window, [&](engine::Slot s) {
                           if (!occupied.insert(s).second) clash = true;
                         });
      if (clash) {
        throw engine::SimulationError("processor " + std::to_string(src) +
                                      " occupies a slot twice");
      }
    }
  }
}

}  // namespace pbw::sched
