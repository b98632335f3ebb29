#include "replay/tape.hpp"

#include <cassert>
#include <cstring>

#include "util/fnv1a.hpp"

namespace pbw::replay {

namespace {

/// Debug guard for the attribution invariant: the max over a model's
/// cost_components must BE its superstep_cost, bit for bit (NaNs
/// included, so the comparison is on bit patterns).
[[maybe_unused]] bool same_bits(double a, double b) noexcept {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

}  // namespace

void StatsTape::append(const engine::SuperstepStats& stats) {
  if (slot_begin.empty()) slot_begin.push_back(0);
  max_work.push_back(stats.max_work);
  max_sent.push_back(stats.max_sent);
  max_received.push_back(stats.max_received);
  step_flits.push_back(stats.total_flits);
  max_reads.push_back(stats.max_reads);
  max_writes.push_back(stats.max_writes);
  kappa.push_back(stats.kappa);
  step_requests.push_back(stats.total_requests);
  slot_data.insert(slot_data.end(), stats.slot_counts.begin(),
                   stats.slot_counts.end());
  slot_begin.push_back(slot_data.size());
}

std::span<const std::uint64_t> StatsTape::slots(std::size_t i) const {
  return {slot_data.data() + slot_begin[i], slot_begin[i + 1] - slot_begin[i]};
}

engine::SuperstepStats StatsTape::step(std::size_t i) const {
  engine::SuperstepStats stats;
  fill_step(i, stats);
  return stats;
}

void StatsTape::fill_step(std::size_t i, engine::SuperstepStats& out) const {
  out.max_work = max_work[i];
  out.max_sent = max_sent[i];
  out.max_received = max_received[i];
  out.total_flits = step_flits[i];
  out.max_reads = max_reads[i];
  out.max_writes = max_writes[i];
  out.kappa = kappa[i];
  out.total_requests = step_requests[i];
  const auto s = slots(i);
  out.slot_counts.assign(s.begin(), s.end());
}

std::size_t StatsTape::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(StatsTape) + captured_model.size();
  bytes += max_work.capacity() * sizeof(double);
  bytes += (max_sent.capacity() + max_received.capacity() +
            step_flits.capacity() + max_reads.capacity() +
            max_writes.capacity() + kappa.capacity() +
            step_requests.capacity() + slot_data.capacity()) *
           sizeof(std::uint64_t);
  bytes += slot_begin.capacity() * sizeof(std::size_t);
  bytes += (step_ns.capacity() + merge_ns.capacity()) * sizeof(std::uint64_t);
  return bytes;
}

std::uint64_t StatsTape::fingerprint() const noexcept {
  std::uint64_t h = util::kFnv1aOffset;
  const auto mix_bytes = [&h](const void* data, std::size_t n) noexcept {
    h = util::fnv1a64(data, n, h);
  };
  const auto mix_u64 = [&mix_bytes](std::uint64_t v) noexcept {
    mix_bytes(&v, sizeof v);
  };
  mix_u64(p);
  mix_u64(seed);
  // Lengths delimit the variable-size arrays so concatenation boundaries
  // (and empty-vs-missing slot rows) cannot collide.
  mix_u64(size());
  mix_u64(slot_data.size());
  mix_bytes(max_work.data(), max_work.size() * sizeof(double));
  for (const auto* arr : {&max_sent, &max_received, &step_flits, &max_reads,
                          &max_writes, &kappa, &step_requests, &slot_data}) {
    mix_bytes(arr->data(), arr->size() * sizeof(std::uint64_t));
  }
  for (const std::size_t offset : slot_begin) {
    mix_u64(static_cast<std::uint64_t>(offset));
  }
  mix_u64(total_messages);
  mix_u64(total_flits);
  mix_u64(total_reads);
  mix_u64(total_writes);
  return h;
}

std::size_t StatsTape::fingerprint_bytes() const noexcept {
  // p, seed, the two lengths and the four totals, then every SoA array.
  const std::size_t words =
      8 + 8 * size() + slot_data.size() + slot_begin.size();
  return words * sizeof(std::uint64_t);
}

RecostResult recost(const StatsTape& tape, const engine::CostModel& model) {
  RecostResult result;
  result.supersteps = tape.size();
  result.costs.reserve(tape.size());
  // Same accumulation order as Machine::execute_superstep: one += per
  // superstep, in superstep order, so the total is bit-equal to a fresh run.
  engine::SuperstepStats scratch;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    tape.fill_step(i, scratch);
    const engine::SimTime cost = model.superstep_cost(scratch);
    result.costs.push_back(cost);
    result.total_time += cost;
  }
  return result;
}

engine::TermTotals term_totals(const StatsTape& tape,
                               const engine::CostModel& model) {
  engine::TermTotals totals;
  engine::SuperstepStats scratch;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    tape.fill_step(i, scratch);
    totals.add(model.cost_components(scratch));
  }
  return totals;
}

engine::RunResult recost_run(const StatsTape& tape,
                             const engine::CostModel& model) {
  engine::RunResult result;
  result.supersteps = tape.size();
  result.total_messages = tape.total_messages;
  result.total_flits = tape.total_flits;
  result.total_reads = tape.total_reads;
  result.total_writes = tape.total_writes;
  engine::SuperstepStats scratch;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    tape.fill_step(i, scratch);
    result.total_time += model.superstep_cost(scratch);
  }
  return result;
}

obs::TraceRun trace_run(const StatsTape& tape, const engine::CostModel& model) {
  obs::TraceRun run;
  run.info.model = model.name();
  run.info.p = tape.p;
  run.info.seed = tape.seed;
  run.records.reserve(tape.size());
  const bool clocked = tape.step_ns.size() == tape.size();
  engine::SimTime total = 0.0;
  engine::SuperstepStats scratch;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    tape.fill_step(i, scratch);
    const engine::CostComponents comps = model.cost_components(scratch);
    obs::SuperstepTraceRecord rec;
    rec.superstep = i;
    rec.cost = comps.max_term();
    assert(same_bits(rec.cost, model.superstep_cost(scratch)));
    rec.w = comps.w;
    rec.gh = comps.gh;
    rec.h = comps.h;
    rec.cm = comps.cm;
    rec.kappa = comps.kappa;
    rec.L = comps.L;
    rec.dominant = comps.dominant();
    if (clocked) {
      rec.step_ns = tape.step_ns[i];
      rec.merge_ns = tape.merge_ns[i];
    }
    run.records.push_back(rec);
    total += rec.cost;
  }
  run.summary = obs::RunSummary{tape.size(), total};
  return run;
}

}  // namespace pbw::replay
