// Trace-replay recosting: simulate a communication pattern once, re-charge
// it under any cost model.
//
// Every model of the paper maps a per-superstep SuperstepStats to a charge
// (engine/cost.hpp); the stats stream itself depends only on the program,
// p, and the seed — never on g, L, m, or the penalty shape.  A StatsTape is
// that stream, recorded once, so a cost-parameter sweep over a fixed
// pattern pays one simulation plus one cheap recost per grid point instead
// of one simulation per point.  recost() reproduces Machine::run's charge
// accumulation bit-for-bit: same per-superstep stats, same summation
// order, hence the same doubles.
//
// The tape stores the stream in SoA (structure-of-arrays) form: one
// contiguous array per stats field, plus a ragged CSR-style pair
// (slot_data, slot_begin) for the per-slot injection counts.  A recost is
// a linear scan over a handful of flat arrays — no per-step pointer
// chasing — which is what lets recost_batch (replay/batch.hpp) charge
// thousands of cost points per traversal with vectorizable inner loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/cost.hpp"
#include "engine/machine.hpp"
#include "obs/trace.hpp"

namespace pbw::replay {

/// The model-independent record of one Machine::run(): the per-superstep
/// stats stream plus the run totals a RunResult reports.
struct StatsTape {
  std::uint32_t p = 0;          ///< processors of the captured machine
  std::uint64_t seed = 0;       ///< MachineOptions::seed of the capture run
  std::string captured_model;   ///< CostModel::name() at capture (diagnostics)

  // --- per-superstep stream, SoA: entry i of each array is superstep i's
  // SuperstepStats field of the same name (all arrays share length size()).
  std::vector<double> max_work;
  std::vector<std::uint64_t> max_sent;
  std::vector<std::uint64_t> max_received;
  std::vector<std::uint64_t> step_flits;     ///< SuperstepStats::total_flits
  std::vector<std::uint64_t> max_reads;
  std::vector<std::uint64_t> max_writes;
  std::vector<std::uint64_t> kappa;
  std::vector<std::uint64_t> step_requests;  ///< SuperstepStats::total_requests
  /// Ragged slot counts, CSR layout: superstep i's m_t vector is
  /// slot_data[slot_begin[i] .. slot_begin[i+1]).  slot_begin holds
  /// size()+1 offsets once any step is appended (empty on a fresh tape).
  std::vector<std::uint64_t> slot_data;
  std::vector<std::size_t> slot_begin;

  // --- run totals (what RunResult reports beyond time) ---
  std::uint64_t total_messages = 0;
  std::uint64_t total_flits = 0;
  std::uint64_t total_reads = 0;
  std::uint64_t total_writes = 0;

  // --- what the capture run leaves beside the stats (a trace reads the
  // model and the clocks); none of it enters fingerprint() or the tape
  // JSON.
  /// The model that charged the capture run (CostModel::clone()); null on
  /// a synthetic tape that no Machine recorded.
  std::shared_ptr<const engine::CostModel> model;
  /// Engine phase wall-clock per superstep, recorded in profile mode only
  /// (empty otherwise; entry i is superstep i's).
  std::vector<std::uint64_t> step_ns;
  std::vector<std::uint64_t> merge_ns;
  /// The capture run's Machine::counters() (zero on a synthetic tape).
  engine::EngineCounters counters;

  /// Supersteps recorded.
  [[nodiscard]] std::size_t size() const noexcept { return max_work.size(); }
  [[nodiscard]] bool empty() const noexcept { return max_work.empty(); }

  /// Appends one superstep's stats to every array.
  void append(const engine::SuperstepStats& stats);

  /// Superstep i's slot-count vector, zero-copy.
  [[nodiscard]] std::span<const std::uint64_t> slots(std::size_t i) const;

  /// Materializes superstep i as the SuperstepStats the engine gathered.
  [[nodiscard]] engine::SuperstepStats step(std::size_t i) const;

  /// step() into a caller-owned scratch struct, reusing its slot_counts
  /// capacity — the allocation-free form the scalar recost loop uses.
  void fill_step(std::size_t i, engine::SuperstepStats& out) const;

  /// Approximate heap footprint, for LRU cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Content hash of the recorded stream (FNV-1a over p, seed, the array
  /// lengths, and every SoA array's raw bytes, in a fixed order).  Two
  /// tapes fingerprint equal iff every quantity a recost can read is
  /// identical, so the planner's solved-envelope cache may key on it; the
  /// captured_model string, the model and the phase clocks are excluded.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Bytes fingerprint() folds: 8 per word it mixes.
  [[nodiscard]] std::size_t fingerprint_bytes() const noexcept;
};

/// recost() output: the quantities Machine::run derives from the model.
struct RecostResult {
  engine::SimTime total_time = 0.0;
  std::uint64_t supersteps = 0;
  std::vector<engine::SimTime> costs;  ///< per-superstep charges, in order
};

/// Re-derives total_time and the per-superstep charges from a tape under
/// `model`, without touching a machine.  Bit-equal to a fresh Machine::run
/// of the same execution under the same model.
[[nodiscard]] RecostResult recost(const StatsTape& tape,
                                  const engine::CostModel& model);

/// Which term the run `tape` records spent its time in under `model`:
/// each superstep's charge added, in superstep order, to the term that
/// bound it (engine::TermTotals).  The planner's dominant block reads it.
[[nodiscard]] engine::TermTotals term_totals(const StatsTape& tape,
                                             const engine::CostModel& model);

/// Rebuilds the RunResult a fresh `Machine(model).run(program)` would have
/// returned.
[[nodiscard]] engine::RunResult recost_run(const StatsTape& tape,
                                           const engine::CostModel& model);

/// The cost-attribution trace of the run `tape` records, charged under
/// `model`: one record per superstep with every component of the model's
/// max, the dominant term, and the tape's phase clocks (0 unless the
/// capture ran in profile mode).  Run id 0; callers number the runs of a
/// file.  Every --trace, --trace-dir and Chrome file is written from it.
[[nodiscard]] obs::TraceRun trace_run(const StatsTape& tape,
                                      const engine::CostModel& model);

}  // namespace pbw::replay
