// Batched recosting: charge a whole cost grid in one tape pass.
//
// A cost-only parameter sweep holds the communication pattern fixed and
// varies only (model family, g, L, m, penalty).  Scalar recost() already
// skips re-simulation but still traverses the tape once per point, through
// CostModel::superstep_cost vtable dispatch and a SuperstepStats
// materialization per superstep.  recost_batch() takes the grid its
// callers hold — families crossed with the g, L, m and penalty axes, each
// family only with the axes it reads — and:
//
//   1. derives each superstep's cost terms (w, h variants, kappa, n) once
//      into flat double arrays — straight scans over the SoA tape;
//   2. summarizes each superstep's slots once (largest m_t, busy slots),
//      then computes each distinct (m, penalty) aggregate charge c_m[]
//      once through core::charge::cm, the c_m the virtual models use.  A
//      superstep whose slots all stay within m is charged its busy count
//      without a walk (Section 2 sets f_m = 1 there), so only
//      overloaded supersteps are walked;
//   3. fills the kernel's SoA lanes straight from the axes and charges
//      them with explicit SIMD kernels (SSE2/AVX2/AVX-512 on x86-64, NEON
//      on aarch64, scalar everywhere), selected at runtime via the
//      pbw::simd shim.  Each kernel call writes a contiguous run of the
//      output, so results land in grid order with no scatter;
//   4. tiles a batch of more than kTaskPoints points across a ThreadPool:
//      tasks are fixed-size lane ranges writing disjoint output slots, so
//      the result is identical for any thread count.
//
// Contract: point k of recost_batch(tape, grids) is bit-identical to
// recost(tape, *model-for-point-k).total_time — on EVERY dispatch path and
// thread count.  The kernels replicate CostComponents::max_term()'s
// comparison chain lanewise over the exact term values cost_components()
// computes (see batch_lanes.hpp for the discipline), SIMD runs across
// points while each point's per-superstep accumulation stays in superstep
// order, and tests/test_replay.cpp and tests/test_charge_oracle.cpp pin
// every compiled path in turn to enforce equality across families, tapes,
// and grid shapes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/model/penalty.hpp"
#include "engine/types.hpp"
#include "replay/tape.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace pbw::replay {

/// The four model families of the paper (the globally-limited ones carry a
/// penalty shape), plus the Section 6 self-scheduling variant.
enum class ModelFamily : std::uint8_t {
  kBspG,                ///< BSP(g):   T = max(w, g*h, L)
  kBspM,                ///< BSP(m):   T = max(w, h, c_m, L)
  kQsmG,                ///< QSM(g):   T = max(w, g*max(1,h), kappa)
  kQsmM,                ///< QSM(m):   T = max(w, h, c_m, kappa)
  kSelfSchedulingBspM,  ///< SS-BSP(m): T = max(w, h, n/m, L)
};

/// Which axes a family's charge reads.
[[nodiscard]] constexpr bool reads_g(ModelFamily f) noexcept {
  return f == ModelFamily::kBspG || f == ModelFamily::kQsmG;
}
[[nodiscard]] constexpr bool reads_L(ModelFamily f) noexcept {
  return f == ModelFamily::kBspG || f == ModelFamily::kBspM ||
         f == ModelFamily::kSelfSchedulingBspM;
}
[[nodiscard]] constexpr bool reads_m(ModelFamily f) noexcept {
  return f == ModelFamily::kBspM || f == ModelFamily::kQsmM ||
         f == ModelFamily::kSelfSchedulingBspM;
}
[[nodiscard]] constexpr bool reads_penalty(ModelFamily f) noexcept {
  return f == ModelFamily::kBspM || f == ModelFamily::kQsmM;
}

/// One cost point: a model family plus the parameters that family reads.
/// Unused fields are ignored (e.g. g for BSP(m)).
struct CostPointSpec {
  ModelFamily family = ModelFamily::kBspG;
  double g = 1.0;       ///< gap (kBspG, kQsmG)
  double L = 1.0;       ///< latency floor (kBspG, kBspM, kSelfSchedulingBspM)
  std::uint32_t m = 1;  ///< aggregate bandwidth (kBspM, kQsmM, kSelfSchedulingBspM)
  core::Penalty penalty = core::Penalty::kLinear;  ///< kBspM, kQsmM
};

/// A batch's unit of work: model families crossed with the g, L, m and
/// penalty axes.  Each family crosses only the axes it reads — BSP(g) is
/// g x L, BSP(m) is L x m x penalty, QSM(g) is g, QSM(m) is m x penalty,
/// SS-BSP(m) is L x m — so an axis no family reads may be empty.  Points
/// come out family by family in `families` order; within a family g is
/// the outermost axis, then L, then m, then penalty innermost.  The grid
/// views its axes: they must outlive the recost_batch call.
struct CostGrid {
  std::span<const ModelFamily> families;
  std::span<const double> g;
  std::span<const double> L;
  std::span<const std::uint32_t> m;
  std::span<const core::Penalty> penalties;

  /// The one-point grid of `spec`: its family and one value per axis,
  /// viewing the spec's fields.
  [[nodiscard]] static CostGrid point(const CostPointSpec& spec) noexcept;

  /// Sizes of the (g, L, m, penalty) axes `family` crosses; an axis it
  /// does not read counts 1.
  [[nodiscard]] std::array<std::size_t, 4> axis_sizes(
      ModelFamily family) const noexcept;

  /// Points the grid holds: the per-family crossings, summed.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Checks each value of every axis some family reads: g >= 1, L >= 1,
  /// m >= 1.  Axes may repeat values and need not be sorted.  Throws
  /// std::invalid_argument.
  void check() const;
};

/// How a recost_batch call actually executed — for /status, plan
/// responses, and campaign summaries, so a perf number is attributable —
/// and the work it did.
struct BatchInfo {
  simd::Path path = simd::Path::kScalar;  ///< kernel the batch dispatched to
  std::size_t threads = 1;     ///< pool lanes that charged points (1 = inline)
  std::size_t points = 0;      ///< points charged
  std::uint64_t cm_slots = 0;  ///< slots the c_m pass read, summary included
};

/// Batches of at most this many points run inline; larger ones are cut
/// into tasks of at most this many points for the pool.
inline constexpr std::size_t kTaskPoints = 8192;

/// Total replayed run time for every point of `grids`, grid by grid in
/// each grid's point order.  Element k is bit-identical to scalar recost()
/// under the model point k describes.  Validates every grid up front
/// (std::invalid_argument on a bad value); a batch of no points returns an
/// empty vector without touching the tape.  A non-null `pool` (which must
/// not be mid-parallel_for on the calling thread) charges a batch of more
/// than kTaskPoints points across its threads; the thread count never
/// changes the result.  Every call adds its points and c_m slots to the
/// replay.points_charged and replay.cm_slots_walked counters; a non-null
/// `info` receives the kernel path, the thread count and those counts.
[[nodiscard]] std::vector<engine::SimTime> recost_batch(
    const StatsTape& tape, std::span<const CostGrid> grids,
    util::ThreadPool* pool = nullptr, BatchInfo* info = nullptr);

/// The kernel path recost_batch would dispatch to right now: the simd
/// policy choice (simd::active_path) degraded to a path this binary
/// actually compiled (a -DPBW_SIMD_AVX2=OFF build ships no AVX2 kernel
/// even on an AVX2 CPU).
[[nodiscard]] simd::Path batch_kernel_path() noexcept;

/// Every kernel path compiled into this binary that the host CPU can run,
/// narrowest first.  Always contains simd::Path::kScalar.  Tests iterate
/// this to pin each path and assert bit-equality.
[[nodiscard]] std::vector<simd::Path> available_kernel_paths();

}  // namespace pbw::replay
