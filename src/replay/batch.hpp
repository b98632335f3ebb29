// Batched recosting: charge a million cost points in one tape pass.
//
// A cost-only parameter sweep holds the communication pattern fixed and
// varies only (model family, g, L, m, penalty).  Scalar recost() already
// skips re-simulation but still traverses the tape once per point, through
// CostModel::superstep_cost vtable dispatch and a SuperstepStats
// materialization per superstep.  recost_batch() instead:
//
//   1. derives each superstep's cost terms (w, h variants, kappa, n) once
//      into flat double arrays — straight scans over the SoA tape;
//   2. computes each distinct (m, penalty) aggregate-charge array c_m[] once,
//      however many points share it (the only expensive term: a slot-count
//      scan through core::charge::cm, the c_m the virtual models use);
//   3. partitions the batch into charge *blocks* — points of one family
//      sharing a c_m array — whose per-point parameters (g, L, m) become
//      contiguous SoA lanes, and charges whole blocks with explicit SIMD
//      kernels (SSE2/AVX2/AVX-512 on x86-64, NEON on aarch64, scalar
//      everywhere), selected at runtime via the pbw::simd shim;
//   4. optionally tiles block charging across a ThreadPool: tasks are
//      fixed-size point ranges writing disjoint output slots, so the
//      result is identical for any thread count.
//
// Contract: recost_batch(tape, pts)[k] is bit-identical to
// recost(tape, *model-for-pts[k]).total_time — on EVERY dispatch path and
// thread count.  The kernels replicate CostComponents::max_term()'s
// comparison chain lanewise over the exact term values cost_components()
// computes (see batch_lanes.hpp for the discipline), SIMD runs across
// points while each point's per-superstep accumulation stays in superstep
// order, and tests/test_replay.cpp pins every compiled path in turn to
// enforce equality across families, tapes, and batch shapes.
#pragma once

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

/// One cost point of a batch: a model family plus the parameters that
/// family reads.  Unused fields are ignored (e.g. g for BSP(m)).
struct CostPointSpec {
  ModelFamily family = ModelFamily::kBspG;
  double g = 1.0;       ///< gap (kBspG, kQsmG)
  double L = 1.0;       ///< latency floor (kBspG, kBspM, kSelfSchedulingBspM)
  std::uint32_t m = 1;  ///< aggregate bandwidth (kBspM, kQsmM, kSelfSchedulingBspM)
  core::Penalty penalty = core::Penalty::kLinear;  ///< kBspM, kQsmM

  /// Same domain as ModelParams::check for the fields the family reads;
  /// throws std::invalid_argument on violation.
  void check() const;
};

/// How a recost_batch call actually executed — for /status, plan
/// responses, and campaign summaries, so a perf number is attributable.
struct BatchInfo {
  simd::Path path = simd::Path::kScalar;  ///< kernel the batch dispatched to
  std::size_t threads = 1;  ///< pool lanes that charged blocks (1 = inline)
  std::size_t blocks = 0;   ///< charge blocks the batch partitioned into
};

/// Total replayed run time for every point, in input order.  Element k is
/// bit-identical to scalar recost() under the model pts[k] describes.
/// Validates every point up front (std::invalid_argument on a bad one).
/// An empty `points` span returns an empty vector immediately — no tape
/// traversal, no allocation.
[[nodiscard]] std::vector<engine::SimTime> recost_batch(
    const StatsTape& tape, std::span<const CostPointSpec> points);

/// As above, tiling block charging across `pool` when it is non-null and
/// the batch is large enough to bother.  The thread count never changes
/// the result (tasks write disjoint output ranges).  `pool` must not be
/// mid-parallel_for on the calling thread (no recursive dispatch).  When
/// `info` is non-null it receives the kernel path, thread count, and block
/// count the call used.
[[nodiscard]] std::vector<engine::SimTime> recost_batch(
    const StatsTape& tape, std::span<const CostPointSpec> points,
    util::ThreadPool* pool, BatchInfo* info = nullptr);

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
