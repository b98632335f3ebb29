// Private kernel interface of replay::recost_batch: the data layout the
// dispatcher hands to the per-instruction-set charge loops, and the
// shared loop template every lane TU instantiates.
//
// Layout.  The dispatcher (batch.cpp) hands the kernel *blocks*: runs of
// one family's points that are contiguous in the output, with each
// point's parameters in SoA lanes filled from the grid's axes.  BSP(g),
// QSM(g) and SS-BSP(m) lanes hold g / L / m (p0/p1); a superstep charges
// a whole block with broadcast term values against vector registers
// holding the lanes.  BSP(m) and QSM(m) lanes are (m, penalty) columns of
// a superstep-major c_m matrix, so a superstep loads W columns' c_m at
// once and broadcasts the rest of the chain.  Point j's total
// accumulates one add per superstep in superstep order — the same
// accumulation sequence as scalar recost(), which is what keeps every
// lane width bit-identical to it — and lands in out[j] with one store.
//
// Bit-equality discipline (the whole point of this file):
//   * Lanes::max(x, v) must compute exactly (x > v) ? x : v per lane —
//     the comparison chain CostComponents::max_term() and the charge.hpp
//     functors use.  x86 MAXPD has precisely these semantics (second
//     operand returned on equal values and NaNs), so Lanes::max maps x to
//     the first operand and v to the second; NEON emulates it with a
//     compare+select (vbslq), because FMAX's NaN rules differ.
//   * mul/div/add are IEEE-exact per lane, identical to their scalar
//     spellings.  No FMA anywhere: the kernels use explicit intrinsics,
//     and the scalar TU has no mul-add pattern a compiler could contract.
//   * Broadcast hoists (e.g. SS-BSP(m)'s max(w, h), shared by every
//     lane) run the same scalar comparison chain the per-point loop would
//     have, in the same order, so hoisting is value-preserving.
//   * Vector-width tails run the identical scalar chain; a width-1
//     instantiation (ScalarLanes) *is* that chain, so every path degrades
//     to the same arithmetic.
//
// tests/test_replay.cpp and tests/test_charge_oracle.cpp pin each compiled
// path in turn (simd::ScopedPath) and assert bit-equal totals against
// scalar recost() and the paper's definitions on randomized tapes and
// grid shapes.
#pragma once

#include <algorithm>
#include <cstddef>

#include "replay/batch.hpp"

namespace pbw::replay::detail {

/// Per-superstep term streams, derived once per batch (length n each).
/// Null when no point in the batch reads the term.
struct TermStreams {
  std::size_t n = 0;
  const double* w = nullptr;       ///< max_work
  const double* msg_h = nullptr;   ///< charge::flit_h per superstep
  const double* mem_h = nullptr;   ///< charge::mem_h per superstep
  const double* mem_h1 = nullptr;  ///< charge::mem_h_floor1 per superstep
  const double* kappa = nullptr;   ///< kappa as double
  const double* flits = nullptr;   ///< total_flits as double
};

/// One charge block: `count` points of `family`, contiguous in the output.
/// Lane meanings by family (unused fields are null / ignored):
///   kBspG:               p0 = g,            p1 = L
///   kBspM:               c_m columns,       L = the block's latency floor
///   kQsmG:               p0 = g
///   kQsmM:               c_m columns
///   kSelfSchedulingBspM: p0 = m (as double), p1 = L
/// For the c_m families lane j's c_m at superstep i is
/// cm[i * cm_stride + j]: the matrix is superstep-major, one column per
/// (m, penalty) pair.
struct LaneBlock {
  ModelFamily family = ModelFamily::kBspG;
  std::size_t count = 0;
  const double* p0 = nullptr;
  const double* p1 = nullptr;
  const double* cm = nullptr;
  std::size_t cm_stride = 0;
  double L = 1.0;
  double* out = nullptr;  ///< totals; kernel writes each slot once
};

/// Charges points [begin, end) of one block over every superstep.  The
/// range bounds are the thread-tiling seam: disjoint ranges touch
/// disjoint out slots, so tiles schedule freely with no effect on the
/// result.
using ChargeBlockFn = void (*)(const TermStreams&, const LaneBlock&,
                               std::size_t begin, std::size_t end);

// One definition per compiled lane TU; batch.cpp references each only
// when the matching PBW_HAVE_KERNEL_* macro is set by the build.
void charge_block_scalar(const TermStreams&, const LaneBlock&, std::size_t,
                         std::size_t);
void charge_block_sse2(const TermStreams&, const LaneBlock&, std::size_t,
                       std::size_t);
void charge_block_avx2(const TermStreams&, const LaneBlock&, std::size_t,
                       std::size_t);
void charge_block_avx512(const TermStreams&, const LaneBlock&, std::size_t,
                         std::size_t);
void charge_block_neon(const TermStreams&, const LaneBlock&, std::size_t,
                       std::size_t);

/// Scalar (x > v) ? x : v — the reference chain step, used by every tail.
[[nodiscard]] inline double chain_max(double x, double v) noexcept {
  return x > v ? x : v;
}

/// The shared charge loop, instantiated once per lane type.  Points are
/// register-blocked: each group of kAcc vectors loads its parameter lanes
/// once, sweeps every superstep with the accumulators held in registers
/// (kAcc independent add chains hide the add latency), and stores each
/// point's total exactly once — no out-array traffic inside the sweep.
/// Per point the accumulation is still one add per superstep in superstep
/// order, the same sequence as scalar recost(), so register blocking is
/// purely a scheduling change.  Group remainders run a one-vector sweep,
/// then a scalar sweep — the identical chain at narrower width.
template <class Lanes>
void charge_block_impl(const TermStreams& t, const LaneBlock& b,
                       std::size_t begin, std::size_t end) {
  constexpr std::size_t W = Lanes::kWidth;
  constexpr std::size_t kAcc = 4;  // independent accumulator chains
  const std::size_t n = t.n;
  switch (b.family) {
    case ModelFamily::kBspG: {
      // v = max(L_j, max(g_j * h_i, w_i))
      std::size_t j = begin;
      for (; j + kAcc * W <= end; j += kAcc * W) {
        decltype(Lanes::broadcast(0.0)) g[kAcc], L[kAcc], acc[kAcc];
        for (std::size_t a = 0; a < kAcc; ++a) {
          g[a] = Lanes::load(b.p0 + j + a * W);
          L[a] = Lanes::load(b.p1 + j + a * W);
          acc[a] = Lanes::broadcast(0.0);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const auto wv = Lanes::broadcast(t.w[i]);
          const auto hv = Lanes::broadcast(t.msg_h[i]);
          for (std::size_t a = 0; a < kAcc; ++a) {
            auto v = Lanes::max(Lanes::mul(g[a], hv), wv);
            v = Lanes::max(L[a], v);
            acc[a] = Lanes::add(acc[a], v);
          }
        }
        for (std::size_t a = 0; a < kAcc; ++a) {
          Lanes::store(b.out + j + a * W, acc[a]);
        }
      }
      for (; j + W <= end; j += W) {
        const auto g = Lanes::load(b.p0 + j);
        const auto L = Lanes::load(b.p1 + j);
        auto acc = Lanes::broadcast(0.0);
        for (std::size_t i = 0; i < n; ++i) {
          auto v = Lanes::max(Lanes::mul(g, Lanes::broadcast(t.msg_h[i])),
                              Lanes::broadcast(t.w[i]));
          v = Lanes::max(L, v);
          acc = Lanes::add(acc, v);
        }
        Lanes::store(b.out + j, acc);
      }
      for (; j < end; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          double v = chain_max(b.p0[j] * t.msg_h[i], t.w[i]);
          v = chain_max(b.p1[j], v);
          acc += v;
        }
        b.out[j] = acc;
      }
      break;
    }
    case ModelFamily::kBspM:
    case ModelFamily::kQsmM: {
      // Lanes are c_m columns.  s_i = max(h_i, w_i) and the floor f_i
      // (BSP(m): the block's L; QSM(m): kappa_i) are lane-invariant;
      // v = max(f_i, max(c_m[i][j], s_i)).
      const bool qsm = b.family == ModelFamily::kQsmM;
      const double* h = qsm ? t.mem_h : t.msg_h;
      const double* floor = qsm ? t.kappa : &b.L;
      const std::size_t floor_step = qsm ? 1 : 0;
      std::size_t j = begin;
      for (; j + kAcc * W <= end; j += kAcc * W) {
        decltype(Lanes::broadcast(0.0)) acc[kAcc];
        for (std::size_t a = 0; a < kAcc; ++a) acc[a] = Lanes::broadcast(0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const auto sv = Lanes::broadcast(chain_max(h[i], t.w[i]));
          const auto fv = Lanes::broadcast(floor[i * floor_step]);
          const double* row = b.cm + i * b.cm_stride + j;
          for (std::size_t a = 0; a < kAcc; ++a) {
            const auto v = Lanes::max(Lanes::load(row + a * W), sv);
            acc[a] = Lanes::add(acc[a], Lanes::max(fv, v));
          }
        }
        for (std::size_t a = 0; a < kAcc; ++a) {
          Lanes::store(b.out + j + a * W, acc[a]);
        }
      }
      for (; j + W <= end; j += W) {
        auto acc = Lanes::broadcast(0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const auto v =
              Lanes::max(Lanes::load(b.cm + i * b.cm_stride + j),
                         Lanes::broadcast(chain_max(h[i], t.w[i])));
          acc = Lanes::add(
              acc, Lanes::max(Lanes::broadcast(floor[i * floor_step]), v));
        }
        Lanes::store(b.out + j, acc);
      }
      for (; j < end; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double v =
              chain_max(b.cm[i * b.cm_stride + j], chain_max(h[i], t.w[i]));
          acc += chain_max(floor[i * floor_step], v);
        }
        b.out[j] = acc;
      }
      break;
    }
    case ModelFamily::kQsmG: {
      // v = max(kappa_i, max(g_j * h1_i, w_i))
      std::size_t j = begin;
      for (; j + kAcc * W <= end; j += kAcc * W) {
        decltype(Lanes::broadcast(0.0)) g[kAcc], acc[kAcc];
        for (std::size_t a = 0; a < kAcc; ++a) {
          g[a] = Lanes::load(b.p0 + j + a * W);
          acc[a] = Lanes::broadcast(0.0);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const auto wv = Lanes::broadcast(t.w[i]);
          const auto hv = Lanes::broadcast(t.mem_h1[i]);
          const auto kv = Lanes::broadcast(t.kappa[i]);
          for (std::size_t a = 0; a < kAcc; ++a) {
            auto v = Lanes::max(Lanes::mul(g[a], hv), wv);
            v = Lanes::max(kv, v);
            acc[a] = Lanes::add(acc[a], v);
          }
        }
        for (std::size_t a = 0; a < kAcc; ++a) {
          Lanes::store(b.out + j + a * W, acc[a]);
        }
      }
      for (; j + W <= end; j += W) {
        const auto g = Lanes::load(b.p0 + j);
        auto acc = Lanes::broadcast(0.0);
        for (std::size_t i = 0; i < n; ++i) {
          auto v = Lanes::max(Lanes::mul(g, Lanes::broadcast(t.mem_h1[i])),
                              Lanes::broadcast(t.w[i]));
          v = Lanes::max(Lanes::broadcast(t.kappa[i]), v);
          acc = Lanes::add(acc, v);
        }
        Lanes::store(b.out + j, acc);
      }
      for (; j < end; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          double v = chain_max(b.p0[j] * t.mem_h1[i], t.w[i]);
          v = chain_max(t.kappa[i], v);
          acc += v;
        }
        b.out[j] = acc;
      }
      break;
    }
    case ModelFamily::kSelfSchedulingBspM: {
      // s_i = max(h, w); v = max(L_j, max(flits_i / m_j, s_i))
      std::size_t j = begin;
      for (; j + kAcc * W <= end; j += kAcc * W) {
        decltype(Lanes::broadcast(0.0)) m[kAcc], L[kAcc], acc[kAcc];
        for (std::size_t a = 0; a < kAcc; ++a) {
          m[a] = Lanes::load(b.p0 + j + a * W);
          L[a] = Lanes::load(b.p1 + j + a * W);
          acc[a] = Lanes::broadcast(0.0);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double s = chain_max(t.msg_h[i], t.w[i]);
          const auto sv = Lanes::broadcast(s);
          const auto fv = Lanes::broadcast(t.flits[i]);
          for (std::size_t a = 0; a < kAcc; ++a) {
            auto v = Lanes::max(Lanes::div(fv, m[a]), sv);
            v = Lanes::max(L[a], v);
            acc[a] = Lanes::add(acc[a], v);
          }
        }
        for (std::size_t a = 0; a < kAcc; ++a) {
          Lanes::store(b.out + j + a * W, acc[a]);
        }
      }
      for (; j + W <= end; j += W) {
        const auto m = Lanes::load(b.p0 + j);
        const auto L = Lanes::load(b.p1 + j);
        auto acc = Lanes::broadcast(0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const double s = chain_max(t.msg_h[i], t.w[i]);
          auto v = Lanes::max(Lanes::div(Lanes::broadcast(t.flits[i]), m),
                              Lanes::broadcast(s));
          v = Lanes::max(L, v);
          acc = Lanes::add(acc, v);
        }
        Lanes::store(b.out + j, acc);
      }
      for (; j < end; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double s = chain_max(t.msg_h[i], t.w[i]);
          double v = chain_max(t.flits[i] / b.p0[j], s);
          v = chain_max(b.p1[j], v);
          acc += v;
        }
        b.out[j] = acc;
      }
      break;
    }
  }
}

}  // namespace pbw::replay::detail
