// 8 x double batch charge loop (AVX-512F).  This TU alone is compiled
// with -mavx512f; replay::batch_kernel_path only dispatches here when the
// CPU reports avx512f.
//
// EVEX VMAXPD keeps MAXPD semantics — (src1 > src2) ? src1 : src2, second
// operand on ties and NaNs — matching the scalar chain step.
#include "replay/batch_lanes.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX512F__)
#include <immintrin.h>

namespace pbw::replay::detail {

namespace {

struct Avx512Lanes {
  static constexpr std::size_t kWidth = 8;
  using Reg = __m512d;
  static Reg load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, Reg v) noexcept { _mm512_storeu_pd(p, v); }
  static Reg broadcast(double v) noexcept { return _mm512_set1_pd(v); }
  static Reg mul(Reg a, Reg b) noexcept { return _mm512_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) noexcept { return _mm512_div_pd(a, b); }
  // The all-lanes masked form is the same VMAXPD; GCC 12's plain
  // _mm512_max_pd passes a self-initialised _mm512_undefined_pd() as the
  // pass-through, which -Wmaybe-uninitialized flags at every inline site.
  static Reg max(Reg x, Reg v) noexcept {
    return _mm512_mask_max_pd(x, 0xFF, x, v);
  }
  static Reg add(Reg a, Reg b) noexcept { return _mm512_add_pd(a, b); }
};

}  // namespace

void charge_block_avx512(const TermStreams& terms, const LaneBlock& block,
                         std::size_t begin, std::size_t end) {
  charge_block_impl<Avx512Lanes>(terms, block, begin, end);
}

}  // namespace pbw::replay::detail

#endif  // x86-64 && __AVX512F__
