#include "ml/gemm_kernel_avx512.h"

#include "common/error.h"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <array>
#include <utility>
#endif

namespace plinius::ml::detail {

#if defined(__AVX512F__)

namespace {

// One register tile: `Rows` x 16 C elements, one zmm accumulator per row,
// over kc steps of K (A rows lda apart, B rows ldb apart, C rows ldc
// apart). The Masked variant selects live columns for the n % 16
// remainder; masked-off lanes load as zero and are never stored, so the
// remainder computes the same per-element FMA sequence as a full tile. The
// common full-width case uses plain loads — a runtime mask on the B load
// (which feeds every FMA) measurably halves throughput even when it is
// all-ones.
template <std::size_t Rows, bool Masked>
void micro(std::size_t kc, float alpha, const float* a, std::size_t lda, const float* b,
           std::size_t ldb, float* c, std::size_t ldc, __mmask16 mask) {
  __m512 acc[Rows];
  for (std::size_t r = 0; r < Rows; ++r) acc[r] = _mm512_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    const __m512 bv =
        Masked ? _mm512_maskz_loadu_ps(mask, brow) : _mm512_loadu_ps(brow);
    for (std::size_t r = 0; r < Rows; ++r) {
      // Plain broadcast (no alpha) folds into the FMA as an EVEX embedded
      // broadcast memory operand — one uop per row. Scaling A here instead
      // costs a vmulss + vbroadcastss per row and halves throughput; alpha
      // is applied once per C element at the update below.
      const __m512 apart = _mm512_set1_ps(a[r * lda + p]);
      acc[r] = _mm512_fmadd_ps(apart, bv, acc[r]);
    }
  }
  const __m512 av = _mm512_set1_ps(alpha);
  for (std::size_t r = 0; r < Rows; ++r) {
    float* crow = c + r * ldc;
    if constexpr (Masked) {
      const __m512 cur = _mm512_maskz_loadu_ps(mask, crow);
      _mm512_mask_storeu_ps(crow, mask, _mm512_fmadd_ps(av, acc[r], cur));
    } else {
      _mm512_storeu_ps(crow, _mm512_fmadd_ps(av, acc[r], _mm512_loadu_ps(crow)));
    }
  }
}

using MicroFn = void (*)(std::size_t, float, const float*, std::size_t, const float*,
                         std::size_t, float*, std::size_t, __mmask16);

// micro<1> .. micro<kMrAvx512>, indexed by rows - 1: the m % 16 row
// remainder runs the same vector kernel with a narrower accumulator tile.
template <bool Masked, std::size_t... I>
constexpr std::array<MicroFn, sizeof...(I)> micro_table(std::index_sequence<I...>) {
  return {{&micro<I + 1, Masked>...}};
}
constexpr auto kMicroFull =
    micro_table<false>(std::make_index_sequence<kMrAvx512>{});
constexpr auto kMicroMasked =
    micro_table<true>(std::make_index_sequence<kMrAvx512>{});

}  // namespace

bool avx512_usable() {
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
}

void band_avx512(const GemmBlock& g, std::size_t tile_begin, std::size_t tile_end) {
  const std::size_t kc = g.p1 - g.p0;
  const std::size_t full = (g.j1 - g.j0) / kStrip;
  const std::size_t tail = (g.j1 - g.j0) % kStrip;
  const auto tail_mask = static_cast<__mmask16>((1u << tail) - 1u);
  const std::size_t lda = g.k;
  const std::size_t ldc = g.n;
  const std::size_t ldb = g.ldb;
  const std::size_t strip = g.strip;
  const float* b = g.b;
  const float alpha = g.alpha;
  for (std::size_t t = tile_begin; t < tile_end; ++t) {
    const std::size_t i0 = t * kMrAvx512;
    const std::size_t rows = i0 + kMrAvx512 <= g.m ? kMrAvx512 : g.m - i0;
    const float* a = g.a + i0 * lda + g.p0;
    float* c = g.c + i0 * ldc + g.j0;
    const MicroFn fn = kMicroFull[rows - 1];
    for (std::size_t s = 0; s < full; ++s) {
      fn(kc, alpha, a, lda, b + s * strip, ldb, c + s * kStrip, ldc,
         static_cast<__mmask16>(0xFFFF));
    }
    if (tail != 0) {
      kMicroMasked[rows - 1](kc, alpha, a, lda, b + full * strip, ldb, c + full * kStrip,
                             ldc, tail_mask);
    }
  }
}

#else  // !__AVX512F__

bool avx512_usable() { return false; }

void band_avx512(const GemmBlock&, std::size_t, std::size_t) {
  throw Error("band_avx512 called but the AVX-512 kernel was not compiled in");
}

#endif

}  // namespace plinius::ml::detail
