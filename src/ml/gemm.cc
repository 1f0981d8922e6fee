#include "ml/gemm.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace plinius::ml {

namespace {

using detail::Isa;

// Register tile: MR output rows x NR output columns held in accumulators
// across the K loop. 6 x 16 is 12 ymm accumulators, leaving three registers
// for the two B vectors and the broadcast A element — the classic AVX2 GEMM
// tile shape (the scalar band uses it too). The AVX-512 band holds 16 rows,
// one zmm each. KC blocks the K dimension (in K steps: one float, or one int8
// pair) so the B panel slice streamed by a tile sweep stays cache resident.
constexpr std::size_t kMr = 6;
constexpr std::size_t kMrAvx512 = 16;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;

// B whose rows lie at least this many 4-byte elements (4 KiB) apart is
// packed, one KC x kNc block at a time, into KC x 16 strips before the tiles
// read it: a tile reading B in place touches one 64-byte line in each of KC
// rows that far apart (16 x 2048 x 2048 ran 2-3x slower that way at one
// thread). Narrower B (every conv shape, n <= 196) is read in place. The
// panel scratch is kKc * kNc elements (128 KiB) per thread.
constexpr std::size_t kPackMinN = 1024;
constexpr std::size_t kNc = 128;

// Minimum tile work (C elements x K steps) worth one pool dispatch; below
// this the whole call runs on the caller thread.
constexpr double kMinMacsPerChunk = 1 << 15;

// --- float kernels ------------------------------------------------------------
namespace f32 {

// Computes one Rows x 16 tile of C over kc steps of K (A rows lda apart, B
// rows ldb apart, C rows ldc apart). One accumulator per C element, K
// ascending: the per-element rounding sequence is independent of how tiles
// are distributed over threads and of where B is read from. std::fma rounds
// once, as the SIMD bands' vfmadd does, so every band produces the same
// bits.
template <std::size_t Rows>
void micro_full(std::size_t kc, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float* c, std::size_t ldc) {
  float acc[Rows][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::size_t r = 0; r < Rows; ++r) {
      const float apart = a[r * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(apart, brow[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < kNr; ++j) crow[j] = std::fma(alpha, acc[r][j], crow[j]);
  }
}

// Row or column remainder, `rows` x `cols`: same expression per element.
// Edge-only, so the scalar form serves every band; inlined into each, it
// compiles under that band's target (a vfmadd, not a call, on the AVX2 band).
[[gnu::always_inline]] inline void micro_tail(std::size_t kc, float alpha, const float* a,
                                              std::size_t lda, const float* b,
                                              std::size_t ldb, float* c, std::size_t ldc,
                                              std::size_t rows, std::size_t cols) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::size_t r = 0; r < rows; ++r) {
      const float apart = a[r * lda + p];
      for (std::size_t j = 0; j < cols; ++j) {
        acc[r][j] = std::fma(apart, brow[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) crow[j] = std::fma(alpha, acc[r][j], crow[j]);
  }
}

#if defined(__x86_64__)
// micro_full in AVX2 intrinsics rather than left to the auto-vectorizer:
// GCC 12 at -O3 vectorizes the scalar loop nest at 128-bit width with the
// accumulator tile spilled to the stack (~10x slower than the ~26 GFLOP/s
// this form reaches on one core).
template <std::size_t Rows>
[[gnu::target("avx2,fma")]] void micro_full_avx2(std::size_t kc, float alpha,
                                                 const float* a, std::size_t lda,
                                                 const float* b, std::size_t ldb, float* c,
                                                 std::size_t ldc) {
  static_assert(kNr == 16, "two ymm accumulators per row");
  __m256 acc[Rows][2];
  for (std::size_t r = 0; r < Rows; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (std::size_t r = 0; r < Rows; ++r) {
      // Plain broadcast (no alpha) is a single vbroadcastss from memory;
      // alpha is applied once per C element at the update below instead of
      // once per multiply-accumulate.
      const __m256 apart = _mm256_set1_ps(a[r * lda + p]);
      acc[r][0] = _mm256_fmadd_ps(apart, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(apart, b1, acc[r][1]);
    }
  }
  const __m256 av = _mm256_set1_ps(alpha);
  for (std::size_t r = 0; r < Rows; ++r) {
    float* crow = c + r * ldc;
    _mm256_storeu_ps(crow, _mm256_fmadd_ps(av, acc[r][0], _mm256_loadu_ps(crow)));
    _mm256_storeu_ps(crow + 8,
                     _mm256_fmadd_ps(av, acc[r][1], _mm256_loadu_ps(crow + 8)));
  }
}

// One AVX-512 register tile: `Rows` x 16 C elements, one zmm accumulator
// per row. The Masked variant selects live columns for the n % 16
// remainder; masked-off lanes load as zero and are never stored, so the
// remainder computes the same per-element FMA sequence as a full tile. The
// common full-width case uses plain loads — a runtime mask on the B load
// (which feeds every FMA) measurably halves throughput even when it is
// all-ones.
template <std::size_t Rows, bool Masked>
[[gnu::target("avx512f")]] void micro_avx512(std::size_t kc, float alpha, const float* a,
                                             std::size_t lda, const float* b,
                                             std::size_t ldb, float* c, std::size_t ldc,
                                             __mmask16 mask) {
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
#endif

// The float policy: every tile applies alpha once to its block sum,
// C = fma(alpha, acc, C).
struct Kernels {
  using Elem = float;
  using Acc = float;
  using Scale = float;
  template <std::size_t Rows>
  static constexpr auto full = &micro_full<Rows>;
  static constexpr auto tail = &micro_tail;
#if defined(__x86_64__)
  template <std::size_t Rows>
  static constexpr auto full_avx2 = &micro_full_avx2<Rows>;
  template <std::size_t Rows, bool Masked>
  static constexpr auto avx512 = &micro_avx512<Rows, Masked>;
#endif
};

}  // namespace f32

// --- int8 kernels -------------------------------------------------------------
//
// Both operands are packed into int32 words, one K pair each, holding two
// sign-extended int16 lanes (the first K value in the low half). madd_epi16
// multiplies 16-bit lanes pairwise and sums adjacent products into an int32
// lane, so one madd reduces a K pair of one C element:
//   apack (M x kp words):  (a[i][2pp], a[i][2pp+1])
//   bpack (kp x N words):  (b[2pp][j], b[2pp+1][j])
// Odd K zero-pads the final pair — exact in integer arithmetic.
namespace s8 {

// The int32 sums go into C exactly, unscaled.
struct Unscaled {};

constexpr std::int32_t pair(std::int32_t lo, std::int32_t hi) {
  return static_cast<std::int32_t>(static_cast<std::uint16_t>(lo) |
                                   static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi))
                                       << 16);
}

// One lane of madd_epi16: low halves' product plus high halves' product.
constexpr std::int32_t madd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int16_t>(a) * static_cast<std::int16_t>(b) + (a >> 16) * (b >> 16);
}

void pack_a(std::size_t m, std::size_t k, const std::int8_t* a, std::int32_t* apack) {
  const std::size_t kp = (k + 1) / 2;
  par::parallel_for(m, 32, [&](par::Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::int8_t* arow = a + i * k;
      std::int32_t* dst = apack + i * kp;
      // Whole pairs first, without a per-pair bound check, so the loop
      // vectorizes; then odd K's last value, zero-padded.
      for (std::size_t pp = 0; pp < k / 2; ++pp) dst[pp] = pair(arow[2 * pp], arow[2 * pp + 1]);
      if (k % 2 != 0) dst[kp - 1] = pair(arow[k - 1], 0);
    }
  });
}

void pack_b_nn(std::size_t k, std::size_t n, const std::int8_t* b, std::int32_t* bpack) {
  const std::size_t kp = (k + 1) / 2;
  par::parallel_for(kp, 32, [&](par::Range r) {
    for (std::size_t pp = r.begin; pp < r.end; ++pp) {
      const std::int8_t* b0 = b + (2 * pp) * n;
      const std::int8_t* b1 = 2 * pp + 1 < k ? b + (2 * pp + 1) * n : nullptr;
      std::int32_t* dst = bpack + pp * n;
      for (std::size_t j = 0; j < n; ++j) dst[j] = pair(b0[j], b1 != nullptr ? b1[j] : 0);
    }
  });
}

// B arrives N x K (row-major); packing indexes it transposed directly, so no
// separate transpose pass is needed.
void pack_b_nt(std::size_t n, std::size_t k, const std::int8_t* b, std::int32_t* bpack) {
  const std::size_t kp = (k + 1) / 2;
  par::parallel_for(kp, 32, [&](par::Range r) {
    for (std::size_t pp = r.begin; pp < r.end; ++pp) {
      std::int32_t* dst = bpack + pp * n;
      for (std::size_t j = 0; j < n; ++j) {
        const std::int8_t* brow = b + j * k;
        dst[j] = pair(brow[2 * pp], 2 * pp + 1 < k ? brow[2 * pp + 1] : 0);
      }
    }
  });
}

// Computes one Rows x 16 tile of C over kc K pairs, summing each pair's two
// products into its int32 accumulator. Integer sums are exact (2 * 127^2
// fits easily), so every band computes identical bytes.
template <std::size_t Rows>
void micro_full(std::size_t kc, Unscaled, const std::int32_t* a, std::size_t lda,
                const std::int32_t* b, std::size_t ldb, std::int32_t* c, std::size_t ldc) {
  std::int32_t acc[Rows][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const std::int32_t* brow = b + p * ldb;
    for (std::size_t r = 0; r < Rows; ++r) {
      const std::int32_t apair = a[r * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += madd(apair, brow[j]);
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    std::int32_t* crow = c + r * ldc;
    for (std::size_t j = 0; j < kNr; ++j) crow[j] += acc[r][j];
  }
}

// Row/column remainder: same per-element integer sums, variable extent.
// Edge-only, so the scalar form serves every band, inlined into each.
[[gnu::always_inline]] inline void micro_tail(std::size_t kc, Unscaled, const std::int32_t* a,
                                              std::size_t lda, const std::int32_t* b,
                                              std::size_t ldb, std::int32_t* c,
                                              std::size_t ldc, std::size_t rows,
                                              std::size_t cols) {
  std::int32_t acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const std::int32_t* brow = b + p * ldb;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int32_t apair = a[r * lda + p];
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] += madd(apair, brow[j]);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::int32_t* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
  }
}

#if defined(__x86_64__)
// micro_full with one madd_epi16 per K pair and row half: the B vector
// holds 8 column pairs, the A pair is broadcast as a 32-bit lane, and madd
// sums the two int16 products of every pair into its int32 lane.
template <std::size_t Rows>
[[gnu::target("avx2")]] void micro_full_avx2(std::size_t kc, Unscaled, const std::int32_t* a,
                                             std::size_t lda, const std::int32_t* b,
                                             std::size_t ldb, std::int32_t* c,
                                             std::size_t ldc) {
  static_assert(kNr == 16, "two ymm accumulators per row");
  __m256i acc[Rows][2];
  for (std::size_t r = 0; r < Rows; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const std::int32_t* brow = b + p * ldb;
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
    const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 8));
    for (std::size_t r = 0; r < Rows; ++r) {
      const __m256i av = _mm256_set1_epi32(a[r * lda + p]);
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, b0));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, b1));
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    std::int32_t* crow = c + r * ldc;
    auto* c0 = reinterpret_cast<__m256i*>(crow);
    auto* c1 = reinterpret_cast<__m256i*>(crow + 8);
    _mm256_storeu_si256(c0, _mm256_add_epi32(_mm256_loadu_si256(c0), acc[r][0]));
    _mm256_storeu_si256(c1, _mm256_add_epi32(_mm256_loadu_si256(c1), acc[r][1]));
  }
}

// One AVX-512BW register tile: `Rows` x 16 C elements, one zmm of int32
// accumulators per row; one zmm B load covers 16 column pairs. The Masked
// variant selects live columns (one 32-bit lane each) for the n % 16
// remainder; masked-off pairs load as zero and are never stored, so the
// remainder computes the same integer sums.
template <std::size_t Rows, bool Masked>
[[gnu::target("avx512f,avx512bw")]] void micro_avx512(std::size_t kc, Unscaled,
                                                      const std::int32_t* a, std::size_t lda,
                                                      const std::int32_t* b, std::size_t ldb,
                                                      std::int32_t* c, std::size_t ldc,
                                                      __mmask16 mask) {
  __m512i acc[Rows];
  for (std::size_t r = 0; r < Rows; ++r) acc[r] = _mm512_setzero_si512();
  for (std::size_t p = 0; p < kc; ++p) {
    const std::int32_t* brow = b + p * ldb;
    const __m512i bv =
        Masked ? _mm512_maskz_loadu_epi32(mask, brow) : _mm512_loadu_si512(brow);
    for (std::size_t r = 0; r < Rows; ++r) {
      const __m512i av = _mm512_set1_epi32(a[r * lda + p]);
      acc[r] = _mm512_add_epi32(acc[r], _mm512_madd_epi16(av, bv));
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    std::int32_t* crow = c + r * ldc;
    if constexpr (Masked) {
      const __m512i cur = _mm512_maskz_loadu_epi32(mask, crow);
      _mm512_mask_storeu_epi32(crow, mask, _mm512_add_epi32(cur, acc[r]));
    } else {
      const __m512i cur = _mm512_loadu_si512(crow);
      _mm512_storeu_si512(crow, _mm512_add_epi32(cur, acc[r]));
    }
  }
}
#endif

// The int8 policy: every tile adds its exact block sum, C = C + acc.
struct Kernels {
  using Elem = std::int32_t;
  using Acc = std::int32_t;
  using Scale = Unscaled;
  template <std::size_t Rows>
  static constexpr auto full = &micro_full<Rows>;
  static constexpr auto tail = &micro_tail;
#if defined(__x86_64__)
  template <std::size_t Rows>
  static constexpr auto full_avx2 = &micro_full_avx2<Rows>;
  template <std::size_t Rows, bool Masked>
  static constexpr auto avx512 = &micro_avx512<Rows, Masked>;
#endif
};

}  // namespace s8

// --- the blocked driver, one for both policies ---------------------------------

// One KC block of C[m x n] += A[m x k] * B[k x n] (k in K steps), row-major:
// the K range [p0, p1) over the C columns [j0, j1). The bands read B in
// 16-column strips; element (p, j) of strip s (C column j0 + 16 s + j) sits
// at b[s * strip + (p - p0) * ldb + j]. B read in place is
// {B + p0 * n + j0, ldb = n, strip = 16}; a packed panel is
// {panel, ldb = 16, strip = (p1 - p0) * 16}.
template <class P>
struct GemmBlock {
  std::size_t m, n, k;
  typename P::Scale alpha;
  const typename P::Elem* a;
  typename P::Acc* c;
  std::size_t p0, p1;
  std::size_t j0, j1;
  const typename P::Elem* b;
  std::size_t ldb, strip;
};

// One task's band of kMr-row tiles over block g, full tiles through Full.
template <class P, auto Full>
[[gnu::always_inline]] inline void band_tiles(const GemmBlock<P>& g, std::size_t tile_begin,
                                              std::size_t tile_end) {
  const std::size_t kc = g.p1 - g.p0;
  const std::size_t full = (g.j1 - g.j0) / kNr;
  const std::size_t tail = (g.j1 - g.j0) % kNr;
  const std::size_t lda = g.k;
  const std::size_t ldc = g.n;
  const std::size_t ldb = g.ldb;
  const std::size_t strip = g.strip;
  const auto* b = g.b;
  const auto alpha = g.alpha;
  for (std::size_t t = tile_begin; t < tile_end; ++t) {
    const std::size_t i0 = t * kMr;
    const std::size_t rows = i0 + kMr <= g.m ? kMr : g.m - i0;
    const auto* a = g.a + i0 * lda + g.p0;
    auto* c = g.c + i0 * ldc + g.j0;
    for (std::size_t s = 0; s < full; ++s) {
      if (rows == kMr) {
        Full(kc, alpha, a, lda, b + s * strip, ldb, c + s * kNr, ldc);
      } else {
        P::tail(kc, alpha, a, lda, b + s * strip, ldb, c + s * kNr, ldc, rows, kNr);
      }
    }
    if (tail != 0) {
      P::tail(kc, alpha, a, lda, b + full * strip, ldb, c + full * kNr, ldc, rows, tail);
    }
  }
}

template <class P>
void band_scalar(const GemmBlock<P>& g, std::size_t tile_begin, std::size_t tile_end) {
  band_tiles<P, P::template full<kMr>>(g, tile_begin, tile_end);
}

#if defined(__x86_64__)
template <class P>
[[gnu::target("avx2,fma")]] void band_avx2(const GemmBlock<P>& g, std::size_t tile_begin,
                                           std::size_t tile_end) {
  band_tiles<P, P::template full_avx2<kMr>>(g, tile_begin, tile_end);
}

// P::avx512<1, Masked> .. <kMrAvx512, Masked>, indexed by rows - 1: the
// m % 16 row remainder runs the same vector kernel with a narrower
// accumulator tile.
template <class P, bool Masked, std::size_t... I>
constexpr auto micro_avx512_table(std::index_sequence<I...>) {
  return std::array{P::template avx512<I + 1, Masked>...};
}
template <class P, bool Masked>
constexpr auto kMicroAvx512 =
    micro_avx512_table<P, Masked>(std::make_index_sequence<kMrAvx512>{});

// One task's band of kMrAvx512-row tiles over block g. Column remainders
// use masked lanes and row remainders narrower tiles, both functions of the
// shape alone.
template <class P>
[[gnu::target("avx512f")]] void band_avx512(const GemmBlock<P>& g, std::size_t tile_begin,
                                            std::size_t tile_end) {
  const std::size_t kc = g.p1 - g.p0;
  const std::size_t full = (g.j1 - g.j0) / kNr;
  const std::size_t tail = (g.j1 - g.j0) % kNr;
  const auto tail_mask = static_cast<__mmask16>((1u << tail) - 1u);
  const std::size_t lda = g.k;
  const std::size_t ldc = g.n;
  const std::size_t ldb = g.ldb;
  const std::size_t strip = g.strip;
  const auto* b = g.b;
  const auto alpha = g.alpha;
  for (std::size_t t = tile_begin; t < tile_end; ++t) {
    const std::size_t i0 = t * kMrAvx512;
    const std::size_t rows = i0 + kMrAvx512 <= g.m ? kMrAvx512 : g.m - i0;
    const auto* a = g.a + i0 * lda + g.p0;
    auto* c = g.c + i0 * ldc + g.j0;
    const auto fn = kMicroAvx512<P, false>[rows - 1];
    for (std::size_t s = 0; s < full; ++s) {
      fn(kc, alpha, a, lda, b + s * strip, ldb, c + s * kNr, ldc,
         static_cast<__mmask16>(0xFFFF));
    }
    if (tail != 0) {
      kMicroAvx512<P, true>[rows - 1](kc, alpha, a, lda, b + full * strip, ldb,
                                      c + full * kNr, ldc, tail_mask);
    }
  }
}
#endif

// Copies rows [0, kc) x columns [0, cols) of `src` (row stride ld) into
// 16-column strips, each kc x 16 and contiguous; returns the panel. The
// scratch is thread-local: each thread packs into its own, so the pool's
// workers can run gemm calls side by side (ConnectedLayer's update runs one
// per row block; a nested call runs inline on its worker).
template <class T>
const T* pack_panel(const T* src, std::size_t ld, std::size_t kc, std::size_t cols) {
  thread_local std::vector<T> t_panel;
  t_panel.resize(kKc * kNc);
  T* panel = t_panel.data();
  const std::size_t full = cols / kNr;
  const std::size_t tail = cols % kNr;
  for (std::size_t p = 0; p < kc; ++p) {
    const T* row = src + p * ld;
    T* dst = panel + p * kNr;
    for (std::size_t s = 0; s < full; ++s) {
      std::memcpy(dst + s * kc * kNr, row + s * kNr, kNr * sizeof(T));
    }
    if (tail != 0) std::memcpy(dst + full * kc * kNr, row + full * kNr, tail * sizeof(T));
  }
  return panel;
}

/// Row-major M x K by K x N product (K in steps of policy P) on band `isa`,
/// parallel over mr-row output tiles, with tile height matched to the band.
/// Every band walks the KC blocks in ascending order.
template <class P>
void gemm_blocked(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                  typename P::Scale alpha, const typename P::Elem* a,
                  const typename P::Elem* b, typename P::Acc* c) {
  const std::size_t mr = isa == Isa::kAvx512 ? kMrAvx512 : kMr;
  const std::size_t ntiles = (m + mr - 1) / mr;
  const double tile_macs =
      static_cast<double>(mr) * static_cast<double>(n) * static_cast<double>(k);
  const auto grain = static_cast<std::size_t>(kMinMacsPerChunk / (tile_macs + 1.0)) + 1;
  const bool pack = n >= kPackMinN;
  par::parallel_for(ntiles, grain, [&](par::Range r) {
    const auto run = [&](const GemmBlock<P>& g) {
#if defined(__x86_64__)
      if (isa == Isa::kAvx512) return band_avx512(g, r.begin, r.end);
      if (isa == Isa::kAvx2) return band_avx2(g, r.begin, r.end);
#endif
      band_scalar(g, r.begin, r.end);
    };
    GemmBlock<P> g{m, n, k, alpha, a, c, 0, 0, 0, n, nullptr, n, kNr};
    for (g.p0 = 0; g.p0 < k; g.p0 += kKc) {
      g.p1 = g.p0 + kKc < k ? g.p0 + kKc : k;
      if (!pack) {
        g.b = b + g.p0 * n;
        run(g);
        continue;
      }
      for (g.j0 = 0; g.j0 < n; g.j0 += kNc) {
        g.j1 = g.j0 + kNc < n ? g.j0 + kNc : n;
        g.b = pack_panel(b + g.p0 * n + g.j0, n, g.p1 - g.p0, g.j1 - g.j0);
        g.ldb = kNr;
        g.strip = (g.p1 - g.p0) * kNr;
        run(g);
      }
    }
  });
}

#if defined(__x86_64__)
// d[j][i] = s[i][j] for one 8 x 8 tile (row strides lds and ldd), through
// registers: eight 8-float loads, three shuffle stages, eight 8-float stores.
[[gnu::target("avx2")]] void transpose_tile(const float* s, std::size_t lds, float* d,
                                            std::size_t ldd) {
  __m256 r[8], t[8];
  for (std::size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(s + i * lds);
  for (std::size_t i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  for (std::size_t i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    _mm256_storeu_ps(d + i * ldd, _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
    _mm256_storeu_ps(d + (i + 4) * ldd, _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
  }
}

// Columns [c_begin, c_end) of src (c_begin a multiple of 8) in 8 x 8 tiles,
// the remainders copied element by element.
[[gnu::target("avx2")]] void transpose_avx2(std::size_t rows, std::size_t cols,
                                            const float* src, float* dst,
                                            std::size_t c_begin, std::size_t c_end) {
  const std::size_t rf = rows - rows % 8;
  for (std::size_t c0 = c_begin; c0 < c_end && c0 < cols; c0 += 8) {
    const std::size_t r0 = c0 + 8 <= cols ? rf : 0;
    for (std::size_t r = 0; r < r0; r += 8) {
      transpose_tile(src + r * cols + c0, cols, dst + c0 * rows + r, rows);
    }
    for (std::size_t c = c0; c < c0 + 8 && c < cols; ++c) {
      for (std::size_t r = r0; r < rows; ++r) dst[c * rows + r] = src[r * cols + c];
    }
  }
}
#endif

// gemm_nt's transposed B and the int8 packed operands. Thread-local, as the
// panel: calls may run side by side on the pool's workers.
thread_local std::vector<float> t_pack_b;
thread_local std::vector<std::int32_t> t_pack_a8;
thread_local std::vector<std::int32_t> t_pack_b8;

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  detail::gemm_nn(detail::cpu_isa(), m, n, k, alpha, a, b, c);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  detail::gemm_nt(detail::cpu_isa(), m, n, k, alpha, a, b, c);
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) {
  detail::transpose(detail::cpu_isa(), rows, cols, src, dst);
}

void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c) {
  detail::gemm_s8_nn(detail::cpu_isa(), m, n, k, a, b, c);
}

void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c) {
  detail::gemm_s8_nt(detail::cpu_isa(), m, n, k, a, b, c);
}

void detail::gemm_nn(Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
                     const float* a, const float* b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  gemm_blocked<f32::Kernels>(isa, m, n, k, alpha, a, b, c);
}

void detail::gemm_nt(Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
                     const float* a, const float* b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  t_pack_b.resize(k * n);
  transpose(isa, n, k, b, t_pack_b.data());  // B: N x K -> B^T: K x N
  gemm_blocked<f32::Kernels>(isa, m, n, k, alpha, a, t_pack_b.data(), c);
}

void detail::gemm_s8_nn(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                        const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
  if (m == 0 || n == 0 || k == 0) return;
  const std::size_t kp = (k + 1) / 2;
  t_pack_a8.resize(m * kp);
  t_pack_b8.resize(kp * n);
  s8::pack_a(m, k, a, t_pack_a8.data());
  s8::pack_b_nn(k, n, b, t_pack_b8.data());
  gemm_blocked<s8::Kernels>(isa, m, n, kp, {}, t_pack_a8.data(), t_pack_b8.data(), c);
}

void detail::gemm_s8_nt(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                        const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
  if (m == 0 || n == 0 || k == 0) return;
  const std::size_t kp = (k + 1) / 2;
  t_pack_a8.resize(m * kp);
  t_pack_b8.resize(kp * n);
  s8::pack_a(m, k, a, t_pack_a8.data());
  s8::pack_b_nt(n, k, b, t_pack_b8.data());
  gemm_blocked<s8::Kernels>(isa, m, n, kp, {}, t_pack_a8.data(), t_pack_b8.data(), c);
}

// An exact copy. On the SIMD bands with both sides at least 8, one pass of
// 8 x 8 register tiles, each eight 8-float runs of src in and eight of dst
// out, so neither side is walked one strided element at a time whatever the
// shape (an 8 x 196 conv delta, a 2048 x 16 FC delta), the remainders
// copied element by element; otherwise 32 x 32 blocks of scalar copies keep
// both sides cache friendly. Parallel over destination row bands (disjoint
// writes).
void detail::transpose(Isa isa, std::size_t rows, std::size_t cols, const float* src,
                       float* dst) {
  if (rows == 0 || cols == 0) return;
#if defined(__x86_64__)
  if (isa != Isa::kScalar && rows >= 8 && cols >= 8) {
    const std::size_t grain = 1 + (std::size_t{1} << 11) / rows;
    par::parallel_for((cols + 7) / 8, grain, [&](par::Range b) {
      transpose_avx2(rows, cols, src, dst, b.begin * 8, b.end * 8);
    });
    return;
  }
#endif
  constexpr std::size_t kBlk = 32;
  const std::size_t col_blocks = (cols + kBlk - 1) / kBlk;
  par::parallel_for(col_blocks, 4, [&](par::Range blk) {
    for (std::size_t cb = blk.begin; cb < blk.end; ++cb) {
      const std::size_t c0 = cb * kBlk;
      const std::size_t c1 = c0 + kBlk < cols ? c0 + kBlk : cols;
      for (std::size_t r0 = 0; r0 < rows; r0 += kBlk) {
        const std::size_t r1 = r0 + kBlk < rows ? r0 + kBlk : rows;
        for (std::size_t c = c0; c < c1; ++c) {
          for (std::size_t r = r0; r < r1; ++r) dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  });
}

}  // namespace plinius::ml
