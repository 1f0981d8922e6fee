#include "ml/gemm_s8.h"

#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "ml/gemm_reference.h"
#include "ml/gemm_s8_kernel_avx512.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define PLINIUS_GEMM_S8_AVX2 1
#endif

namespace plinius::ml {

namespace {

// Register tile, matching the float kernel's shape: MR output rows x NR
// output columns. With int32 accumulators a 6 x 16 tile is 12 ymm registers,
// leaving room for the two B vectors and the broadcast A pair.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
// K pairs per cache block (512 int8 K values): the packed B slice a tile
// sweep streams stays cache resident across the row tiles of a band.
constexpr std::size_t kKcPairs = 256;

// Minimum multiply-accumulates worth one pool dispatch (as the float path).
constexpr double kMinMacsPerChunk = 1 << 15;

// Pair-interleaved int16 packing. madd_epi16 multiplies 16-bit lanes
// pairwise and sums adjacent products into int32 lanes, so both operands are
// sign-extended to int16 and arranged so lane pairs line up:
//   apack (per row, stride 2*kp):  a[2pp], a[2pp+1], ...
//   bpack (per pair row, stride 2*n): b0[col0], b1[col0], b0[col1], ...
// Odd K zero-pads the final pair — exact in integer arithmetic.

void pack_a(std::size_t m, std::size_t k, const std::int8_t* a, std::int16_t* apack) {
  const std::size_t kp = (k + 1) / 2;
  par::parallel_for(m, 32, [&](par::Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::int8_t* arow = a + i * k;
      std::int16_t* dst = apack + i * 2 * kp;
      for (std::size_t pp = 0; pp < kp; ++pp) {
        dst[2 * pp] = arow[2 * pp];
        dst[2 * pp + 1] = 2 * pp + 1 < k ? arow[2 * pp + 1] : std::int16_t{0};
      }
    }
  });
}

void pack_b_nn(std::size_t k, std::size_t n, const std::int8_t* b,
               std::int16_t* bpack) {
  const std::size_t kp = (k + 1) / 2;
  par::parallel_for(kp, 32, [&](par::Range r) {
    for (std::size_t pp = r.begin; pp < r.end; ++pp) {
      const std::int8_t* b0 = b + (2 * pp) * n;
      const std::int8_t* b1 = 2 * pp + 1 < k ? b + (2 * pp + 1) * n : nullptr;
      std::int16_t* dst = bpack + pp * 2 * n;
      for (std::size_t j = 0; j < n; ++j) {
        dst[2 * j] = b0[j];
        dst[2 * j + 1] = b1 != nullptr ? b1[j] : std::int16_t{0};
      }
    }
  });
}

// B arrives N x K (row-major); packing indexes it transposed directly, so no
// separate transpose pass is needed.
void pack_b_nt(std::size_t n, std::size_t k, const std::int8_t* b,
               std::int16_t* bpack) {
  const std::size_t kp = (k + 1) / 2;
  par::parallel_for(kp, 32, [&](par::Range r) {
    for (std::size_t pp = r.begin; pp < r.end; ++pp) {
      std::int16_t* dst = bpack + pp * 2 * n;
      for (std::size_t j = 0; j < n; ++j) {
        const std::int8_t* brow = b + j * k;
        dst[2 * j] = brow[2 * pp];
        dst[2 * j + 1] = 2 * pp + 1 < k ? brow[2 * pp + 1] : std::int16_t{0};
      }
    }
  });
}

// Computes C[i0..i0+Rows) x [j0..j0+kNr) for one K-pair block. Each pair
// costs one madd_epi16 per row half: the B vector holds 8 interleaved column
// pairs, the A pair is broadcast as a 32-bit lane, and madd sums the two
// int16 products of every pair into its int32 lane — exact (2 * 127^2 fits),
// so the scalar fallback below computes identical bytes.
template <std::size_t Rows>
void micro_full(std::size_t n, std::size_t kp, const std::int16_t* apack,
                const std::int16_t* bpack, std::int32_t* c, std::size_t i0,
                std::size_t j0, std::size_t pp0, std::size_t pp1) {
#if PLINIUS_GEMM_S8_AVX2
  static_assert(kNr == 16, "two ymm accumulators per row");
  __m256i acc[Rows][2];
  for (std::size_t r = 0; r < Rows; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (std::size_t pp = pp0; pp < pp1; ++pp) {
    const std::int16_t* brow = bpack + pp * 2 * n + 2 * j0;
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));
    for (std::size_t r = 0; r < Rows; ++r) {
      std::int32_t pair;
      std::memcpy(&pair, apack + (i0 + r) * 2 * kp + 2 * pp, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(pair);
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, b0));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, b1));
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    std::int32_t* crow = c + (i0 + r) * n + j0;
    auto* c0 = reinterpret_cast<__m256i*>(crow);
    auto* c1 = reinterpret_cast<__m256i*>(crow + 8);
    _mm256_storeu_si256(c0, _mm256_add_epi32(_mm256_loadu_si256(c0), acc[r][0]));
    _mm256_storeu_si256(c1, _mm256_add_epi32(_mm256_loadu_si256(c1), acc[r][1]));
  }
#else
  std::int32_t acc[Rows][kNr] = {};
  for (std::size_t pp = pp0; pp < pp1; ++pp) {
    const std::int16_t* brow = bpack + pp * 2 * n + 2 * j0;
    for (std::size_t r = 0; r < Rows; ++r) {
      const std::int16_t* apair = apack + (i0 + r) * 2 * kp + 2 * pp;
      const std::int32_t a0 = apair[0];
      const std::int32_t a1 = apair[1];
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[r][j] += a0 * brow[2 * j] + a1 * brow[2 * j + 1];
      }
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    std::int32_t* crow = c + (i0 + r) * n + j0;
    for (std::size_t j = 0; j < kNr; ++j) crow[j] += acc[r][j];
  }
#endif
}

// Row/column remainder: same per-element integer sums, variable extent.
// Edge-only, so the scalar form is fine at any ISA level.
void micro_tail(std::size_t n, std::size_t kp, const std::int16_t* apack,
                const std::int16_t* bpack, std::int32_t* c, std::size_t i0,
                std::size_t rows, std::size_t j0, std::size_t cols,
                std::size_t pp0, std::size_t pp1) {
  std::int32_t acc[kMr][kNr] = {};
  for (std::size_t pp = pp0; pp < pp1; ++pp) {
    const std::int16_t* brow = bpack + pp * 2 * n + 2 * j0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int16_t* apair = apack + (i0 + r) * 2 * kp + 2 * pp;
      const std::int32_t a0 = apair[0];
      const std::int32_t a1 = apair[1];
      for (std::size_t j = 0; j < cols; ++j) {
        acc[r][j] += a0 * brow[2 * j] + a1 * brow[2 * j + 1];
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::int32_t* crow = c + (i0 + r) * n + j0;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
  }
}

// One task's band of row tiles: K-pair blocks outermost, register tiles
// inside (same structure as the float band, though for integers the order is
// cosmetic — every order yields identical bytes).
void band(std::size_t m, std::size_t n, std::size_t kp, const std::int16_t* apack,
          const std::int16_t* bpack, std::int32_t* c, std::size_t tile_begin,
          std::size_t tile_end) {
  const std::size_t n_full = n - n % kNr;
  for (std::size_t pp0 = 0; pp0 < kp; pp0 += kKcPairs) {
    const std::size_t pp1 = pp0 + kKcPairs < kp ? pp0 + kKcPairs : kp;
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
      const std::size_t i0 = t * kMr;
      const std::size_t rows = i0 + kMr <= m ? kMr : m - i0;
      if (rows == kMr) {
        for (std::size_t j0 = 0; j0 < n_full; j0 += kNr) {
          micro_full<kMr>(n, kp, apack, bpack, c, i0, j0, pp0, pp1);
        }
      } else {
        for (std::size_t j0 = 0; j0 < n_full; j0 += kNr) {
          micro_tail(n, kp, apack, bpack, c, i0, rows, j0, kNr, pp0, pp1);
        }
      }
      if (n_full < n) {
        micro_tail(n, kp, apack, bpack, c, i0, rows, n_full, n - n_full, pp0, pp1);
      }
    }
  }
}

/// Packed M x kp by kp x N kernel, parallel over mr-row output tiles. The
/// best compiled-in + CPU-supported band kernel wins: AVX-512BW, then AVX2.
void gemm_s8_packed(std::size_t m, std::size_t n, std::size_t kp,
                    const std::int16_t* apack, const std::int16_t* bpack,
                    std::int32_t* c) {
  const bool use512 = detail::avx512_s8_usable();
  const std::size_t mr = use512 ? detail::kMrS8Avx512 : kMr;
  const std::size_t ntiles = (m + mr - 1) / mr;
  const double tile_macs = static_cast<double>(mr) * static_cast<double>(n) *
                           static_cast<double>(2 * kp);
  const auto grain = static_cast<std::size_t>(kMinMacsPerChunk / (tile_macs + 1.0)) + 1;
  par::parallel_for(ntiles, grain, [&](par::Range r) {
    if (use512) {
      detail::band_s8_avx512(m, n, kp, apack, bpack, c, r.begin, r.end);
    } else {
      band(m, n, kp, apack, bpack, c, r.begin, r.end);
    }
  });
}

// Pack scratch. Thread-local, as the float path's: each thread packs into its
// own, so calls may run side by side on the pool's workers (a nested call
// runs inline on its worker) without sharing scratch.
thread_local std::vector<std::int16_t> t_pack_a8;
thread_local std::vector<std::int16_t> t_pack_b8;

bool cpu_has_s8_kernel_isa() {
#if PLINIUS_GEMM_S8_AVX2
  // This TU was compiled with AVX2; verify the CPU agrees, else use the
  // scalar reference kernels (compiled with default flags, always safe).
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#else
  return true;
#endif
}

}  // namespace

void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c) {
  if (m == 0 || n == 0 || k == 0) return;
  if (!cpu_has_s8_kernel_isa()) return reference::gemm_s8_nn(m, n, k, a, b, c);
  const std::size_t kp = (k + 1) / 2;
  t_pack_a8.resize(m * 2 * kp);
  t_pack_b8.resize(kp * 2 * n);
  pack_a(m, k, a, t_pack_a8.data());
  pack_b_nn(k, n, b, t_pack_b8.data());
  gemm_s8_packed(m, n, kp, t_pack_a8.data(), t_pack_b8.data(), c);
}

void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c) {
  if (m == 0 || n == 0 || k == 0) return;
  if (!cpu_has_s8_kernel_isa()) return reference::gemm_s8_nt(m, n, k, a, b, c);
  const std::size_t kp = (k + 1) / 2;
  t_pack_a8.resize(m * 2 * kp);
  t_pack_b8.resize(kp * 2 * n);
  pack_a(m, k, a, t_pack_a8.data());
  pack_b_nt(n, k, b, t_pack_b8.data());
  gemm_s8_packed(m, n, kp, t_pack_a8.data(), t_pack_b8.data(), c);
}

}  // namespace plinius::ml
