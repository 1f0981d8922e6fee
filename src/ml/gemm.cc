#include "ml/gemm.h"

#include <vector>

#include "common/parallel.h"
#include "ml/gemm_kernel_avx512.h"
#include "ml/gemm_reference.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define PLINIUS_GEMM_AVX2 1
#endif

namespace plinius::ml {

namespace {

// Register tile: MR output rows x NR output columns held in accumulators
// across the K loop. 6 x 16 floats is 12 ymm accumulators, leaving three
// registers for the two B vectors and the broadcast A element — the classic
// AVX2 GEMM tile shape. KC blocks the K dimension so the B panel slice
// streamed by a tile sweep stays cache resident.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;

// Minimum multiply-accumulates worth one pool dispatch; below this the
// whole call runs on the caller thread.
constexpr double kMinMacsPerChunk = 1 << 15;

// Computes C[i0..i0+rows) x [j0..j0+kNr) for one KC block. `rows` <= kMr.
// One accumulator per C element, K ascending: the per-element rounding
// sequence is independent of how tiles are distributed over threads.
//
// The AVX2 path is written with intrinsics rather than relying on the
// auto-vectorizer: GCC 12 at -O3 vectorizes this exact loop nest at 128-bit
// width with the accumulator tile spilled to the stack (~10x slower than
// the ~26 GFLOP/s the intrinsic form reaches on one core). The scalar
// fallback computes the same per-element FMA sequence, just narrower.
template <std::size_t Rows>
void micro_full(std::size_t n, std::size_t k, float alpha, const float* a,
                const float* b, float* c, std::size_t i0, std::size_t j0,
                std::size_t p0, std::size_t p1) {
#if PLINIUS_GEMM_AVX2
  static_assert(kNr == 16, "two ymm accumulators per row");
  __m256 acc[Rows][2];
  for (std::size_t r = 0; r < Rows; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::size_t p = p0; p < p1; ++p) {
    const float* brow = b + p * n + j0;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (std::size_t r = 0; r < Rows; ++r) {
      // Plain broadcast (no alpha) is a single vbroadcastss from memory;
      // alpha is applied once per C element at the update below instead of
      // once per multiply-accumulate.
      const __m256 apart = _mm256_set1_ps(a[(i0 + r) * k + p]);
      acc[r][0] = _mm256_fmadd_ps(apart, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(apart, b1, acc[r][1]);
    }
  }
  const __m256 av = _mm256_set1_ps(alpha);
  for (std::size_t r = 0; r < Rows; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    _mm256_storeu_ps(crow, _mm256_fmadd_ps(av, acc[r][0], _mm256_loadu_ps(crow)));
    _mm256_storeu_ps(crow + 8,
                     _mm256_fmadd_ps(av, acc[r][1], _mm256_loadu_ps(crow + 8)));
  }
#else
  float acc[Rows][kNr] = {};
  for (std::size_t p = p0; p < p1; ++p) {
    const float* brow = b + p * n + j0;
    for (std::size_t r = 0; r < Rows; ++r) {
      const float apart = a[(i0 + r) * k + p];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += apart * brow[j];
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::size_t j = 0; j < kNr; ++j) crow[j] += alpha * acc[r][j];
  }
#endif
}

// Column remainder (n % kNr): same expression per element, variable width.
// Edge-only, so the scalar form is fine at any ISA level.
void micro_tail(std::size_t n, std::size_t k, float alpha, const float* a,
                const float* b, float* c, std::size_t i0, std::size_t rows,
                std::size_t j0, std::size_t cols, std::size_t p0, std::size_t p1) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = p0; p < p1; ++p) {
    const float* brow = b + p * n + j0;
    for (std::size_t r = 0; r < rows; ++r) {
      const float apart = alpha * a[(i0 + r) * k + p];
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] += apart * brow[j];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
  }
}

// One task's band of row tiles: KC blocks outermost (so every tile finishes
// block p0..p1 before any tile starts the next block — the per-element K
// order is still simply ascending), register tiles inside.
void band(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
          const float* b, float* c, std::size_t tile_begin, std::size_t tile_end) {
  const std::size_t n_full = n - n % kNr;
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = p0 + kKc < k ? p0 + kKc : k;
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
      const std::size_t i0 = t * kMr;
      const std::size_t rows = i0 + kMr <= m ? kMr : m - i0;
      if (rows == kMr) {
        for (std::size_t j0 = 0; j0 < n_full; j0 += kNr) {
          micro_full<kMr>(n, k, alpha, a, b, c, i0, j0, p0, p1);
        }
      } else {
        for (std::size_t j0 = 0; j0 < n_full; j0 += kNr) {
          micro_tail(n, k, alpha, a, b, c, i0, rows, j0, kNr, p0, p1);
        }
      }
      if (n_full < n) micro_tail(n, k, alpha, a, b, c, i0, rows, n_full, n - n_full, p0, p1);
    }
  }
}

/// Row-major M x K by K x N kernel, parallel over mr-row output tiles.
/// The best compiled-in + CPU-supported band kernel wins: AVX-512, then
/// AVX2 (this TU's micro kernels), with tile height matched to the kernel.
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* b, float* c) {
  const bool use512 = detail::avx512_usable();
  const std::size_t mr = use512 ? detail::kMrAvx512 : kMr;
  const std::size_t ntiles = (m + mr - 1) / mr;
  const double tile_macs =
      static_cast<double>(mr) * static_cast<double>(n) * static_cast<double>(k);
  const auto grain = static_cast<std::size_t>(kMinMacsPerChunk / (tile_macs + 1.0)) + 1;
  par::parallel_for(ntiles, grain, [&](par::Range r) {
    if (use512) {
      detail::band_avx512(m, n, k, alpha, a, b, c, r.begin, r.end);
    } else {
      band(m, n, k, alpha, a, b, c, r.begin, r.end);
    }
  });
}

// Blocked out-of-place transpose: dst (rows x cols, row-major) from
// src (cols x rows, row-major). 32x32 blocks keep both sides cache friendly;
// parallel over destination row blocks (disjoint writes).
void transpose_pack(std::size_t rows, std::size_t cols, const float* src, float* dst) {
  constexpr std::size_t kBlk = 32;
  const std::size_t row_blocks = (rows + kBlk - 1) / kBlk;
  par::parallel_for(row_blocks, 4, [&](par::Range blk) {
    for (std::size_t rb = blk.begin; rb < blk.end; ++rb) {
      const std::size_t r0 = rb * kBlk;
      const std::size_t r1 = r0 + kBlk < rows ? r0 + kBlk : rows;
      for (std::size_t c0 = 0; c0 < cols; c0 += kBlk) {
        const std::size_t c1 = c0 + kBlk < cols ? c0 + kBlk : cols;
        for (std::size_t r = r0; r < r1; ++r) {
          for (std::size_t c = c0; c < c1; ++c) dst[r * cols + c] = src[c * rows + r];
        }
      }
    }
  });
}

// Panel-pack scratch. Thread-local: gemm is dispatched from one orchestrating
// thread at a time (layer code), and worker threads never re-enter gemm.
thread_local std::vector<float> t_pack_a;
thread_local std::vector<float> t_pack_b;

bool cpu_has_kernel_isa() {
#if defined(__AVX2__) && defined(__FMA__)
  // This TU was compiled with AVX2/FMA; verify the CPU agrees, else use the
  // scalar reference kernels (compiled with default flags, always safe).
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return true;
#endif
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  if (!cpu_has_kernel_isa()) return reference::gemm_nn(m, n, k, alpha, a, b, c);
  gemm_packed(m, n, k, alpha, a, b, c);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  if (!cpu_has_kernel_isa()) return reference::gemm_nt(m, n, k, alpha, a, b, c);
  t_pack_b.resize(k * n);
  transpose_pack(k, n, b, t_pack_b.data());  // B: N x K -> B^T: K x N
  gemm_packed(m, n, k, alpha, a, t_pack_b.data(), c);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  if (!cpu_has_kernel_isa()) return reference::gemm_tn(m, n, k, alpha, a, b, c);
  t_pack_a.resize(m * k);
  transpose_pack(m, k, a, t_pack_a.data());  // A: K x M -> A^T: M x K
  gemm_packed(m, n, k, alpha, t_pack_a.data(), b, c);
}

void gemm_tt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  if (!cpu_has_kernel_isa()) return reference::gemm_tt(m, n, k, alpha, a, b, c);
  t_pack_a.resize(m * k);
  transpose_pack(m, k, a, t_pack_a.data());
  t_pack_b.resize(k * n);
  transpose_pack(k, n, b, t_pack_b.data());
  gemm_packed(m, n, k, alpha, t_pack_a.data(), t_pack_b.data(), c);
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) {
  transpose_pack(cols, rows, src, dst);
}

void gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, const float* b, float* c) {
  if (!ta && !tb) {
    gemm_nn(m, n, k, alpha, a, b, c);
  } else if (!ta && tb) {
    gemm_nt(m, n, k, alpha, a, b, c);
  } else if (ta && !tb) {
    gemm_tn(m, n, k, alpha, a, b, c);
  } else {
    gemm_tt(m, n, k, alpha, a, b, c);
  }
}

}  // namespace plinius::ml
