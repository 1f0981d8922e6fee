#include "ml/gemm.h"

#include <cmath>
#include <cstring>
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

using detail::GemmBlock;
using detail::kStrip;

// Register tile: MR output rows x NR output columns held in accumulators
// across the K loop. 6 x 16 floats is 12 ymm accumulators, leaving three
// registers for the two B vectors and the broadcast A element — the classic
// AVX2 GEMM tile shape. KC blocks the K dimension so the B panel slice
// streamed by a tile sweep stays cache resident.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = kStrip;
constexpr std::size_t kKc = 256;

// B whose rows lie at least this many floats (4 KiB) apart is packed, one
// KC x kNc block at a time, into KC x 16 strips before the tiles read it: a
// tile reading B in place touches one 64-byte line in each of KC rows that
// far apart (16 x 2048 x 2048 ran 2-3x slower that way at one thread).
// Narrower B (every conv shape, n <= 196) is read in place. The panel
// scratch is kKc * kNc floats (128 KiB) per thread.
constexpr std::size_t kPackMinN = 1024;
constexpr std::size_t kNc = 128;

// Minimum multiply-accumulates worth one pool dispatch; below this the
// whole call runs on the caller thread.
constexpr double kMinMacsPerChunk = 1 << 15;

// Computes one Rows x 16 tile of C over kc steps of K (A rows lda apart, B
// rows ldb apart, C rows ldc apart). One accumulator per C element, K
// ascending: the per-element rounding sequence is independent of how tiles
// are distributed over threads and of where B is read from.
//
// The AVX2 path is written with intrinsics rather than relying on the
// auto-vectorizer: GCC 12 at -O3 vectorizes this exact loop nest at 128-bit
// width with the accumulator tile spilled to the stack (~10x slower than
// the ~26 GFLOP/s the intrinsic form reaches on one core). The scalar
// fallback computes the same per-element FMA sequence, just narrower:
// std::fma rounds once, as the SIMD bands do, so a build without AVX2
// produces the same bits.
template <std::size_t Rows>
void micro_full(std::size_t kc, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float* c, std::size_t ldc) {
#if PLINIUS_GEMM_AVX2
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
#else
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
#endif
}

// Row or column remainder, `rows` x `cols`: same expression per element.
// Edge-only, so the scalar form is fine at any ISA level.
void micro_tail(std::size_t kc, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float* c, std::size_t ldc,
                std::size_t rows, std::size_t cols) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::size_t r = 0; r < rows; ++r) {
      const float apart = alpha * a[r * lda + p];
      for (std::size_t j = 0; j < cols; ++j) {
        acc[r][j] = std::fma(apart, brow[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
  }
}

// One task's band of row tiles over block g.
void band(const GemmBlock& g, std::size_t tile_begin, std::size_t tile_end) {
  const std::size_t kc = g.p1 - g.p0;
  const std::size_t full = (g.j1 - g.j0) / kNr;
  const std::size_t tail = (g.j1 - g.j0) % kNr;
  const std::size_t lda = g.k;
  const std::size_t ldc = g.n;
  const std::size_t ldb = g.ldb;
  const std::size_t strip = g.strip;
  const float* b = g.b;
  const float alpha = g.alpha;
  for (std::size_t t = tile_begin; t < tile_end; ++t) {
    const std::size_t i0 = t * kMr;
    const std::size_t rows = i0 + kMr <= g.m ? kMr : g.m - i0;
    const float* a = g.a + i0 * lda + g.p0;
    float* c = g.c + i0 * ldc + g.j0;
    for (std::size_t s = 0; s < full; ++s) {
      if (rows == kMr) {
        micro_full<kMr>(kc, alpha, a, lda, b + s * strip, ldb, c + s * kNr, ldc);
      } else {
        micro_tail(kc, alpha, a, lda, b + s * strip, ldb, c + s * kNr, ldc, rows, kNr);
      }
    }
    if (tail != 0) {
      micro_tail(kc, alpha, a, lda, b + full * strip, ldb, c + full * kNr, ldc, rows,
                 tail);
    }
  }
}

// Panel and transpose scratch. Thread-local: each thread packs into its own,
// so the pool's workers can run gemm calls side by side (ConnectedLayer's
// update runs one per row block; a nested call runs inline on its worker).
thread_local std::vector<float> t_panel;
thread_local std::vector<float> t_pack_b;

// Copies rows [0, kc) x columns [0, cols) of `src` (row stride ld) into
// 16-column strips, each kc x 16 and contiguous; returns the panel.
const float* pack_panel(const float* src, std::size_t ld, std::size_t kc,
                        std::size_t cols) {
  t_panel.resize(kKc * kNc);
  float* panel = t_panel.data();
  const std::size_t full = cols / kNr;
  const std::size_t tail = cols % kNr;
  for (std::size_t p = 0; p < kc; ++p) {
    const float* row = src + p * ld;
    float* dst = panel + p * kNr;
    for (std::size_t s = 0; s < full; ++s) {
      std::memcpy(dst + s * kc * kNr, row + s * kNr, kNr * sizeof(float));
    }
    if (tail != 0) {
      std::memcpy(dst + full * kc * kNr, row + full * kNr, tail * sizeof(float));
    }
  }
  return panel;
}

/// Row-major M x K by K x N kernel, parallel over mr-row output tiles.
/// The best compiled-in + CPU-supported band kernel wins: AVX-512, then
/// AVX2 (this TU's micro kernels), with tile height matched to the kernel.
/// Every band walks the KC blocks in ascending order.
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* b, float* c) {
  const bool use512 = detail::avx512_usable();
  const std::size_t mr = use512 ? detail::kMrAvx512 : kMr;
  const std::size_t ntiles = (m + mr - 1) / mr;
  const double tile_macs =
      static_cast<double>(mr) * static_cast<double>(n) * static_cast<double>(k);
  const auto grain = static_cast<std::size_t>(kMinMacsPerChunk / (tile_macs + 1.0)) + 1;
  const bool pack = n >= kPackMinN;
  par::parallel_for(ntiles, grain, [&](par::Range r) {
    const auto run = [&](const GemmBlock& g) {
      if (use512) {
        detail::band_avx512(g, r.begin, r.end);
      } else {
        band(g, r.begin, r.end);
      }
    };
    GemmBlock g{m, n, k, alpha, a, c, 0, 0, 0, n, nullptr, n, kNr};
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

#if PLINIUS_GEMM_AVX2
// d[j][i] = s[i][j] for one 8 x 8 tile (row strides lds and ldd), through
// registers: eight 8-float loads, three shuffle stages, eight 8-float stores.
void transpose_tile(const float* s, std::size_t lds, float* d, std::size_t ldd) {
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
#endif

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
  transpose(n, k, b, t_pack_b.data());  // B: N x K -> B^T: K x N
  gemm_packed(m, n, k, alpha, a, t_pack_b.data(), c);
}

// An exact copy. With AVX2 and both sides at least 8, one pass of 8 x 8
// register tiles, each eight 8-float runs of src in and eight of dst out, so
// neither side is walked one strided element at a time whatever the shape
// (an 8 x 196 conv delta, a 2048 x 16 FC delta), the remainders copied
// element by element; otherwise 32 x 32 blocks of scalar copies keep both
// sides cache friendly. Parallel over destination row bands (disjoint
// writes).
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) {
  if (rows == 0 || cols == 0) return;
#if PLINIUS_GEMM_AVX2
  if (rows >= 8 && cols >= 8 && cpu_has_kernel_isa()) {
    const std::size_t rf = rows - rows % 8;
    const std::size_t grain = 1 + (std::size_t{1} << 11) / rows;
    par::parallel_for((cols + 7) / 8, grain, [&](par::Range b) {
      for (std::size_t c0 = b.begin * 8; c0 < b.end * 8 && c0 < cols; c0 += 8) {
        const std::size_t r0 = c0 + 8 <= cols ? rf : 0;
        for (std::size_t r = 0; r < r0; r += 8) {
          transpose_tile(src + r * cols + c0, cols, dst + c0 * rows + r, rows);
        }
        for (std::size_t c = c0; c < c0 + 8 && c < cols; ++c) {
          for (std::size_t r = r0; r < rows; ++r) dst[c * rows + r] = src[r * cols + c];
        }
      }
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
