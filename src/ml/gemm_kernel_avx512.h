// AVX-512 GEMM band kernel, isolated in its own translation unit so it can
// be compiled with -mavx512f while the rest of the library (including the
// AVX2 kernels in gemm.cc and the scalar reference) keeps its own flags.
//
// Dispatch contract: callers must check avx512_usable() first — it is true
// only when this TU was compiled with AVX-512 support AND the CPU reports
// AVX512F at runtime. band_avx512 throws if called when not usable.
//
// Same determinism contract as the other kernels (see ml/gemm.h): one
// accumulator per C element, K ascending within the caller's KC block (the
// caller, ml/gemm.cc, walks the blocks in ascending order), work split in
// units of kMrAvx512 output rows whose code path depends only on the
// matrix shape. Column remainders use masked 512-bit lanes and row
// remainders use narrower register tiles — both are functions of the shape
// alone, so results are bitwise identical at every thread count.
#pragma once

#include <cstddef>

namespace plinius::ml::detail {

/// Output rows per register tile (one zmm of 16 floats per row).
inline constexpr std::size_t kMrAvx512 = 16;

/// Columns per register tile and per B strip, shared with the AVX2 kernel.
inline constexpr std::size_t kStrip = 16;

/// One KC block of C[m x n] += alpha * A[m x k] * B[k x n], row-major: the
/// K range [p0, p1) over the C columns [j0, j1). The band kernels read B in
/// 16-column strips; element (p, j) of strip s (C column j0 + 16 s + j)
/// sits at b[s * strip + (p - p0) * ldb + j]. B read in place is
/// {B + p0 * n + j0, ldb = n, strip = 16}; a packed panel is
/// {panel, ldb = 16, strip = (p1 - p0) * 16}.
struct GemmBlock {
  std::size_t m, n, k;
  float alpha;
  const float* a;
  float* c;
  std::size_t p0, p1;
  std::size_t j0, j1;
  const float* b;
  std::size_t ldb, strip;
};

/// True when the AVX-512 kernel is compiled in and the CPU supports it.
[[nodiscard]] bool avx512_usable();

/// Adds block `g` into C rows [tile_begin*kMrAvx512, tile_end*kMrAvx512).
void band_avx512(const GemmBlock& g, std::size_t tile_begin, std::size_t tile_end);

}  // namespace plinius::ml::detail
