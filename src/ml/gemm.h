// Dense GEMM kernels for the convolutional and connected layers (im2col +
// gemm, as Darknet). Row-major storage throughout.
//
// C[M x N] = alpha * op(A) * op(B) + C, where op is optional transposition.
//
// Implementation (ml/gemm.cc): every variant is normalized to a row-major
// M x K by K x N product — transposed operands are panel-packed into
// contiguous row-major scratch first (this is also what fixed the old
// gemm_tt's column-strided inner loop) — then a cache-blocked register-tiled
// kernel runs parallelized over MR-row output tiles via par::parallel_for.
//
// Packing rule for B: when its rows lie >= 4 KiB apart (N >= 1024 floats),
// each KC x 128 block of B is copied into contiguous KC x 16 column strips
// before the register tiles read it (a 2048-wide connected layer's input
// gradient, 16 x 2048 x 2048 at batch 16, and its weight gradient, in
// 48-row blocks of 2048 x 2048 x 16); a tile reading such B in place touches one cache line in each of KC rows
// 8 KiB apart. Narrower B (every conv shape) is read in place. The choice
// depends only on N, and a packed strip holds the same values in the same
// K order, so the result is the same bits either way. A is never packed by
// this rule. Scratch: 128 KiB per thread that runs a packed band.
//
// Determinism contract: for each C element the K-dimension is accumulated in
// a fixed order (KC blocks ascending, p ascending inside a block, one
// register accumulator per element), and the parallel work unit is an
// MR-row tile whose code path depends only on the matrix shape. Results are
// therefore bitwise identical at every thread count, including 1.
//
// Transpose symmetry: with alpha = 1, gemm_nt(m, n, k, A, B) into C is
// bitwise the transpose of gemm_nt(n, m, k, B, A) into C^T, for any C, not
// only a zeroed one. Every C element is the same chain on either orientation
// and in every tile shape (full, row tail, column tail): per KC block, one
// accumulator adds a[i][p] * b[j][p] in ascending p (fused on the SIMD
// paths), then C += block sum (fma(1, sum, C): one rounding of the same two
// values) — and the products commute. Two layers rely on it:
// ConnectedLayer::forward chooses its orientation from its own shape, and
// ConvLayer::backward accumulates its momentum-carried weight gradient
// transposed, dW^T += cols x delta^T, so each sample's gemm packs the small
// delta instead of the column matrix (tests/gemm_test.cpp and the
// LayerLowering tests in tests/ml_test.cpp pin both).
//
// When the build enables AVX2/FMA for this translation unit (the default on
// compilers that support it — see PLINIUS_GEMM_SIMD in src/CMakeLists.txt),
// the kernels check CPU support at runtime and fall back to the scalar
// reference kernels on hardware without AVX2.
#pragma once

#include <cstddef>

namespace plinius::ml {

/// C += alpha * A * B      (A: M x K, B: K x N)
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c);

/// C += alpha * A * B^T    (A: M x K, B: N x K)
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c);

/// C += alpha * A^T * B    (A: K x M, B: K x N)
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c);

/// C += alpha * A^T * B^T  (A: K x M, B: N x K)
void gemm_tt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c);

/// dst[cols x rows] = src[rows x cols]^T (out of place, exact copy).
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst);

/// General entry point mirroring Darknet's gemm(TA, TB, ...).
void gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, const float* b, float* c);

}  // namespace plinius::ml
