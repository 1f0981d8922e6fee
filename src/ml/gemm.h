// Dense GEMM kernels for the convolutional and connected layers (im2col +
// gemm, as Darknet). Row-major storage throughout.
//
// C[M x N] += alpha * A * B (gemm_nn) or alpha * A * B^T (gemm_nt): the two
// products the layers issue. A transposed A is the caller's transpose()
// followed by gemm_nn.
//
// Implementation (ml/gemm.cc): both entry points run one row-major M x K by
// K x N product. gemm_nt first transposes B into contiguous row-major
// scratch; then a cache-blocked register-tiled kernel runs parallelized over
// MR-row output tiles via par::parallel_for.
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
// accumulator adds a[i][p] * b[j][p] in ascending p (one fused multiply-add
// each, on every band), then C += block sum (fma(1, sum, C): one rounding of
// the same two values) — and the products commute. Two layers rely on it:
// ConnectedLayer::forward chooses its orientation from its own shape, and
// ConvLayer::backward accumulates its momentum-carried weight gradient
// transposed, dW^T += cols x delta^T, so each sample's gemm packs the small
// delta instead of the column matrix (tests/gemm_test.cpp and the
// LayerLowering tests in tests/ml_test.cpp pin both).
//
// Across hosts the results are bitwise on any x86-64 host; every band is
// compiled into every build and picked by CPUID (ml/isa.h): a blocked
// scalar band, an AVX2/FMA band and an AVX-512 band. Each fuses every
// multiply-add (std::fma on the scalar band) over the same K order, and
// tests/gemm_test.cpp's GemmBands suite compares every band the CPU runs.
// This holds for alpha = 1, which every caller passes: the 6-row bands
// fold alpha into A in their edge tiles, the AVX-512 band applies it to
// the block sum, and only a power-of-two alpha rounds the same both ways.
#pragma once

#include <cstddef>

#include "ml/isa.h"

namespace plinius::ml {

/// C += alpha * A * B      (A: M x K, B: K x N)
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c);

/// C += alpha * A * B^T    (A: M x K, B: N x K)
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c);

/// dst[cols x rows] = src[rows x cols]^T (out of place, exact copy).
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst);

namespace detail {

/// The entry points above on band `isa`, which this CPU must run
/// (isa <= cpu_isa()). They exist so tests can compare the bands.
void gemm_nn(Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, const float* b, float* c);
void gemm_nt(Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, const float* b, float* c);
void transpose(Isa isa, std::size_t rows, std::size_t cols, const float* src, float* dst);

}  // namespace detail

}  // namespace plinius::ml
