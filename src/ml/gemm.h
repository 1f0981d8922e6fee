// Dense GEMM for the convolutional and connected layers (im2col + gemm, as
// Darknet): a float product for training and an int8 one for quantized
// inference. Row-major storage throughout.
//
//   float  C[M x N] += alpha * A * B (gemm_nn) or alpha * A * B^T (gemm_nt),
//          the two products the layers issue. A transposed A is the
//          caller's transpose() followed by gemm_nn.
//   int8   C[int32] += A[int8] * B[int8] (gemm_s8_nn) or A * B^T
//          (gemm_s8_nt), the products ml/quant.h lowers conv and connected
//          layers onto. The caller requantizes C, so there is no alpha.
//
// Implementation (ml/gemm.cc): one blocked driver runs both as a row-major
// M x K by K x N product over 4-byte elements, parallel over MR-row output
// tiles via par::parallel_for. Inside a task, K goes in KC-step blocks and
// each block in MR x 16 register tiles: a band's full tile, a scalar edge
// tile for the remainders, and on AVX-512 one tile per row count (1..16)
// with masked lanes for the column remainder. A kernel policy per element
// type supplies the tiles, and with them how a block sum goes into C:
//
//   float  one K step is one float. Every tile, on every band, adds its
//          block sum once, C = fma(alpha, sum, C). gemm_nt first transposes
//          B into contiguous scratch.
//   int8   one K step is one K pair. Both operands are first packed into
//          int32 words, each two sign-extended int16 lanes of one pair: A
//          as M x ceil(K/2), B as ceil(K/2) x N (gemm_s8_nt packs straight
//          from N x K, no transpose pass). One madd_epi16 then sums a pair's
//          two products into an int32 lane, exact for any |value| <= 127;
//          odd K zero-pads the last pair. Every tile adds C = C + sum.
//
// Packing rule for B: when its rows lie >= 4 KiB apart (N >= 1024
// elements), each KC x 128 block of B is copied into contiguous KC x 16
// column strips before the register tiles read it (a 2048-wide connected
// layer's input gradient, 16 x 2048 x 2048 at batch 16, and its weight
// gradient, in 48-row blocks of 2048 x 2048 x 16); a tile reading such B in
// place touches one cache line in each of KC rows 8 KiB apart. Narrower B
// (every conv shape) is read in place. The choice depends only on N, and a
// packed strip holds the same values in the same K order, so the result is
// the same bits either way. Scratch: 128 KiB per thread that runs a packed
// band.
//
// Determinism contract: for each C element the K-dimension is accumulated in
// a fixed order (KC blocks ascending, K ascending inside a block, one
// register accumulator per element), and the parallel work unit is an
// MR-row tile whose code path depends only on the matrix shape. Results are
// therefore bitwise identical at every thread count, including 1. Integer
// sums are exact in any order: each product is at most 127^2, so an int32
// sum from zero is exact for K up to 2^31 / 127^2, about 133 thousand.
//
// Transpose symmetry: gemm_nt(m, n, k, A, B) into C is bitwise the
// transpose of gemm_nt(n, m, k, B, A) into C^T, for any C, not only a zeroed
// one. Every C element is the same chain on either orientation and in every
// tile shape (full, row tail, column tail): per KC block, one accumulator
// adds a[i][p] * b[j][p] in ascending p (one fused multiply-add each, on
// every band), then C = fma(alpha, sum, C) — and the products commute. Two
// layers rely on it: ConnectedLayer::forward chooses its orientation from
// its own shape, and ConvLayer::backward accumulates its momentum-carried
// weight gradient transposed, dW^T += cols x delta^T, so each sample's gemm
// packs the small delta instead of the column matrix (tests/gemm_test.cpp
// and the LayerLowering tests in tests/ml_test.cpp pin both).
//
// Across hosts the results are bitwise on any x86-64 host, for any alpha;
// every band is compiled into every build and picked by CPUID (ml/isa.h): a
// blocked scalar band, an AVX2/FMA band and an AVX-512 band (F for float,
// BW for int8). Each float band fuses every multiply-add (std::fma on the
// scalar band) over the same K order, and tests/gemm_test.cpp's GemmBands
// suite compares every band the CPU runs.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// C += A * B      (A: M x K int8, B: K x N int8, C: M x N int32)
void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

/// C += A * B^T    (A: M x K int8, B: N x K int8, C: M x N int32)
void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

namespace detail {

/// The entry points above on band `isa`, which this CPU must run
/// (isa <= cpu_isa()). They exist so tests can compare the bands.
void gemm_nn(Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, const float* b, float* c);
void gemm_nt(Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, const float* b, float* c);
void transpose(Isa isa, std::size_t rows, std::size_t cols, const float* src, float* dst);
void gemm_s8_nn(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const std::int8_t* b, std::int32_t* c);
void gemm_s8_nt(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const std::int8_t* b, std::int32_t* c);

}  // namespace detail

}  // namespace plinius::ml
