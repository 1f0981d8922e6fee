// INT8 inference GEMM kernels: C[int32] += A[int8] x B[int8].
//
// The quantized forward path (ml/quant.h) lowers conv and connected layers
// onto these two variants; the int32 accumulator is requantized back to int8
// by the caller, so there is no alpha and C always accumulates exactly.
//
// Implementation (ml/gemm_s8.cc): both operands are packed into
// pair-interleaved int16 panels — A as rows of (k+1)/2 sign-extended pairs,
// B as pair-rows of interleaved column pairs (the transposed variant packs
// straight from the N x K layout, no separate transpose pass) — so the AVX2
// and AVX-512BW micro kernels reduce each K pair with one _mm*_madd_epi16:
// two int8 products summed into an int32 lane, exact for any |value| <= 127.
// Odd K zero-pads the final pair, which is exact in integer arithmetic.
//
// Determinism contract: bitwise on any x86-64 host; every band (blocked
// scalar, AVX2, AVX-512BW) is compiled into every build and picked by CPUID
// (ml/isa.h). Integer addition is associative, so every band, every thread
// count and the gemm_reference oracles produce identical bytes by
// construction. The parallel work unit mirrors the float path (MR-row
// output tiles split by shape only).
//
// Accumulator range: each K pair contributes at most 2 * 127^2 to a lane, so
// the int32 accumulator is exact for K up to ~66 million — far beyond any
// layer this framework builds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ml/isa.h"

namespace plinius::ml {

/// C += A * B      (A: M x K int8, B: K x N int8, C: M x N int32)
void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

/// C += A * B^T    (A: M x K int8, B: N x K int8, C: M x N int32)
void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

namespace detail {

/// The entry points above on band `isa`, which this CPU must run
/// (isa <= cpu_isa()). They exist so tests can compare the bands.
void gemm_s8_nn(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const std::int8_t* b, std::int32_t* c);
void gemm_s8_nt(Isa isa, std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const std::int8_t* b, std::int32_t* c);

}  // namespace detail

}  // namespace plinius::ml
