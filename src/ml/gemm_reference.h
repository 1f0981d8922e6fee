// Reference GEMM kernels: the original scalar triple loops this repo seeded
// with (plus a trivially-correct gemm_tt written index-by-index from the
// definition). They are kept for two purposes:
//
//   * oracle for tests: the blocked/parallel kernels in ml/gemm.h must match
//     these to floating-point reassociation tolerance on all four transpose
//     variants;
//   * baseline for benchmarks: bench/micro_kernels and bench/parallel_sweep
//     report the optimized kernels' speedup over exactly this code, compiled
//     with the project's default flags (no extra SIMD options);
//   * fallback: ml::gemm_nn/nt/tn/tt run these loops on CPUs without
//     AVX2/FMA, so there they are the training path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace plinius::ml::reference {

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

/// Dispatch mirroring ml::gemm(TA, TB, ...).
void gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, const float* b, float* c);

// INT8 inference GEMM oracles (C accumulates in int32; no alpha — the
// requantization multiplier is applied by the caller). Integer arithmetic is
// exact, so the blocked kernels in ml/gemm_s8.h must match these bitwise.

/// C += A * B      (A: M x K int8, B: K x N int8, C: M x N int32)
void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

/// C += A * B^T    (A: M x K int8, B: N x K int8, C: M x N int32)
void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

}  // namespace plinius::ml::reference
