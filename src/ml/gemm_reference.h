// Reference GEMM kernels: the original scalar triple loops this repo seeded
// with, in their own library (plinius_gemm_reference) that nothing in src/
// links. They are kept for two purposes:
//
//   * oracle for tests: ml::gemm_nn and ml::gemm_nt must match gemm_nn and
//     gemm_nt here to floating-point reassociation tolerance, and every band
//     of the int8 kernels in ml/gemm.h must match gemm_s8_nn and
//     gemm_s8_nt bitwise;
//   * baseline for benchmarks: bench/micro_kernels and bench/parallel_sweep
//     report the optimized kernels' speedup over exactly this code, compiled
//     with the project's default flags.
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

// INT8 inference GEMM oracles (C accumulates in int32; no alpha — the
// requantization multiplier is applied by the caller). Integer arithmetic is
// exact, so the blocked kernels in ml/gemm.h must match these bitwise.

/// C += A * B      (A: M x K int8, B: K x N int8, C: M x N int32)
void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

/// C += A * B^T    (A: M x K int8, B: N x K int8, C: M x N int32)
void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c);

}  // namespace plinius::ml::reference
