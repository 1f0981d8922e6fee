#include "ml/gemm_reference.h"

namespace plinius::ml::reference {

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float apart = alpha * a[i * k + p];
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += apart * brow[j];
    }
  }
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float sum = 0;
      for (std::size_t p = 0; p < k; ++p) sum += arow[p] * brow[p];
      c[i * n + j] += alpha * sum;
    }
  }
}

void gemm_s8_nn(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t apart = a[i * k + p];
      const std::int8_t* brow = b + p * n;
      std::int32_t* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += apart * brow[j];
    }
  }
}

void gemm_s8_nt(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
                const std::int8_t* b, std::int32_t* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      std::int32_t sum = 0;
      for (std::size_t p = 0; p < k; ++p) {
        sum += static_cast<std::int32_t>(arow[p]) * brow[p];
      }
      c[i * n + j] += sum;
    }
  }
}

}  // namespace plinius::ml::reference
