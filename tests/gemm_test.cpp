// GEMM oracle tests: the blocked/panel-packed/parallel kernels in ml/gemm.h
// against the trivially-correct reference kernels in ml/gemm_reference.h,
// for both products (A * B and A * B^T), awkward shapes (tile remainders,
// vectors, empty dimensions), alpha values, and C-accumulation — plus the
// bitwise serial-vs-parallel identity the kernels guarantee by construction.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/gemm.h"
#include "ml/gemm_reference.h"

namespace {

using namespace plinius;

struct Shape {
  std::size_t m, n, k;
};

// Tiles in ml/gemm.cc are MR=6 rows (AVX2 and scalar kernels) or MR=16
// (AVX-512 kernel) by NR=16 columns, with KC=256: cover below, at, and above
// every boundary, plus degenerate vectors. The last three have n >= 1024, so
// their B is read from packed KC x 16 panels, 128 columns per block: an
// n % 16 tail, K over two KC blocks, and m below and above one tile.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 16, 7},  {3, 15, 5},   {4, 16, 16},  {5, 17, 31},
    {7, 33, 64}, {8, 48, 96}, {13, 29, 257}, {16, 64, 300}, {17, 24, 40},
    {31, 80, 40}, {32, 19, 70}, {64, 1, 64}, {1, 64, 64}, {33, 100, 20},
    {16, 1040, 300}, {5, 1024, 17}, {40, 2050, 260},
};

// Fills with values whose products stay well-scaled so a relative tolerance
// is meaningful.
std::vector<float> random_matrix(std::size_t len, Rng& rng) {
  std::vector<float> v(len);
  for (auto& x : v) x = rng.normal();
  return v;
}

void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  std::size_t k, const char* what, const Shape& s) {
  ASSERT_EQ(got.size(), want.size());
  // The blocked kernel reassociates the K reduction (register accumulators,
  // FMA); allow rounding proportional to the reduction length.
  const float tol = 1e-6f * std::sqrt(static_cast<float>(k + 1)) * 32.0f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol * scale)
        << what << " mismatch at " << i << " for m=" << s.m << " n=" << s.n
        << " k=" << s.k;
  }
}

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t, float, const float*,
                        const float*, float*);

void check_variant(GemmFn fast, GemmFn oracle, std::uint64_t seed, const char* what) {
  Rng rng(seed);
  for (const Shape& s : kShapes) {
    for (const float alpha : {1.0f, 0.5f, -2.0f}) {
      const auto a = random_matrix(s.m * s.k, rng);
      const auto b = random_matrix(s.k * s.n, rng);
      // Nonzero C: the kernels must accumulate, not overwrite.
      const auto c0 = random_matrix(s.m * s.n, rng);
      std::vector<float> got = c0, want = c0;
      fast(s.m, s.n, s.k, alpha, a.data(), b.data(), got.data());
      oracle(s.m, s.n, s.k, alpha, a.data(), b.data(), want.data());
      expect_close(got, want, s.k, what, s);
    }
  }
}

TEST(GemmOracle, NN) {
  check_variant(ml::gemm_nn, ml::reference::gemm_nn, 0xC0FFEE, "nn");
}
TEST(GemmOracle, NT) {
  check_variant(ml::gemm_nt, ml::reference::gemm_nt, 0xC0FFEE ^ 2, "nt");
}

TEST(GemmOracle, EmptyDimensionsAreNoOps) {
  const std::vector<float> a(64, 1.0f), b(64, 1.0f);
  std::vector<float> c(64, 3.0f);
  const std::vector<float> c0 = c;
  for (const GemmFn product : {ml::gemm_nn, ml::gemm_nt}) {
    product(0, 8, 8, 1.0f, a.data(), b.data(), c.data());
    product(8, 0, 8, 1.0f, a.data(), b.data(), c.data());
    product(8, 8, 0, 1.0f, a.data(), b.data(), c.data());
  }
  ml::transpose(0, 8, a.data(), c.data());
  ml::transpose(8, 0, a.data(), c.data());
  EXPECT_EQ(c, c0);
}

// The determinism contract: bitwise-identical C at every thread count.
TEST(GemmDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  Rng rng(0xDE7);
  const Shape shapes[] = {{64, 64, 64}, {37, 53, 129}, {128, 100, 80}, {40, 2050, 260}};
  const std::size_t saved = par::max_threads();
  for (const Shape& s : shapes) {
    const auto a = random_matrix(s.m * s.k, rng);
    const auto b = random_matrix(s.k * s.n, rng);
    const auto c0 = random_matrix(s.m * s.n, rng);

    par::set_max_threads(1);
    std::vector<float> serial = c0;
    ml::gemm_nn(s.m, s.n, s.k, 1.0f, a.data(), b.data(), serial.data());

    for (const std::size_t threads : {2, 4, 8}) {
      par::set_max_threads(threads);
      std::vector<float> parallel = c0;
      ml::gemm_nn(s.m, s.n, s.k, 1.0f, a.data(), b.data(), parallel.data());
      EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                               serial.size() * sizeof(float)))
          << "thread count " << threads << " changed bits for m=" << s.m;
    }
  }
  par::set_max_threads(saved);
}

// The transpose symmetry of ml/gemm.h that lets ConnectedLayer::forward pick
// its orientation: with alpha = 1, gemm_nt(m, n, k, A, B) into a zeroed C is
// bitwise the transpose of gemm_nt(n, m, k, B, A).
TEST(GemmDeterminism, NtBitwiseEqualsTransposeOfSwappedNt) {
  Rng rng(0x7A5);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m * s.k, rng);  // M x K
    const auto b = random_matrix(s.n * s.k, rng);  // N x K
    std::vector<float> direct(s.m * s.n, 0.0f), swapped(s.n * s.m, 0.0f);
    ml::gemm_nt(s.m, s.n, s.k, 1.0f, a.data(), b.data(), direct.data());
    ml::gemm_nt(s.n, s.m, s.k, 1.0f, b.data(), a.data(), swapped.data());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        mismatches += std::bit_cast<std::uint32_t>(direct[i * s.n + j]) !=
                      std::bit_cast<std::uint32_t>(swapped[j * s.m + i]);
      }
    }
    EXPECT_EQ(mismatches, 0u) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

// The same symmetry into a non-zero C, as ConvLayer::backward uses it: its
// weight gradient accumulates transposed on top of the momentum-carried one.
TEST(GemmDeterminism, NtIntoNonZeroCBitwiseEqualsTransposeOfSwappedNt) {
  Rng rng(0x7A7);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m * s.k, rng);  // M x K
    const auto b = random_matrix(s.n * s.k, rng);  // N x K
    std::vector<float> direct = random_matrix(s.m * s.n, rng), swapped(s.n * s.m);
    ml::transpose(s.m, s.n, direct.data(), swapped.data());
    ml::gemm_nt(s.m, s.n, s.k, 1.0f, a.data(), b.data(), direct.data());
    ml::gemm_nt(s.n, s.m, s.k, 1.0f, b.data(), a.data(), swapped.data());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        mismatches += std::bit_cast<std::uint32_t>(direct[i * s.n + j]) !=
                      std::bit_cast<std::uint32_t>(swapped[j * s.m + i]);
      }
    }
    EXPECT_EQ(mismatches, 0u) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(GemmTranspose, ExactOutOfPlaceCopy) {
  Rng rng(0x7A6);
  // kShapes as m x n, then a conv delta (8 x 196) and an FC delta at batch
  // 16 (16 x 2048) with their transposes, and 33 x 1: 8 x 8 tiles with row
  // and column remainders, and a one-column matrix that is all remainder.
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.insert(shapes.end(), {{8, 196, 0}, {196, 8, 0}, {16, 2048, 0}, {2048, 16, 0},
                               {33, 1, 0}});
  for (const Shape& s : shapes) {
    const auto src = random_matrix(s.m * s.n, rng);  // M x N
    std::vector<float> dst(s.n * s.m);
    ml::transpose(s.m, s.n, src.data(), dst.data());
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(dst[j * s.m + i]),
                  std::bit_cast<std::uint32_t>(src[i * s.n + j]))
            << "m=" << s.m << " n=" << s.n;
      }
    }
  }
}

}  // namespace
