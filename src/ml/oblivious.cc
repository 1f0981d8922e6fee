#include "ml/oblivious.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "obs/leakage.h"

namespace plinius::ml {

namespace {
bool g_oblivious_kernels = false;
}  // namespace

bool oblivious_kernels() noexcept { return g_oblivious_kernels; }

ScopedObliviousKernels::ScopedObliviousKernels() : previous_(g_oblivious_kernels) {
  g_oblivious_kernels = true;
}

ScopedObliviousKernels::~ScopedObliviousKernels() { g_oblivious_kernels = previous_; }

void oblivious_activate(Activation a, float* x, std::size_t n) {
  switch (a) {
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = select_float(x[i] > 0, x[i], kLeakySlope * x[i]);
      }
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = select_float(x[i] > 0, x[i], 0.0f);
      }
      return;
    default:
      activate(a, x, n);
      return;
  }
}

void oblivious_activation_gradient(Activation a, const float* y, float* delta,
                                   std::size_t n) {
  switch (a) {
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        delta[i] *= select_float(y[i] > 0, 1.0f, kLeakySlope);
      }
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        delta[i] *= select_float(y[i] > 0, 1.0f, 0.0f);
      }
      return;
    default:
      gradient(a, y, delta, n);
      return;
  }
}

void im2col_fixed(const LoweringPlan& plan, const float* im, float* scratch,
                  float* col) {
  obs::leak_mark("im2col.fixed");
  plan.gather(im, scratch, col);
}

namespace {

// Masked swap of two float rows: swaps contents when `swap`, identity
// otherwise — same loads and stores either way.
void masked_swap_row(bool swap, float* a, float* b, std::size_t n) {
  const std::uint32_t mask = -static_cast<std::uint32_t>(swap);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t ua = std::bit_cast<std::uint32_t>(a[i]);
    const std::uint32_t ub = std::bit_cast<std::uint32_t>(b[i]);
    const std::uint32_t x = (ua ^ ub) & mask;
    a[i] = std::bit_cast<float>(ua ^ x);
    b[i] = std::bit_cast<float>(ub ^ x);
  }
}

}  // namespace

void oblivious_shuffle_dataset(Dataset& data, std::uint64_t seed) {
  data.validate();
  const std::size_t n = data.size();
  if (n < 2) return;
  std::size_t m = 1;
  while (m < n) m <<= 1;

  // Padded working copies: dummy rows carry the maximal key so the network
  // sinks them past every real row.
  const std::size_t xc = data.x.cols, yc = data.y.cols;
  Matrix px(m, xc), py(m, yc);
  std::copy(data.x.values.begin(), data.x.values.end(), px.values.begin());
  std::copy(data.y.values.begin(), data.y.values.end(), py.values.begin());

  SplitMix64 mix(seed);
  std::vector<std::uint64_t> keys(m, UINT64_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = std::min<std::uint64_t>(mix.next(), UINT64_MAX - 1);
  }

  const std::size_t row_bytes = xc * sizeof(float);
  for (std::size_t k = 2; k <= m; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t l = i ^ j;
        if (l <= i) continue;
        // Fixed schedule: the (i, l) pairs and the rows touched depend only
        // on m; whether the masked swap fires is invisible to the trace.
        obs::touch_pages("data.shuffle", i * row_bytes, row_bytes);
        obs::touch_pages("data.shuffle", l * row_bytes, row_bytes);
        const bool ascending = (i & k) == 0;
        const bool swap = ascending ? keys[i] > keys[l] : keys[i] < keys[l];
        const std::uint64_t mask = -static_cast<std::uint64_t>(swap);
        const std::uint64_t x = (keys[i] ^ keys[l]) & mask;
        keys[i] ^= x;
        keys[l] ^= x;
        masked_swap_row(swap, px.row(i), px.row(l), xc);
        masked_swap_row(swap, py.row(i), py.row(l), yc);
      }
    }
  }

  std::copy(px.values.begin(), px.values.begin() + n * xc, data.x.values.begin());
  std::copy(py.values.begin(), py.values.begin() + n * yc, data.y.values.begin());
}

}  // namespace plinius::ml
