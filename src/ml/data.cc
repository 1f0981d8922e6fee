#include "ml/data.h"

#include <algorithm>
#include <cstring>

#include "ml/oblivious.h"
#include "obs/leakage.h"

namespace plinius::ml {

void sample_batch(const Dataset& data, std::size_t batch, Rng& rng, float* x_out,
                  float* y_out) {
  data.validate();
  expects(data.size() > 0, "sample_batch: empty dataset");
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t i = rng.below(data.size());
    std::memcpy(x_out + b * data.x.cols, data.x.row(i), data.x.cols * sizeof(float));
    std::memcpy(y_out + b * data.y.cols, data.y.row(i), data.y.cols * sizeof(float));
  }
}

void shuffle_dataset(Dataset& data, std::uint64_t seed) {
  if (oblivious_kernels()) {
    oblivious_shuffle_dataset(data, seed);
    return;
  }
  data.validate();
  const std::size_t n = data.size();
  if (n < 2) return;
  const std::size_t x_bytes = data.x.cols * sizeof(float);
  Rng rng(seed);
  // Fisher–Yates; the pair of rows touched at each step is the permutation.
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = rng.below(i + 1);
    obs::touch_pages("data.shuffle", i * x_bytes, x_bytes);
    obs::touch_pages("data.shuffle", j * x_bytes, x_bytes);
    if (i == j) continue;
    std::swap_ranges(data.x.row(i), data.x.row(i) + data.x.cols, data.x.row(j));
    std::swap_ranges(data.y.row(i), data.y.row(i) + data.y.cols, data.y.row(j));
  }
}

namespace {
constexpr std::uint64_t kMatrixMagic = 0x4D545258504C4E31ULL;  // "MTRXPLN1"
}

Bytes matrix_to_bytes(const Matrix& m) {
  Bytes out(24 + m.bytes());
  std::uint64_t header[3] = {kMatrixMagic, m.rows, m.cols};
  std::memcpy(out.data(), header, 24);
  std::memcpy(out.data() + 24, m.values.data(), m.bytes());
  return out;
}

Matrix matrix_from_bytes(ByteSpan bytes) {
  if (bytes.size() < 24) throw MlError("matrix_from_bytes: truncated header");
  std::uint64_t header[3];
  std::memcpy(header, bytes.data(), 24);
  if (header[0] != kMatrixMagic) throw MlError("matrix_from_bytes: bad magic");
  Matrix m(header[1], header[2]);
  if (bytes.size() != 24 + m.bytes()) {
    throw MlError("matrix_from_bytes: size mismatch");
  }
  std::memcpy(m.values.data(), bytes.data() + 24, m.bytes());
  return m;
}

}  // namespace plinius::ml
