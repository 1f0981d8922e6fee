// Training data containers (Darknet's matrix/data structures).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "common/rng.h"

namespace plinius::ml {

/// Dense row-major float matrix (Darknet's `matrix`).
struct Matrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> values;

  Matrix() = default;
  Matrix(std::size_t r, std::size_t c) : rows(r), cols(c), values(r * c, 0.0f) {}

  [[nodiscard]] float* row(std::size_t r) { return values.data() + r * cols; }
  [[nodiscard]] const float* row(std::size_t r) const { return values.data() + r * cols; }
  [[nodiscard]] std::size_t bytes() const noexcept { return values.size() * sizeof(float); }
};

/// A labelled dataset: X rows are flattened images, y rows are one-hot.
struct Dataset {
  Matrix x;
  Matrix y;

  [[nodiscard]] std::size_t size() const noexcept { return x.rows; }
  void validate() const {
    expects(x.rows == y.rows, "Dataset: X/y row mismatch");
  }
};

/// Samples a random batch (with replacement, like Darknet's get_random_batch)
/// into caller-provided buffers.
void sample_batch(const Dataset& data, std::size_t batch, Rng& rng, float* x_out,
                  float* y_out);

/// Shuffles dataset rows in place from `seed` (Darknet's randomize_data).
/// Baseline is Fisher–Yates — the swap sequence IS the permutation, so the
/// access trace leaks the shuffle order. With the oblivious kernels on
/// (ScopedObliviousKernels), dispatches to the bitonic oblivious shuffle
/// (ml/oblivious.h) whose trace is seed-independent.
void shuffle_dataset(Dataset& data, std::uint64_t seed);

/// Serializes a matrix to bytes (little-endian header + float payload) and
/// back — the on-disk format for encrypted datasets and checkpoints.
[[nodiscard]] Bytes matrix_to_bytes(const Matrix& m);
[[nodiscard]] Matrix matrix_from_bytes(ByteSpan bytes);

}  // namespace plinius::ml
