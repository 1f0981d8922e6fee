// Training-time data augmentation (Darknet applies random crops/shifts and
// distortions when loading batches; for 28x28 digit data the meaningful
// augmentations are translation, intensity jitter and noise).
//
// Augmentation runs inside the enclave on already-decrypted batches, so it
// composes with the PM data module without changing the sealed records.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "ml/layer.h"

namespace plinius::ml {

struct AugmentOptions {
  std::size_t max_shift = 2;      // +/- pixels of random translation
  float noise_stddev = 0.03f;     // additive Gaussian noise
  float intensity_jitter = 0.1f;  // multiplicative scale in [1-j, 1+j]
};

class Augmenter {
 public:
  Augmenter(Shape input, AugmentOptions options, std::uint64_t seed);

  /// Augments `batch` samples in place ([batch x shape.size()], row-major
  /// C x H x W planes).
  void apply(float* x, std::size_t batch);

  [[nodiscard]] const AugmentOptions& options() const noexcept { return options_; }

 private:
  void shift_plane(const float* src, float* dst, long dx, long dy) const;

  Shape shape_;
  AugmentOptions options_;
  Rng rng_;
  std::vector<float> scratch_;
};

}  // namespace plinius::ml
