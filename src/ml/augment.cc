#include "ml/augment.h"

#include <algorithm>
#include <cstring>

namespace plinius::ml {

Augmenter::Augmenter(Shape input, AugmentOptions options, std::uint64_t seed)
    : shape_(input), options_(options), rng_(seed) {
  expects(input.size() > 0, "Augmenter: empty shape");
  expects(options.max_shift < input.h && options.max_shift < input.w,
          "Augmenter: shift larger than the image");
}

void Augmenter::shift_plane(const float* src, float* dst, long dx, long dy) const {
  const long h = static_cast<long>(shape_.h);
  const long w = static_cast<long>(shape_.w);
  for (long y = 0; y < h; ++y) {
    const long sy = y - dy;
    for (long x = 0; x < w; ++x) {
      const long sx = x - dx;
      dst[y * w + x] = (sy >= 0 && sy < h && sx >= 0 && sx < w)
                           ? src[sy * w + sx]
                           : 0.0f;
    }
  }
}

void Augmenter::apply(float* x, std::size_t batch) {
  const std::size_t plane = shape_.h * shape_.w;
  scratch_.resize(plane);

  for (std::size_t b = 0; b < batch; ++b) {
    const long span = static_cast<long>(options_.max_shift);
    const long dx = span == 0 ? 0
                              : static_cast<long>(rng_.below(2 * span + 1)) - span;
    const long dy = span == 0 ? 0
                              : static_cast<long>(rng_.below(2 * span + 1)) - span;
    const float scale =
        1.0f + options_.intensity_jitter *
                   (2.0f * static_cast<float>(rng_.uniform()) - 1.0f);

    for (std::size_t c = 0; c < shape_.c; ++c) {
      float* p = x + (b * shape_.c + c) * plane;
      if (dx != 0 || dy != 0) {
        shift_plane(p, scratch_.data(), dx, dy);
        std::memcpy(p, scratch_.data(), plane * sizeof(float));
      }
      for (std::size_t i = 0; i < plane; ++i) {
        float v = p[i] * scale;
        if (options_.noise_stddev > 0) v += options_.noise_stddev * rng_.normal();
        p[i] = std::clamp(v, 0.0f, 1.0f);
      }
    }
  }
}

}  // namespace plinius::ml
