#include "ml/dropout_layer.h"

#include <cstring>
#include <string>

namespace plinius::ml {

DropoutLayer::DropoutLayer(Shape in, float probability, std::uint64_t seed)
    : Layer(in, in), probability_(probability), rng_(seed) {
  if (!(probability >= 0.0f && probability < 1.0f)) {
    throw MlError("DropoutLayer: option 'probability' must be in [0,1), got " +
                  std::to_string(probability));
  }
}

void DropoutLayer::forward(const float* input, std::size_t batch, bool train) {
  const std::size_t total = batch * in_shape_.size();
  last_forward_trained_ = train;
  if (!train || probability_ == 0.0f) {
    std::memcpy(output_.data(), input, total * sizeof(float));
    return;
  }
  mask_.resize(total);
  const float keep_scale = 1.0f / (1.0f - probability_);
  for (std::size_t i = 0; i < total; ++i) {
    const bool keep = rng_.uniform() >= probability_;
    mask_[i] = keep ? keep_scale : 0.0f;
    output_[i] = input[i] * mask_[i];
  }
}

void DropoutLayer::backward(const float* /*input*/, float* input_delta,
                            std::size_t batch) {
  if (input_delta == nullptr) return;
  const std::size_t total = batch * in_shape_.size();
  if (!last_forward_trained_ || probability_ == 0.0f) {
    for (std::size_t i = 0; i < total; ++i) input_delta[i] += delta_[i];
    return;
  }
  for (std::size_t i = 0; i < total; ++i) input_delta[i] += delta_[i] * mask_[i];
}

}  // namespace plinius::ml
