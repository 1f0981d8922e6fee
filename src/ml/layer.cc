#include "ml/layer.h"

namespace plinius::ml {

void sgd_update(std::span<float> values, std::span<float> grads, const SgdParams& p,
                std::size_t batch, bool use_decay) {
  expects(values.size() == grads.size(), "sgd_update: size mismatch");
  const float lr = p.learning_rate / static_cast<float>(batch);
  const float momentum = p.momentum;
  // One read-modify-write pass; each element goes through the three steps of
  // the rule in layer.h, in order, with the same float expressions.
  if (use_decay) {
    const float d = -p.decay * static_cast<float>(batch);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float g = grads[i] + d * values[i];
      values[i] += lr * g;
      grads[i] = g * momentum;
    }
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] += lr * grads[i];
      grads[i] *= momentum;
    }
  }
}

}  // namespace plinius::ml
