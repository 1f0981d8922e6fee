#include "ml/connected_layer.h"

#include <algorithm>
#include <cmath>

#include "ml/gemm.h"
#include "obs/leakage.h"

namespace plinius::ml {

ConnectedLayer::ConnectedLayer(Shape in, const ConnectedConfig& config, Rng& init_rng)
    : Layer(in, Shape{config.outputs, 1, 1}), config_(config) {
  expects(in.size() > 0 && config.outputs > 0, "ConnectedLayer: empty shape");
  const std::size_t inputs = in.size();
  weights_.resize(config.outputs * inputs);
  weight_updates_.assign(weights_.size(), 0.0f);
  biases_.assign(config.outputs, 0.0f);
  bias_updates_.assign(config.outputs, 0.0f);

  const float scale = std::sqrt(2.0f / static_cast<float>(inputs));
  for (auto& w : weights_) w = scale * static_cast<float>(init_rng.uniform(-1.0, 1.0));
}

void ConnectedLayer::forward(const float* input, std::size_t batch, bool /*train*/) {
  const std::size_t inputs = in_shape_.size();
  const std::size_t outputs = out_shape_.size();
  obs::touch_pages("fc.weights", 0, weights_.size() * sizeof(float));
  obs::touch_pages("fc.in", 0, batch * inputs * sizeof(float));

  if (outputs > batch) {
    // output^T[outputs x batch] = W * input^T, transposed back: gemm_nt packs
    // whichever operand is its B, and here the batch is smaller than the
    // weight matrix. Bitwise equal to the direct form below by gemm.h's
    // transpose symmetry.
    output_t_.assign(outputs * batch, 0.0f);
    gemm_nt(outputs, batch, inputs, 1.0f, weights_.data(), input, output_t_.data());
    transpose(outputs, batch, output_t_.data(), output_.data());
  } else {
    // output[batch x outputs] = input[batch x inputs] * W^T
    std::fill(output_.begin(), output_.end(), 0.0f);
    gemm_nt(batch, outputs, inputs, 1.0f, input, weights_.data(), output_.data());
  }
  for (std::size_t b = 0; b < batch; ++b) {
    float* out = output_.data() + b * outputs;
    for (std::size_t o = 0; o < outputs; ++o) out[o] += biases_[o];
  }
  activate(config_.activation, output_.data(), output_.size());
}

void ConnectedLayer::backward(const float* input, float* input_delta,
                              std::size_t batch) {
  const std::size_t inputs = in_shape_.size();
  const std::size_t outputs = out_shape_.size();

  gradient(config_.activation, output_.data(), delta_.data(), output_.size());

  for (std::size_t b = 0; b < batch; ++b) {
    const float* d = delta_.data() + b * outputs;
    for (std::size_t o = 0; o < outputs; ++o) bias_updates_[o] += d[o];
  }

  // dW[outputs x inputs] += delta^T[outputs x batch] * input[batch x inputs]
  gemm_tn(outputs, inputs, batch, 1.0f, delta_.data(), input, weight_updates_.data());

  if (input_delta != nullptr) {
    // dX[batch x inputs] += delta[batch x outputs] * W[outputs x inputs]
    gemm_nn(batch, inputs, outputs, 1.0f, delta_.data(), weights_.data(), input_delta);
  }
}

void ConnectedLayer::update(const SgdParams& params, std::size_t batch) {
  sgd_update(weights_, weight_updates_, params, batch, /*use_decay=*/true);
  sgd_update(biases_, bias_updates_, params, batch, /*use_decay=*/false);
}

std::vector<ParamBuffer> ConnectedLayer::parameters() {
  return {{"weights", weights_}, {"biases", biases_}};
}

}  // namespace plinius::ml
