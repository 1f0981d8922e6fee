// Batch-normalized convolutional layer with configurable activation.
//
// This is the workhorse of all models in the paper's evaluation ("All models
// used in our evaluations are CNNs. The convolutional layers use LReLU as
// activation"). With batch_normalize enabled (the default, as in the paper's
// configs) a layer carries 5 persistent parameter matrices: weights, biases,
// scales, rolling mean and rolling variance — the unit of the paper's
// 140-byte-per-layer encryption-metadata accounting.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "ml/layer.h"

namespace plinius::ml {

struct ConvConfig {
  std::size_t filters = 16;
  std::size_t ksize = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;
  bool batch_normalize = true;
  Activation activation = Activation::kLeakyRelu;
};

class ConvLayer final : public Layer {
 public:
  ConvLayer(Shape in, const ConvConfig& config, Rng& init_rng);

  void forward(const float* input, std::size_t batch, bool train) override;
  void backward(const float* input, float* input_delta, std::size_t batch) override;
  void update(const SgdParams& params, std::size_t batch) override;
  std::vector<ParamBuffer> parameters() override;
  [[nodiscard]] const char* type() const override { return "convolutional"; }
  [[nodiscard]] std::size_t forward_macs() const override;

  [[nodiscard]] const ConvConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::span<const float> weight_updates() const noexcept {
    return weight_updates_;
  }

 private:
  void forward_batchnorm(std::size_t batch, bool train);
  void backward_batchnorm(std::size_t batch);
  void add_bias(std::size_t batch);

  [[nodiscard]] std::size_t spatial() const noexcept {
    return out_shape_.h * out_shape_.w;
  }

  ConvConfig config_;

  std::vector<float> weights_, weight_updates_;
  std::vector<float> biases_, bias_updates_;
  // Batch-norm state (present only when batch_normalize).
  std::vector<float> scales_, scale_updates_;
  std::vector<float> rolling_mean_, rolling_variance_;
  std::vector<float> mean_, variance_, mean_delta_, variance_delta_;
  std::vector<float> x_, x_norm_;  // pre-BN and normalized activations

  std::vector<float> workspace_;  // im2col scratch
  std::vector<float> weights_t_;  // backward: W^T [k x filters]
  std::vector<float> col_delta_;  // backward: one sample's column gradient
};

}  // namespace plinius::ml
