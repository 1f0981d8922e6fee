// Fully-connected layer.
#pragma once

#include "common/rng.h"
#include "ml/layer.h"

namespace plinius::ml {

struct ConnectedConfig {
  std::size_t outputs = 10;
  Activation activation = Activation::kLinear;
};

class ConnectedLayer final : public Layer {
 public:
  ConnectedLayer(Shape in, const ConnectedConfig& config, Rng& init_rng);

  void forward(const float* input, std::size_t batch, bool train) override;
  void backward(const float* input, float* input_delta, std::size_t batch) override;
  void update(const SgdParams& params, std::size_t batch) override;
  std::vector<ParamBuffer> parameters() override;
  [[nodiscard]] const char* type() const override { return "connected"; }
  [[nodiscard]] std::size_t forward_macs() const override {
    return in_shape_.size() * out_shape_.size();
  }
  [[nodiscard]] const ConnectedConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::span<const float> weight_updates() const noexcept {
    return weight_updates_;
  }

 private:
  ConnectedConfig config_;
  std::vector<float> weights_, weight_updates_;  // [outputs x inputs]
  std::vector<float> biases_, bias_updates_;
  std::vector<float> output_t_;  // [outputs x batch] forward scratch
};

}  // namespace plinius::ml
