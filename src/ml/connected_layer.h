// Fully-connected layer.
#pragma once

#include "common/rng.h"
#include "ml/layer.h"

namespace plinius::ml {

struct ConnectedConfig {
  std::size_t outputs = 10;
  Activation activation = Activation::kLinear;
};

/// backward() adds the bias gradient and the input gradient, and keeps
/// delta^T and a pointer to its input; update() then accumulates the weight
/// gradient one row block at a time, each block stepped by SGD while it is
/// still in cache (layer.h: backward and update form one step).
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
  /// Empty until the first update() (layer.h).
  [[nodiscard]] std::span<const float> weight_updates() const noexcept {
    return weight_updates_;
  }

 private:
  ConnectedConfig config_;
  // [outputs x inputs]; weight_updates_ is empty until the first update().
  std::vector<float> weights_, weight_updates_;
  std::vector<float> biases_, bias_updates_;
  std::vector<float> output_t_;  // [outputs x batch] forward scratch
  std::vector<float> delta_t_;   // [outputs x batch] delta^T, from backward
  const float* pending_input_ = nullptr;  // backward's input, until update
  std::size_t pending_batch_ = 0;

  // Weight-gradient rows per update block: a multiple of both kernels' tile
  // heights (6 and 16 rows, ml/gemm.cc), so the blocks' register tiles are
  // exactly those of one whole-matrix gemm.
  static constexpr std::size_t kFoldRows = 48;
};

}  // namespace plinius::ml
