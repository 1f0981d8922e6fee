// Post-training INT8 quantization and the quantized inference path.
//
// Scheme: symmetric per-layer linear quantization (zero point 0), int8
// operands with int32 accumulation. A float value v is represented as
// q = sat(round(v / scale)) with q in [-127, 127]; keeping -128 unused makes
// every product bounded by 127^2, which the pair-summing madd kernels in
// ml/gemm.h rely on.
//
//   * Weight scales come from the max-abs weight per layer, after folding
//     batch-norm (rolling statistics) into conv weights and biases — the
//     quantized model carries no separate BN state.
//   * Activation scales come from calibration: a handful of float forward
//     passes record the max-abs activation at every layer boundary.
//   * Biases are stored as int32 at scale in_scale * weight_scale, so they
//     add directly into the GEMM accumulator.
//   * Requantization applies the float multiplier M = in_scale *
//     weight_scale / out_scale with round-half-away-from-zero and saturation;
//     ReLU / leaky-ReLU fold into this step (the sign of the int32
//     accumulator decides the branch, so the fold is exact).
//   * Pools and dropout are scale-preserving: max-pool takes int8 maxima,
//     avg-pool requantizes the window sum at the same scale, dropout is an
//     inference pass-through. Softmax dequantizes its logits and runs in
//     float, producing the final probability vector.
//
// Determinism contract: the whole path is integer arithmetic plus a fixed
// per-element float multiply, and the int8 GEMM is bitwise-deterministic at
// any thread count (see ml/gemm.h) — so quantized inference produces
// identical bytes for 1/2/4/8 threads and at every ISA level.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ml/im2col.h"
#include "ml/layer.h"
#include "ml/network.h"

namespace plinius::ml {

enum class QLayerKind : std::uint8_t {
  kConv = 0,
  kConnected = 1,
  kMaxPool = 2,
  kAvgPool = 3,
  kDropout = 4,
  kSoftmax = 5,
};

/// One quantized layer: geometry + int8 weights + int32 biases + scales.
struct QuantLayer {
  QLayerKind kind = QLayerKind::kSoftmax;
  Shape in;
  Shape out;
  std::size_t ksize = 0;   // conv / windowed pools (0 = global avgpool)
  std::size_t stride = 0;
  std::size_t pad = 0;     // conv only
  Activation activation = Activation::kLinear;

  std::vector<std::int8_t> weights;
  std::vector<std::int32_t> biases;  // at scale in_scale * weight_scale
  float weight_scale = 1.0f;
  float in_scale = 1.0f;
  float out_scale = 1.0f;

  [[nodiscard]] std::size_t forward_macs() const;
};

/// Quantizes `v` to int8 at `scale` (round half away from zero, saturate to
/// [-127, 127]).
[[nodiscard]] std::int8_t quantize_value(float v, float scale);

/// Requantizes an int32 accumulator with multiplier M = s_in * s_w / s_out,
/// folding the (leaky-)ReLU activation; exact saturation/rounding contract
/// as quantize_value.
[[nodiscard]] std::int8_t requantize(std::int32_t acc, float multiplier,
                                     Activation act);

/// INT8 inference network. Built by quantize_network() or deserialized from
/// the v2 quantized weight format (ml/serialize.h).
class QuantizedNetwork {
 public:
  void forward(const float* x, std::size_t batch);
  void predict(const float* x, std::size_t batch, std::size_t* out);
  [[nodiscard]] double accuracy(const float* x, const float* y, std::size_t count,
                                std::size_t eval_batch = 128);

  /// Final activations of the last forward ([batch x output size], float —
  /// softmax probabilities when the model ends in softmax).
  [[nodiscard]] const std::vector<float>& output() const noexcept { return output_; }

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
  [[nodiscard]] std::vector<QuantLayer>& layers() noexcept { return layers_; }
  [[nodiscard]] const std::vector<QuantLayer>& layers() const noexcept {
    return layers_;
  }

  [[nodiscard]] const Shape& input_shape() const noexcept { return input_shape_; }
  void set_input_shape(Shape s) noexcept { input_shape_ = s; }
  [[nodiscard]] const Shape& output_shape() const;

  [[nodiscard]] float input_scale() const noexcept { return input_scale_; }
  void set_input_scale(float s) noexcept { input_scale_ = s; }

  /// Training iteration the quantized snapshot was taken at (mirrors
  /// Network::iterations, used for snapshot versioning by serving).
  [[nodiscard]] std::uint64_t iterations() const noexcept { return iterations_; }
  void set_iterations(std::uint64_t it) noexcept { iterations_ = it; }

  /// Stored parameter elements (int8 weights + int32 biases).
  [[nodiscard]] std::size_t parameter_count() const;
  /// Stored parameter bytes — roughly 4x smaller than the float model's
  /// parameter_bytes(), which is what the quantized mirror seals.
  [[nodiscard]] std::size_t parameter_bytes() const;
  [[nodiscard]] std::size_t forward_macs() const;

 private:
  Shape input_shape_;
  float input_scale_ = 1.0f;
  std::uint64_t iterations_ = 0;
  std::vector<QuantLayer> layers_;

  /// Conv layer `li`'s lowering plan, built once per layer geometry.
  const LoweringPlan& lowering_plan(std::size_t li);

  // One lowering plan per conv layer (empty for every other kind).
  std::vector<std::optional<LoweringPlan>> plans_;
  // Scratch: int8 activation ping-pong, im2col panel, the plan's staged
  // image, int32 accumulators.
  std::vector<std::int8_t> act_a_, act_b_, cols_, scratch_;
  std::vector<std::int32_t> acc_;
  std::vector<float> output_;
};

/// Post-training quantization of a trained float network using
/// `calib_count` samples ([calib_count x input size]) to calibrate
/// activation scales. The float network is not modified (calibration runs
/// inference-mode forwards only).
[[nodiscard]] QuantizedNetwork quantize_network(Network& net, const float* calib_x,
                                                std::size_t calib_count,
                                                std::size_t calib_batch = 64);

}  // namespace plinius::ml
