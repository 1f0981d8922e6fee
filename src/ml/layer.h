// Layer abstraction for the SGX-Darknet-style CNN framework (paper §IV).
//
// Conventions (following Darknet, which the paper ports to SGX):
//   * activations flow through per-layer owned output buffers;
//   * delta_ holds the *negative* loss gradient w.r.t. the layer's output
//     (Darknet's convention: the softmax/cross-entropy seed is truth-pred,
//     and updates are *added* to parameters). backward() consumes delta_,
//     accumulates parameter gradients into *_updates buffers and adds the
//     input gradient into the previous layer's delta;
//   * update() applies SGD with momentum and weight decay and clears the
//     accumulated gradients;
//   * backward() and update() form one step: a layer may leave part of its
//     gradient to update(), so backward's `input` must stay valid and
//     unchanged until update() (Network::train_batch runs every backward,
//     then every update). ConnectedLayer does: its weight gradient lands in
//     update(), one row block at a time just before that block's SGD step;
//   * a gradient buffer as large as the weights (weight_updates_, which also
//     carries the momentum) exists from the first step on: the first
//     backward() or update() that uses it allocates it zeroed, so a network
//     that only restores or serves holds its weights once.
//
// parameters() exposes the layer's learnable + running state as named
// buffers — this is exactly what Plinius' mirroring module encrypts to PM.
// A batch-normalized convolutional layer has 5 such buffers (weights,
// biases, scales, rolling mean, rolling variance), matching the paper's
// "each layer contains 5 parameter matrices" accounting.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "ml/activation.h"

namespace plinius::ml {

/// Spatial shape of a feature map (channels x height x width).
struct Shape {
  std::size_t c = 0;
  std::size_t h = 0;
  std::size_t w = 0;

  [[nodiscard]] std::size_t size() const noexcept { return c * h * w; }
  friend bool operator==(const Shape&, const Shape&) = default;
};

/// Named view over a layer's persistent parameter state.
struct ParamBuffer {
  std::string name;
  std::span<float> values;
};

struct SgdParams {
  float learning_rate = 0.1f;  // paper §VI: "the learning rate used is 0.1"
  float momentum = 0.9f;
  float decay = 0.0005f;
};

class Layer {
 public:
  Layer(Shape in, Shape out) : in_shape_(in), out_shape_(out) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes output_ from `input` ([batch x in_shape.size()], row-major).
  /// `train` selects training-time behaviour (batch statistics, dropout).
  virtual void forward(const float* input, std::size_t batch, bool train) = 0;

  /// Consumes delta_ (dLoss/dOutput); accumulates parameter gradients and,
  /// when `input_delta` is non-null, adds dLoss/dInput into it. `input`
  /// must stay valid and unchanged until the matching update().
  virtual void backward(const float* input, float* input_delta, std::size_t batch) = 0;

  /// Completes the step backward() began: applies (and, where the layer
  /// defers part of the gradient, first accumulates) the gradients.
  /// Default: no parameters.
  virtual void update(const SgdParams& /*params*/, std::size_t /*batch*/) {}

  /// Persistent parameter state, in a stable order.
  virtual std::vector<ParamBuffer> parameters() { return {}; }

  [[nodiscard]] virtual const char* type() const = 0;

  /// Approximate multiply-accumulate count for one sample's forward pass
  /// (used by the platform's compute-time model).
  [[nodiscard]] virtual std::size_t forward_macs() const { return 0; }

  [[nodiscard]] const Shape& input_shape() const noexcept { return in_shape_; }
  [[nodiscard]] const Shape& output_shape() const noexcept { return out_shape_; }

  [[nodiscard]] const std::vector<float>& output() const noexcept { return output_; }
  [[nodiscard]] std::vector<float>& delta() noexcept { return delta_; }

  /// Resizes activation/delta buffers for a batch and zeroes delta.
  void prepare(std::size_t batch) {
    output_.assign(batch * out_shape_.size(), 0.0f);
    delta_.assign(batch * out_shape_.size(), 0.0f);
  }

  /// Total learnable/running floats.
  [[nodiscard]] std::size_t parameter_count() {
    std::size_t n = 0;
    for (const auto& p : parameters()) n += p.values.size();
    return n;
  }

 protected:
  Shape in_shape_;
  Shape out_shape_;
  std::vector<float> output_;
  std::vector<float> delta_;
};

/// Applies the Darknet SGD rule to one parameter buffer:
///   grad -= decay * batch * value            (weight decay, if enabled)
///   value += (lr / batch) * grad
///   grad *= momentum
void sgd_update(std::span<float> values, std::span<float> grads, const SgdParams& p,
                std::size_t batch, bool use_decay);

}  // namespace plinius::ml
