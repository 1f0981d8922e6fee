// Activation functions (paper §VI: "The convolutional layers use leaky
// rectified linear unit (LReLU) as activation, and all output layers are
// softmax layers").
#pragma once

#include <cstddef>
#include <string>

namespace plinius::ml {

enum class Activation { kLinear, kLeakyRelu, kRelu, kLogistic, kTanh };

/// Darknet's leaky-ReLU coefficient: y = x for x > 0, else kLeakySlope * x.
inline constexpr float kLeakySlope = 0.1f;

/// Parses a Darknet config activation name ("leaky", "relu", "linear", ...).
Activation activation_from_name(const std::string& name);
const char* activation_name(Activation a);

/// Applies the activation in place.
///
/// The rectifiers (leaky/ReLU) compile branch-free by default: they run the
/// ml/oblivious select kernels, which give the same bits as the ternary.
/// Only while an obs::PageTraceRecorder is installed (and the oblivious
/// variant is not selected) do they run Darknet's source-level sign branch
/// instead, reporting each outcome as a branch event — the recorder models
/// the branch the original C code takes, not the one this build compiles.
void activate(Activation a, float* x, std::size_t n);

/// Multiplies `delta` by the activation gradient, given post-activation
/// outputs `y` (Darknet convention: gradients are computed from outputs).
void gradient(Activation a, const float* y, float* delta, std::size_t n);

}  // namespace plinius::ml
