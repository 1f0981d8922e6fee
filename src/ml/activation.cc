#include "ml/activation.h"

#include <cmath>

#include "common/error.h"
#include "ml/oblivious.h"
#include "obs/leakage.h"

namespace plinius::ml {

namespace {

// The rectifiers run Darknet's sign branch only to report it to an installed
// recorder; otherwise — and always under the oblivious variant, which has no
// branch to report — they run the branch-free select kernels.
bool branch_free_rectifier(Activation a) {
  return (a == Activation::kLeakyRelu || a == Activation::kRelu) &&
         (oblivious_options().branchless_activation ||
          obs::page_trace_recorder() == nullptr);
}

}  // namespace

Activation activation_from_name(const std::string& name) {
  if (name == "linear") return Activation::kLinear;
  if (name == "leaky") return Activation::kLeakyRelu;
  if (name == "relu") return Activation::kRelu;
  if (name == "logistic") return Activation::kLogistic;
  if (name == "tanh") return Activation::kTanh;
  throw MlError("unknown activation: " + name);
}

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kLinear:
      return "linear";
    case Activation::kLeakyRelu:
      return "leaky";
    case Activation::kRelu:
      return "relu";
    case Activation::kLogistic:
      return "logistic";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

void activate(Activation a, float* x, std::size_t n) {
  if (branch_free_rectifier(a)) {
    oblivious_activate(a, x, n);
    return;
  }
  // A recorded rectifier reports each sign-test outcome to the observatory.
  obs::PageTraceRecorder* rec = obs::page_trace_recorder();
  switch (a) {
    case Activation::kLinear:
      return;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        const bool pos = x[i] > 0;
        rec->branch("act.leaky", pos);
        x[i] = pos ? x[i] : kLeakySlope * x[i];
      }
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        const bool pos = x[i] > 0;
        rec->branch("act.relu", pos);
        x[i] = pos ? x[i] : 0;
      }
      return;
    case Activation::kLogistic:
      for (std::size_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      return;
  }
}

void gradient(Activation a, const float* y, float* delta, std::size_t n) {
  if (branch_free_rectifier(a)) {
    oblivious_activation_gradient(a, y, delta, n);
    return;
  }
  obs::PageTraceRecorder* rec = obs::page_trace_recorder();
  switch (a) {
    case Activation::kLinear:
      return;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        const bool pos = y[i] > 0;
        rec->branch("act.grad", pos);
        delta[i] *= pos ? 1.0f : kLeakySlope;
      }
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        const bool pos = y[i] > 0;
        rec->branch("act.grad", pos);
        delta[i] *= pos ? 1.0f : 0.0f;
      }
      return;
    case Activation::kLogistic:
      for (std::size_t i = 0; i < n; ++i) delta[i] *= y[i] * (1.0f - y[i]);
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) delta[i] *= 1.0f - y[i] * y[i];
      return;
  }
}

}  // namespace plinius::ml
