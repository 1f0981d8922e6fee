// Data-oblivious kernel variants.
//
// The baseline ml kernels branch on secret-derived values: (leaky-)ReLU takes
// a different path per sign, maxpool's running-max compare depends on the
// data, im2col skips padded rows, and a Fisher–Yates shuffle's swap pattern
// is the permutation. All of that is visible to a controlled-channel
// attacker (see obs/leakage.h). The variants here compute the *same bits*
// through a fixed instruction/access schedule:
//
//   * branchless (leaky-)ReLU and gradient — bitmask arithmetic select,
//   * branchless maxpool compare-exchange — masked select of value and index,
//   * fixed-shape im2col — the lowering plan's gather under its own trace
//     mark (ml/im2col.h),
//   * oblivious dataset shuffle — bitonic sorting network over random keys
//     with masked row swaps (access schedule depends only on the row count).
//
// Every variant is bitwise-equivalent to its baseline (tests/leak_test.cpp
// asserts it); the observatory asserts the trace collapses to
// input-independence. Selection is one process-global switch — all variants
// or none — so the network/layer code dispatches without plumbing a flag
// through every call.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "ml/activation.h"
#include "ml/data.h"
#include "ml/im2col.h"

namespace plinius::ml {

/// True while every kernel runs its data-oblivious variant; false (the
/// default) runs the baselines.
[[nodiscard]] bool oblivious_kernels() noexcept;

/// RAII: turns the oblivious variants on for the scope and restores the
/// previous setting after.
class ScopedObliviousKernels {
 public:
  ScopedObliviousKernels();
  ~ScopedObliviousKernels();
  ScopedObliviousKernels(const ScopedObliviousKernels&) = delete;
  ScopedObliviousKernels& operator=(const ScopedObliviousKernels&) = delete;

 private:
  bool previous_;
};

/// Constant-schedule select: returns `a` when cond, else `b`, via a bitmask
/// (no data-dependent branch; bit-exact for NaN/-0.0 payloads).
[[nodiscard]] inline float select_float(bool cond, float a, float b) noexcept {
  const std::uint32_t mask = -static_cast<std::uint32_t>(cond);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & mask) |
                              (std::bit_cast<std::uint32_t>(b) & ~mask));
}

[[nodiscard]] inline std::uint32_t select_u32(bool cond, std::uint32_t a,
                                              std::uint32_t b) noexcept {
  const std::uint32_t mask = -static_cast<std::uint32_t>(cond);
  return (a & mask) | (b & ~mask);
}

/// Branchless activations — bitwise-equal to activate()/gradient() for
/// kRelu/kLeakyRelu; other activations fall through to the baseline (they
/// are already fixed-schedule elementwise math).
void oblivious_activate(Activation a, float* x, std::size_t n);
void oblivious_activation_gradient(Activation a, const float* y, float* delta,
                                   std::size_t n);

/// Fixed-shape im2col: the same gather as LoweringPlan::im2col(), which is
/// already oblivious (every column element is one load at an address fixed
/// by the plan's shape; padding taps all read one staged zero). It differs
/// only in its trace: one `im2col.fixed` mark instead of a branch event per
/// padded row.
void im2col_fixed(const LoweringPlan& plan, const float* im, float* scratch,
                  float* col);

/// Oblivious in-place shuffle: sorts rows by per-row random keys drawn from
/// `seed` through a bitonic network with masked compare-exchange swaps. The
/// sequence of row pairs touched depends only on data.size(), never on the
/// seed — the permutation is invisible in the access trace. Rows are padded
/// to the next power of two internally (dummy keys sink to the end).
void oblivious_shuffle_dataset(Dataset& data, std::uint64_t seed);

}  // namespace plinius::ml
