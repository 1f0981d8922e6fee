// Darknet's convolution lowering (im2col / col2im) through one plan per conv
// shape, built once by the layer that owns the shape. Per
// column-matrix element the plan holds the index of the image element it
// reads (padding taps read one staged zero past the image), per column row a
// vertical-padding flag. im2col and im2col_fixed (ml/oblivious.h) are the
// same float gather under different trace hooks, the int8 conv (ml/quant.h)
// gathers int8, and col2im adds each image element's taps in ascending
// column-element order through the same walk inverted (tap slots, built on
// col2im's first call, so the gathers never pay for them).
// The float gather and col2im run eight lanes at a time on the SIMD bands
// (ml/isa.h) and element by element on the scalar band, with the same bits;
// tests pass each runnable band. Host work only: nothing here charges the
// simulated clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/isa.h"

namespace plinius::ml {

/// Output spatial extent of a convolution/pooling dimension.
[[nodiscard]] constexpr std::size_t conv_out_dim(std::size_t in, std::size_t ksize,
                                                 std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - ksize) / stride + 1;
}

/// An image [channels x height x width] under a ksize x ksize kernel at
/// `stride` with `pad` zeros on every side.
struct ConvShape {
  std::size_t channels = 0, height = 0, width = 0;
  std::size_t ksize = 1, stride = 1, pad = 0;

  [[nodiscard]] bool operator==(const ConvShape&) const = default;
};

class LoweringPlan {
 public:
  /// Throws MlError unless the kernel fits the padded image.
  explicit LoweringPlan(const ConvShape& shape);

  [[nodiscard]] const ConvShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t col_size() const noexcept { return index_.size(); }
  /// Elements of the staging scratch the gathers take: the image plus its
  /// zero, or none when pad == 0.
  [[nodiscard]] std::size_t scratch_size() const noexcept {
    return shape_.pad == 0 ? 0 : image_size_ + 1;
  }

  /// col[i] = the image element column element i reads, or 0.
  template <class T>
  void gather(const T* im, T* scratch, T* col,
              detail::Isa isa = detail::cpu_isa()) const;

  /// The float gather for GEMM-based convolution, reporting the padded rows
  /// to an attached leakage recorder.
  void im2col(const float* im, float* scratch, float* col) const;

  /// Inverse accumulation (input gradients): im[e] += col[i] for every
  /// column element i that reads image element e, i ascending, so each image
  /// element gets the same adds in the same order whatever it held. Padding
  /// taps are dropped. Walks the image, not the columns, through tap slots
  /// built on the first call (a gather-only plan never builds them), so it
  /// needs no staging.
  void col2im(const float* col, float* im, detail::Isa isa = detail::cpu_isa());

 private:
  /// Position of image element e's tap slot t: groups of eight elements,
  /// each group's slots tap-major, so eight elements' slot t are adjacent.
  [[nodiscard]] std::size_t slot(std::size_t e, std::size_t t) const noexcept {
    return (e / 8 * max_taps_ + t) * 8 + e % 8;
  }

  ConvShape shape_;
  std::size_t image_size_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint8_t> pad_rows_;  // per column row: all vertical padding
  // index_ inverted for col2im (by its first call): max_taps_ slots per
  // image element, each the column element of one of its taps, ascending,
  // then -1s.
  bool tap_slots_built_ = false;
  std::size_t max_taps_ = 0;
  std::vector<std::int32_t> tap_slots_;
};

}  // namespace plinius::ml
