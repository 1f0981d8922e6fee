// Per-element reference walk for the conv lowering: every column element
// recomputes its image row and column and tests them against the bounds.
// ml::LoweringPlan precomputes the same walk once per shape; the tests pin
// its gathers, its scatter and its pad-row trace bitwise against this.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "ml/im2col.h"

namespace plinius::ml::reference {

/// "c2 7x5 k3 s2 p1", for failure messages.
inline std::string describe(const ConvShape& s) {
  std::ostringstream out;
  out << 'c' << s.channels << ' ' << s.height << 'x' << s.width << " k" << s.ksize
      << " s" << s.stride << " p" << s.pad;
  return out.str();
}

/// Column matrix of `im`; `pad_rows` (if given) receives one flag per
/// column row, in row order: the row lies entirely in the vertical padding.
template <class T>
void im2col(const T* im, const ConvShape& s, T* col,
            std::vector<bool>* pad_rows = nullptr) {
  const std::size_t out_h = conv_out_dim(s.height, s.ksize, s.stride, s.pad);
  const std::size_t out_w = conv_out_dim(s.width, s.ksize, s.stride, s.pad);
  const auto height = static_cast<long>(s.height);
  const auto width = static_cast<long>(s.width);
  const auto pad = static_cast<long>(s.pad);
  for (std::size_t c = 0; c < s.channels * s.ksize * s.ksize; ++c) {
    const std::size_t w_offset = c % s.ksize;
    const std::size_t h_offset = (c / s.ksize) % s.ksize;
    const std::size_t c_im = c / s.ksize / s.ksize;
    for (std::size_t h = 0; h < out_h; ++h) {
      const long im_row = static_cast<long>(h * s.stride + h_offset) - pad;
      const bool pad_row = im_row < 0 || im_row >= height;
      if (pad_rows != nullptr) pad_rows->push_back(pad_row);
      for (std::size_t w = 0; w < out_w; ++w) {
        const long im_col = static_cast<long>(w * s.stride + w_offset) - pad;
        const bool inside = !pad_row && im_col >= 0 && im_col < width;
        col[(c * out_h + h) * out_w + w] =
            inside ? im[(static_cast<long>(c_im) * height + im_row) * width + im_col]
                   : T{0};
      }
    }
  }
}

/// Adds each column element into the image element it reads, in ascending
/// column-element order; elements that read padding are dropped.
inline void col2im(const float* col, const ConvShape& s, float* im) {
  const std::size_t out_h = conv_out_dim(s.height, s.ksize, s.stride, s.pad);
  const std::size_t out_w = conv_out_dim(s.width, s.ksize, s.stride, s.pad);
  const auto height = static_cast<long>(s.height);
  const auto width = static_cast<long>(s.width);
  const auto pad = static_cast<long>(s.pad);
  for (std::size_t c = 0; c < s.channels * s.ksize * s.ksize; ++c) {
    const std::size_t w_offset = c % s.ksize;
    const std::size_t h_offset = (c / s.ksize) % s.ksize;
    const std::size_t c_im = c / s.ksize / s.ksize;
    for (std::size_t h = 0; h < out_h; ++h) {
      const long im_row = static_cast<long>(h * s.stride + h_offset) - pad;
      for (std::size_t w = 0; w < out_w; ++w) {
        const long im_col = static_cast<long>(w * s.stride + w_offset) - pad;
        if (im_row < 0 || im_row >= height || im_col < 0 || im_col >= width) continue;
        im[(static_cast<long>(c_im) * height + im_row) * width + im_col] +=
            col[(c * out_h + h) * out_w + w];
      }
    }
  }
}

}  // namespace plinius::ml::reference
