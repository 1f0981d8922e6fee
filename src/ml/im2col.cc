#include "ml/im2col.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/error.h"
#include "obs/leakage.h"

namespace plinius::ml {

#if defined(__x86_64__)
namespace {

// col[i] = src[index[i]] eight floats per AVX2 gather, over the longest
// prefix of whole groups of eight; returns its length. A gather moves bits,
// so it and the scalar loop write identical columns.
[[gnu::target("avx2")]] std::size_t gather_avx2(const std::uint32_t* index, std::size_t n,
                                                const float* src, float* col) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lanes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(index + i));
    _mm256_storeu_ps(col + i, _mm256_i32gather_ps(src, lanes, 4));
  }
  return i;
}

// col2im over the longest prefix of whole groups of eight image elements;
// returns its length. Eight elements advance together, one masked gather
// per tap slot: a slot with no tap gathers -0.0f, and x + -0.0f == x for
// every x, so each element gets exactly the scalar loop's adds.
[[gnu::target("avx2")]] std::size_t col2im_avx2(const std::int32_t* slots, std::size_t taps,
                                                std::size_t n, const float* col,
                                                float* im) {
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  const __m256i none = _mm256_set1_epi32(-1);
  std::size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    __m256 v = _mm256_loadu_ps(im + e);
    for (std::size_t t = 0; t < taps; ++t, slots += 8) {
      const __m256i lanes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots));
      const __m256 live = _mm256_castsi256_ps(_mm256_cmpgt_epi32(lanes, none));
      v = _mm256_add_ps(v, _mm256_mask_i32gather_ps(neg_zero, col, lanes, live, 4));
    }
    _mm256_storeu_ps(im + e, v);
  }
  return e;
}

}  // namespace
#endif

LoweringPlan::LoweringPlan(const ConvShape& shape)
    : shape_(shape), image_size_(shape.channels * shape.height * shape.width) {
  const auto [channels, height, width, ksize, stride, pad] = shape;
  expects(ksize > 0 && stride > 0, "LoweringPlan: bad kernel/stride");
  if (height + 2 * pad < ksize || width + 2 * pad < ksize) {
    throw MlError("LoweringPlan: kernel larger than padded input");
  }
  expects(image_size_ < std::numeric_limits<std::int32_t>::max(),
          "LoweringPlan: image exceeds 31-bit gather indexing");
  const std::size_t out_h = conv_out_dim(height, ksize, stride, pad);
  const std::size_t out_w = conv_out_dim(width, ksize, stride, pad);

  // The one index walk. Column row (c, h) reads padded row h*stride +
  // h_offset of channel c_im, column w padded column w*stride + w_offset.
  for (std::size_t c = 0; c < channels * ksize * ksize; ++c) {
    const std::size_t w_offset = c % ksize;
    const std::size_t h_offset = (c / ksize) % ksize;
    const std::size_t c_im = c / ksize / ksize;
    for (std::size_t h = 0; h < out_h; ++h) {
      const std::size_t row = h * stride + h_offset;
      const bool pad_row = row < pad || row >= height + pad;
      pad_rows_.push_back(pad_row);
      for (std::size_t w = 0; w < out_w; ++w) {
        const std::size_t col = w * stride + w_offset;
        const bool inside = !pad_row && col >= pad && col < width + pad;
        index_.push_back(static_cast<std::uint32_t>(
            inside ? (c_im * height + row - pad) * width + col - pad : image_size_));
      }
    }
  }

  expects(index_.size() <= std::numeric_limits<std::int32_t>::max(),
          "LoweringPlan: column matrix exceeds 31-bit tap indexing");
}

template <class T>
void LoweringPlan::gather(const T* im, T* scratch, T* col, detail::Isa isa) const {
  const T* src = shape_.pad > 0 ? scratch : im;
  if (src != im) {
    std::copy_n(im, image_size_, scratch);
    scratch[image_size_] = T{0};
  }
  const std::uint32_t* index = index_.data();
  const std::size_t n = index_.size();
  std::size_t i = 0;
#if defined(__x86_64__)
  if constexpr (std::is_same_v<T, float>) {
    if (isa != detail::Isa::kScalar) i = gather_avx2(index, n, src, col);
  }
#endif
  for (; i < n; ++i) col[i] = src[index[i]];
}

template void LoweringPlan::gather(const float*, float*, float*, detail::Isa) const;
template void LoweringPlan::gather(const std::int8_t*, std::int8_t*, std::int8_t*,
                                   detail::Isa) const;

void LoweringPlan::im2col(const float* im, float* scratch, float* col) const {
  // The attacker-visible branch of a row-by-row walk: one event per column
  // row, in row order, emitted only when someone is recording.
  if (obs::PageTraceRecorder* rec = obs::page_trace_recorder()) {
    for (const std::uint8_t pad_row : pad_rows_) rec->branch("im2col.pad_row", pad_row);
  }
  gather(im, scratch, col);
}

void LoweringPlan::col2im(const float* col, float* im, detail::Isa isa) {
  // The walk inverted, on the first call only: slot t of image element e
  // holds the column element of e's t-th tap (ascending), or -1 past its
  // last one. Padding taps read no image element and have no slot.
  if (!tap_slots_built_) {
    std::vector<std::uint32_t> count(image_size_ + 1, 0);
    for (const std::uint32_t e : index_) ++count[e];
    count.pop_back();  // the padding taps
    max_taps_ = count.empty() ? 0 : *std::max_element(count.begin(), count.end());
    tap_slots_.assign((image_size_ + 7) / 8 * 8 * max_taps_, -1);
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i = 0; i < index_.size(); ++i) {
      const std::size_t e = index_[i];
      if (e < image_size_) tap_slots_[slot(e, count[e]++)] = static_cast<std::int32_t>(i);
    }
    tap_slots_built_ = true;
  }

  // Each image element's adds are one short chain of its own, and no add
  // waits on another element's store.
  std::size_t e = 0;
#if defined(__x86_64__)
  if (isa != detail::Isa::kScalar) {
    e = col2im_avx2(tap_slots_.data(), max_taps_, image_size_, col, im);
  }
#endif
  for (; e < image_size_; ++e) {
    float v = im[e];
    for (std::size_t t = 0; t < max_taps_; ++t) {
      const std::int32_t i = tap_slots_[slot(e, t)];
      if (i >= 0) v += col[i];
    }
    im[e] = v;
  }
}

}  // namespace plinius::ml
