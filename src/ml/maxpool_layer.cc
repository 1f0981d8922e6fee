#include "ml/maxpool_layer.h"

#include <limits>

#include "ml/oblivious.h"
#include "obs/leakage.h"

namespace plinius::ml {

namespace {
Shape pool_output_shape(Shape in, const MaxPoolConfig& c) {
  // Darknet pools with implicit right/bottom padding: out = ceil(in/stride)
  // when size == stride; the general formula below matches its (in + size -
  // 1)/stride + 1 variant for size != stride is overkill here — we use the
  // common (in - size)/stride + 1 with required divisibility. Checked here,
  // before the division: this runs in the base-class initializer.
  if (c.size == 0 || c.stride == 0) throw MlError("MaxPoolLayer: bad size/stride");
  if (in.h < c.size || in.w < c.size) {
    throw MlError("MaxPoolLayer: window larger than input");
  }
  return Shape{in.c, (in.h - c.size) / c.stride + 1, (in.w - c.size) / c.stride + 1};
}
}  // namespace

MaxPoolLayer::MaxPoolLayer(Shape in, const MaxPoolConfig& config)
    : Layer(in, pool_output_shape(in, config)), config_(config) {}

void MaxPoolLayer::forward(const float* input, std::size_t batch, bool /*train*/) {
  argmax_.resize(batch * out_shape_.size());
  const std::size_t in_hw = in_shape_.h * in_shape_.w;
  const bool branchless = oblivious_kernels();
  obs::PageTraceRecorder* rec =
      branchless ? nullptr : obs::page_trace_recorder();
  obs::touch_pages("maxpool.in", 0, batch * in_shape_.size() * sizeof(float));

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < in_shape_.c; ++c) {
      const float* in_plane = input + (b * in_shape_.c + c) * in_hw;
      const std::size_t plane_base = (b * in_shape_.c + c) * in_hw;
      for (std::size_t oh = 0; oh < out_shape_.h; ++oh) {
        for (std::size_t ow = 0; ow < out_shape_.w; ++ow) {
          float best = -std::numeric_limits<float>::infinity();
          std::uint32_t best_idx = 0;
          for (std::size_t kh = 0; kh < config_.size; ++kh) {
            const std::size_t ih = oh * config_.stride + kh;
            for (std::size_t kw = 0; kw < config_.size; ++kw) {
              const std::size_t iw = ow * config_.stride + kw;
              const float v = in_plane[ih * in_shape_.w + iw];
              const std::uint32_t idx =
                  static_cast<std::uint32_t>(ih * in_shape_.w + iw);
              if (branchless) {
                // Same strict compare, resolved by masked select instead of
                // a data-dependent branch; bitwise-equal result.
                const bool gt = v > best;
                best = select_float(gt, v, best);
                best_idx = select_u32(gt, idx, best_idx);
              } else {
                const bool gt = v > best;
                if (rec != nullptr) rec->branch("maxpool.cmp", gt);
                if (gt) {
                  best = v;
                  best_idx = idx;
                }
              }
            }
          }
          const std::size_t out_idx =
              (b * in_shape_.c + c) * out_shape_.h * out_shape_.w +
              oh * out_shape_.w + ow;
          output_[out_idx] = best;
          argmax_[out_idx] = static_cast<std::uint32_t>(plane_base) + best_idx;
        }
      }
    }
  }
}

void MaxPoolLayer::backward(const float* /*input*/, float* input_delta,
                            std::size_t batch) {
  if (input_delta == nullptr) return;
  const std::size_t total = batch * out_shape_.size();
  for (std::size_t i = 0; i < total; ++i) {
    input_delta[argmax_[i]] += delta_[i];
  }
}

}  // namespace plinius::ml
