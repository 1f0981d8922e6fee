#include "ml/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ml/avgpool_layer.h"
#include "ml/connected_layer.h"
#include "ml/conv_layer.h"
#include "ml/dropout_layer.h"
#include "ml/gemm_s8.h"
#include "ml/im2col.h"
#include "ml/maxpool_layer.h"
#include "ml/softmax_layer.h"

namespace plinius::ml {

namespace {

constexpr float kBnEps = 1e-5f;       // as ConvLayer::forward_batchnorm

// Smallest admissible scale: guards against all-zero calibration activations
// producing a zero divisor. 1e-6 / 127 is far below any real activation.
constexpr float kScaleFloor = 1e-6f / 127.0f;

std::int8_t saturate_round(float v) {
  const float r = v >= 0.0f ? v + 0.5f : v - 0.5f;
  auto i = static_cast<std::int32_t>(r);
  i = std::clamp(i, -127, 127);
  return static_cast<std::int8_t>(i);
}

float scale_for(double max_abs) {
  return std::max(static_cast<float>(max_abs) / 127.0f, kScaleFloor);
}

// int8 twin of ml/im2col.cc: identical index walk, zero padding (exact — a
// real 0 quantizes to 0 under a symmetric scheme).
void im2col_s8(const std::int8_t* data_im, std::size_t channels, std::size_t height,
               std::size_t width, std::size_t ksize, std::size_t stride,
               std::size_t pad, std::int8_t* data_col) {
  const std::size_t out_h = conv_out_dim(height, ksize, stride, pad);
  const std::size_t out_w = conv_out_dim(width, ksize, stride, pad);
  const std::size_t channels_col = channels * ksize * ksize;

  for (std::size_t c = 0; c < channels_col; ++c) {
    const std::size_t w_offset = c % ksize;
    const std::size_t h_offset = (c / ksize) % ksize;
    const std::size_t c_im = c / ksize / ksize;
    for (std::size_t h = 0; h < out_h; ++h) {
      const long im_row =
          static_cast<long>(h * stride + h_offset) - static_cast<long>(pad);
      std::int8_t* out_row = data_col + (c * out_h + h) * out_w;
      if (im_row < 0 || im_row >= static_cast<long>(height)) {
        for (std::size_t w = 0; w < out_w; ++w) out_row[w] = 0;
        continue;
      }
      const std::int8_t* im_base = data_im + (c_im * height + im_row) * width;
      for (std::size_t w = 0; w < out_w; ++w) {
        const long im_col =
            static_cast<long>(w * stride + w_offset) - static_cast<long>(pad);
        out_row[w] = (im_col < 0 || im_col >= static_cast<long>(width))
                         ? std::int8_t{0}
                         : im_base[im_col];
      }
    }
  }
}

Activation check_quantizable(Activation act, const char* layer_type) {
  if (act != Activation::kLinear && act != Activation::kRelu &&
      act != Activation::kLeakyRelu) {
    throw MlError(std::string("quantize_network: activation of ") + layer_type +
                  " layer cannot fold into int8 requantization");
  }
  return act;
}

std::span<float> find_param(std::vector<ParamBuffer>& params, const char* name) {
  for (auto& p : params) {
    if (p.name == name) return p.values;
  }
  throw MlError(std::string("quantize_network: missing parameter buffer ") + name);
}

}  // namespace

std::int8_t quantize_value(float v, float scale) {
  return saturate_round(v / scale);
}

std::int8_t requantize(std::int32_t acc, float multiplier, Activation act) {
  float v = static_cast<float>(acc) * multiplier;
  if (acc < 0) {
    if (act == Activation::kRelu) return 0;
    if (act == Activation::kLeakyRelu) v *= kLeakySlope;
  }
  return saturate_round(v);
}

std::size_t QuantLayer::forward_macs() const {
  switch (kind) {
    case QLayerKind::kConv:
      return out.c * in.c * ksize * ksize * out.h * out.w;
    case QLayerKind::kConnected:
      return in.size() * out.size();
    default:
      return 0;
  }
}

const Shape& QuantizedNetwork::output_shape() const {
  expects(!layers_.empty(), "QuantizedNetwork: no layers");
  return layers_.back().out;
}

std::size_t QuantizedNetwork::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.weights.size() + l.biases.size();
  return n;
}

std::size_t QuantizedNetwork::parameter_bytes() const {
  std::size_t n = sizeof(float);  // input scale
  for (const auto& l : layers_) {
    n += l.weights.size() * sizeof(std::int8_t);
    n += l.biases.size() * sizeof(std::int32_t);
    n += 3 * sizeof(float);  // weight/in/out scales
  }
  return n;
}

std::size_t QuantizedNetwork::forward_macs() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.forward_macs();
  return n;
}

void QuantizedNetwork::forward(const float* x, std::size_t batch) {
  expects(!layers_.empty(), "QuantizedNetwork: no layers");
  std::size_t max_act = input_shape_.size();
  for (const auto& l : layers_) max_act = std::max(max_act, l.out.size());
  act_a_.resize(batch * max_act);
  act_b_.resize(batch * max_act);

  // Quantize the input at the calibrated input scale.
  const std::size_t in_n = input_shape_.size();
  for (std::size_t i = 0; i < batch * in_n; ++i) {
    act_a_[i] = quantize_value(x[i], input_scale_);
  }

  std::int8_t* cur = act_a_.data();
  std::int8_t* next = act_b_.data();

  for (const auto& l : layers_) {
    switch (l.kind) {
      case QLayerKind::kConv: {
        const std::size_t k = l.in.c * l.ksize * l.ksize;
        const std::size_t spatial = l.out.h * l.out.w;
        const bool direct = l.ksize == 1 && l.stride == 1 && l.pad == 0;
        if (!direct) cols_.resize(k * spatial);
        acc_.resize(l.out.size());
        const float mult = l.in_scale * l.weight_scale / l.out_scale;
        for (std::size_t b = 0; b < batch; ++b) {
          const std::int8_t* im = cur + b * l.in.size();
          for (std::size_t f = 0; f < l.out.c; ++f) {
            std::fill_n(acc_.data() + f * spatial, spatial, l.biases[f]);
          }
          const std::int8_t* panel = im;
          if (!direct) {
            im2col_s8(im, l.in.c, l.in.h, l.in.w, l.ksize, l.stride, l.pad,
                      cols_.data());
            panel = cols_.data();
          }
          gemm_s8_nn(l.out.c, spatial, k, l.weights.data(), panel, acc_.data());
          std::int8_t* out = next + b * l.out.size();
          for (std::size_t i = 0; i < l.out.size(); ++i) {
            out[i] = requantize(acc_[i], mult, l.activation);
          }
        }
        break;
      }
      case QLayerKind::kConnected: {
        const std::size_t inputs = l.in.size();
        const std::size_t outputs = l.out.size();
        acc_.resize(batch * outputs);
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t o = 0; o < outputs; ++o) {
            acc_[b * outputs + o] = l.biases[o];
          }
        }
        gemm_s8_nt(batch, outputs, inputs, cur, l.weights.data(), acc_.data());
        const float mult = l.in_scale * l.weight_scale / l.out_scale;
        for (std::size_t i = 0; i < batch * outputs; ++i) {
          next[i] = requantize(acc_[i], mult, l.activation);
        }
        break;
      }
      case QLayerKind::kMaxPool: {
        const std::size_t in_hw = l.in.h * l.in.w;
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t c = 0; c < l.in.c; ++c) {
            const std::int8_t* plane = cur + (b * l.in.c + c) * in_hw;
            std::int8_t* out = next + (b * l.in.c + c) * l.out.h * l.out.w;
            for (std::size_t oh = 0; oh < l.out.h; ++oh) {
              for (std::size_t ow = 0; ow < l.out.w; ++ow) {
                std::int8_t best = std::numeric_limits<std::int8_t>::min();
                for (std::size_t kh = 0; kh < l.ksize; ++kh) {
                  const std::size_t ih = oh * l.stride + kh;
                  for (std::size_t kw = 0; kw < l.ksize; ++kw) {
                    const std::int8_t v =
                        plane[ih * l.in.w + ow * l.stride + kw];
                    if (v > best) best = v;
                  }
                }
                out[oh * l.out.w + ow] = best;
              }
            }
          }
        }
        break;
      }
      case QLayerKind::kAvgPool: {
        const std::size_t in_hw = l.in.h * l.in.w;
        if (l.ksize == 0) {  // global
          for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t c = 0; c < l.in.c; ++c) {
              const std::int8_t* plane = cur + (b * l.in.c + c) * in_hw;
              std::int64_t sum = 0;
              for (std::size_t i = 0; i < in_hw; ++i) sum += plane[i];
              next[b * l.in.c + c] = saturate_round(
                  static_cast<float>(static_cast<double>(sum) / in_hw));
            }
          }
        } else {
          const float inv = 1.0f / static_cast<float>(l.ksize * l.ksize);
          for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t c = 0; c < l.in.c; ++c) {
              const std::int8_t* plane = cur + (b * l.in.c + c) * in_hw;
              std::int8_t* out = next + (b * l.in.c + c) * l.out.h * l.out.w;
              for (std::size_t oh = 0; oh < l.out.h; ++oh) {
                for (std::size_t ow = 0; ow < l.out.w; ++ow) {
                  std::int32_t sum = 0;
                  for (std::size_t kh = 0; kh < l.ksize; ++kh) {
                    const std::size_t ih = oh * l.stride + kh;
                    for (std::size_t kw = 0; kw < l.ksize; ++kw) {
                      sum += plane[ih * l.in.w + ow * l.stride + kw];
                    }
                  }
                  out[oh * l.out.w + ow] =
                      saturate_round(static_cast<float>(sum) * inv);
                }
              }
            }
          }
        }
        break;
      }
      case QLayerKind::kDropout:  // inference pass-through
        std::memcpy(next, cur, batch * l.out.size());
        break;
      case QLayerKind::kSoftmax: {
        const std::size_t n = l.in.size();
        output_.resize(batch * n);
        for (std::size_t b = 0; b < batch; ++b) {
          const std::int8_t* in = cur + b * n;
          float* out = output_.data() + b * n;
          // Dequantized logits; then the float softmax as SoftmaxLayer.
          for (std::size_t i = 0; i < n; ++i) {
            out[i] = static_cast<float>(in[i]) * l.in_scale;
          }
          const float largest = *std::max_element(out, out + n);
          float sum = 0;
          for (std::size_t i = 0; i < n; ++i) {
            out[i] = std::exp(out[i] - largest);
            sum += out[i];
          }
          for (std::size_t i = 0; i < n; ++i) out[i] /= sum;
        }
        break;
      }
    }
    std::swap(cur, next);
  }

  // Models not ending in softmax: dequantize the final int8 activations.
  if (layers_.back().kind != QLayerKind::kSoftmax) {
    const auto& last = layers_.back();
    output_.resize(batch * last.out.size());
    for (std::size_t i = 0; i < batch * last.out.size(); ++i) {
      output_[i] = static_cast<float>(cur[i]) * last.out_scale;
    }
  }
}

void QuantizedNetwork::predict(const float* x, std::size_t batch, std::size_t* out) {
  forward(x, batch);
  const std::size_t n = output_shape().size();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = output_.data() + b * n;
    out[b] = static_cast<std::size_t>(std::max_element(row, row + n) - row);
  }
}

double QuantizedNetwork::accuracy(const float* x, const float* y, std::size_t count,
                                  std::size_t eval_batch) {
  expects(count > 0, "QuantizedNetwork::accuracy: empty set");
  const std::size_t in_n = input_shape_.size();
  const std::size_t out_n = output_shape().size();
  std::vector<std::size_t> pred(eval_batch);
  std::size_t correct = 0;

  for (std::size_t start = 0; start < count; start += eval_batch) {
    const std::size_t n = std::min(eval_batch, count - start);
    predict(x + start * in_n, n, pred.data());
    for (std::size_t i = 0; i < n; ++i) {
      const float* truth_row = y + (start + i) * out_n;
      const std::size_t truth =
          static_cast<std::size_t>(std::max_element(truth_row, truth_row + out_n) -
                                   truth_row);
      correct += pred[i] == truth;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(count);
}

QuantizedNetwork quantize_network(Network& net, const float* calib_x,
                                  std::size_t calib_count, std::size_t calib_batch) {
  expects(net.num_layers() > 0, "quantize_network: empty network");
  expects(calib_count > 0, "quantize_network: no calibration samples");

  // Calibration: inference-mode forwards, recording the max-abs activation
  // at the network input and at every layer output.
  const std::size_t in_n = net.input_shape().size();
  double in_max = 0.0;
  std::vector<double> out_max(net.num_layers(), 0.0);
  for (std::size_t start = 0; start < calib_count; start += calib_batch) {
    const std::size_t b = std::min(calib_batch, calib_count - start);
    const float* batch_x = calib_x + start * in_n;
    for (std::size_t i = 0; i < b * in_n; ++i) {
      in_max = std::max(in_max, static_cast<double>(std::fabs(batch_x[i])));
    }
    net.forward(batch_x, b, /*train=*/false);
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      for (const float v : net.layer(li).output()) {
        out_max[li] = std::max(out_max[li], static_cast<double>(std::fabs(v)));
      }
    }
  }

  QuantizedNetwork q;
  q.set_input_shape(net.input_shape());
  q.set_input_scale(scale_for(in_max));
  q.set_iterations(net.iterations());

  float prev_scale = q.input_scale();
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    Layer& layer = net.layer(li);
    QuantLayer ql;
    ql.in = layer.input_shape();
    ql.out = layer.output_shape();
    ql.in_scale = prev_scale;

    if (auto* conv = dynamic_cast<ConvLayer*>(&layer)) {
      const ConvConfig& cfg = conv->config();
      ql.kind = QLayerKind::kConv;
      ql.ksize = cfg.ksize;
      ql.stride = cfg.stride;
      ql.pad = cfg.pad;
      ql.activation = check_quantizable(cfg.activation, "convolutional");
      ql.out_scale = scale_for(out_max[li]);

      auto params = layer.parameters();
      const auto w = find_param(params, "weights");
      const auto bias = find_param(params, "biases");
      const std::size_t per_filter = ql.in.c * cfg.ksize * cfg.ksize;

      // Fold batch-norm (inference uses rolling statistics) into the
      // weights and biases: out = g*(conv - m)*inv_std + b
      //                         = (g*inv_std)*conv + (b - g*m*inv_std).
      std::vector<float> wf(w.begin(), w.end());
      std::vector<float> bf(bias.begin(), bias.end());
      if (cfg.batch_normalize) {
        const auto g = find_param(params, "scales");
        const auto rm = find_param(params, "rolling_mean");
        const auto rv = find_param(params, "rolling_variance");
        for (std::size_t f = 0; f < cfg.filters; ++f) {
          const float inv_std = 1.0f / std::sqrt(rv[f] + kBnEps);
          const float s = g[f] * inv_std;
          for (std::size_t i = 0; i < per_filter; ++i) wf[f * per_filter + i] *= s;
          bf[f] -= g[f] * rm[f] * inv_std;
        }
      }

      double w_max = 0.0;
      for (const float v : wf) w_max = std::max(w_max, static_cast<double>(std::fabs(v)));
      ql.weight_scale = scale_for(w_max);
      ql.weights.resize(wf.size());
      for (std::size_t i = 0; i < wf.size(); ++i) {
        ql.weights[i] = quantize_value(wf[i], ql.weight_scale);
      }
      const float bias_scale = ql.in_scale * ql.weight_scale;
      ql.biases.resize(bf.size());
      for (std::size_t i = 0; i < bf.size(); ++i) {
        ql.biases[i] = static_cast<std::int32_t>(std::lround(bf[i] / bias_scale));
      }
    } else if (auto* fc = dynamic_cast<ConnectedLayer*>(&layer)) {
      ql.kind = QLayerKind::kConnected;
      ql.activation = check_quantizable(fc->config().activation, "connected");
      ql.out_scale = scale_for(out_max[li]);

      auto params = layer.parameters();
      const auto w = find_param(params, "weights");
      const auto bias = find_param(params, "biases");
      double w_max = 0.0;
      for (const float v : w) w_max = std::max(w_max, static_cast<double>(std::fabs(v)));
      ql.weight_scale = scale_for(w_max);
      ql.weights.resize(w.size());
      for (std::size_t i = 0; i < w.size(); ++i) {
        ql.weights[i] = quantize_value(w[i], ql.weight_scale);
      }
      const float bias_scale = ql.in_scale * ql.weight_scale;
      ql.biases.resize(bias.size());
      for (std::size_t i = 0; i < bias.size(); ++i) {
        ql.biases[i] = static_cast<std::int32_t>(std::lround(bias[i] / bias_scale));
      }
    } else if (auto* mp = dynamic_cast<MaxPoolLayer*>(&layer)) {
      ql.kind = QLayerKind::kMaxPool;
      ql.ksize = mp->config().size;
      ql.stride = mp->config().stride;
      ql.out_scale = ql.in_scale;  // int8 max preserves the scale exactly
    } else if (auto* ap = dynamic_cast<AvgPoolLayer*>(&layer)) {
      ql.kind = QLayerKind::kAvgPool;
      ql.ksize = ap->config().size;
      ql.stride = ap->config().stride;
      ql.out_scale = ql.in_scale;  // mean of same-scale values
    } else if (dynamic_cast<DropoutLayer*>(&layer) != nullptr) {
      ql.kind = QLayerKind::kDropout;
      ql.out_scale = ql.in_scale;  // inference pass-through
    } else if (dynamic_cast<SoftmaxLayer*>(&layer) != nullptr) {
      ql.kind = QLayerKind::kSoftmax;
      ql.out_scale = 1.0f;  // output is float probabilities
    } else {
      throw MlError(std::string("quantize_network: unsupported layer type ") +
                    layer.type());
    }

    prev_scale = ql.out_scale;
    q.layers().push_back(std::move(ql));
  }
  return q;
}

}  // namespace plinius::ml
