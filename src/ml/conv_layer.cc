#include "ml/conv_layer.h"

#include <cmath>
#include <cstring>

#include "ml/gemm.h"
#include "ml/im2col.h"
#include "ml/oblivious.h"
#include "obs/leakage.h"

namespace plinius::ml {

namespace {
constexpr float kBnEps = 1e-5f;
constexpr float kRollingMomentum = 0.99f;

Shape conv_output_shape(Shape in, const ConvConfig& c) {
  if (in.h + 2 * c.pad < c.ksize || in.w + 2 * c.pad < c.ksize) {
    throw MlError("ConvLayer: kernel larger than padded input");
  }
  return Shape{c.filters, conv_out_dim(in.h, c.ksize, c.stride, c.pad),
               conv_out_dim(in.w, c.ksize, c.stride, c.pad)};
}
}  // namespace

ConvLayer::ConvLayer(Shape in, const ConvConfig& config, Rng& init_rng)
    : Layer(in, conv_output_shape(in, config)), config_(config) {
  expects(in.size() > 0, "ConvLayer: empty input shape");
  expects(config.ksize > 0 && config.stride > 0, "ConvLayer: bad kernel/stride");
  expects(out_shape_.h > 0 && out_shape_.w > 0, "ConvLayer: kernel larger than input");

  const std::size_t n = config_.filters;
  const std::size_t wsize = n * in.c * config_.ksize * config_.ksize;
  weights_.resize(wsize);
  weight_updates_.assign(wsize, 0.0f);
  biases_.assign(n, 0.0f);
  bias_updates_.assign(n, 0.0f);

  // He initialization, as Darknet: scale * N(0,1).
  const float scale = std::sqrt(2.0f / static_cast<float>(in.c * config_.ksize *
                                                          config_.ksize));
  for (auto& w : weights_) w = scale * init_rng.normal();

  if (config_.batch_normalize) {
    scales_.assign(n, 1.0f);
    scale_updates_.assign(n, 0.0f);
    rolling_mean_.assign(n, 0.0f);
    // Rolling variance starts at 1 (not Darknet's 0) so inference on an
    // untrained model stays finite; it converges to batch statistics anyway.
    rolling_variance_.assign(n, 1.0f);
    mean_.assign(n, 0.0f);
    variance_.assign(n, 0.0f);
    mean_delta_.assign(n, 0.0f);
    variance_delta_.assign(n, 0.0f);
  }
}

std::size_t ConvLayer::forward_macs() const {
  return config_.filters * in_shape_.c * config_.ksize * config_.ksize * spatial();
}

void ConvLayer::forward(const float* input, std::size_t batch, bool train) {
  const std::size_t k = in_shape_.c * config_.ksize * config_.ksize;
  const std::size_t n_spatial = spatial();
  workspace_.resize(k * n_spatial);
  std::fill(output_.begin(), output_.end(), 0.0f);
  const bool fixed_cols = oblivious_options().fixed_im2col;
  obs::touch_pages("conv.weights", 0, weights_.size() * sizeof(float));

  for (std::size_t b = 0; b < batch; ++b) {
    const float* im = input + b * in_shape_.size();
    float* out = output_.data() + b * out_shape_.size();
    obs::touch_pages("conv.in", b * in_shape_.size() * sizeof(float),
                     in_shape_.size() * sizeof(float));
    if (config_.ksize == 1 && config_.stride == 1 && config_.pad == 0) {
      gemm_nn(config_.filters, n_spatial, k, 1.0f, weights_.data(), im, out);
    } else {
      if (fixed_cols) {
        im2col_fixed(im, in_shape_.c, in_shape_.h, in_shape_.w, config_.ksize,
                     config_.stride, config_.pad, workspace_.data());
      } else {
        im2col(im, in_shape_.c, in_shape_.h, in_shape_.w, config_.ksize,
               config_.stride, config_.pad, workspace_.data());
      }
      gemm_nn(config_.filters, n_spatial, k, 1.0f, weights_.data(), workspace_.data(),
              out);
    }
  }

  if (config_.batch_normalize) {
    forward_batchnorm(batch, train);
  }
  add_bias(batch);
  activate(config_.activation, output_.data(), output_.size());
}

void ConvLayer::add_bias(std::size_t batch) {
  const std::size_t n_spatial = spatial();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < config_.filters; ++f) {
      float* out = output_.data() + (b * config_.filters + f) * n_spatial;
      const float bias = biases_[f];
      for (std::size_t s = 0; s < n_spatial; ++s) out[s] += bias;
    }
  }
}

void ConvLayer::forward_batchnorm(std::size_t batch, bool train) {
  const std::size_t n_spatial = spatial();
  const std::size_t per_filter = batch * n_spatial;

  if (train) {
    x_ = output_;  // save pre-normalization activations for backward
    for (std::size_t f = 0; f < config_.filters; ++f) {
      double sum = 0;
      for (std::size_t b = 0; b < batch; ++b) {
        const float* out = output_.data() + (b * config_.filters + f) * n_spatial;
        for (std::size_t s = 0; s < n_spatial; ++s) sum += out[s];
      }
      mean_[f] = static_cast<float>(sum / per_filter);

      double var = 0;
      for (std::size_t b = 0; b < batch; ++b) {
        const float* out = output_.data() + (b * config_.filters + f) * n_spatial;
        for (std::size_t s = 0; s < n_spatial; ++s) {
          const double d = out[s] - mean_[f];
          var += d * d;
        }
      }
      variance_[f] = static_cast<float>(var / per_filter);

      rolling_mean_[f] = kRollingMomentum * rolling_mean_[f] +
                         (1.0f - kRollingMomentum) * mean_[f];
      rolling_variance_[f] = kRollingMomentum * rolling_variance_[f] +
                             (1.0f - kRollingMomentum) * variance_[f];
    }
  }

  const float* use_mean = train ? mean_.data() : rolling_mean_.data();
  const float* use_var = train ? variance_.data() : rolling_variance_.data();

  x_norm_.resize(output_.size());
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < config_.filters; ++f) {
      float* out = output_.data() + (b * config_.filters + f) * n_spatial;
      const float inv_std = 1.0f / std::sqrt(use_var[f] + kBnEps);
      const float m = use_mean[f];
      const float g = scales_[f];
      float* xn = x_norm_.data() + (b * config_.filters + f) * n_spatial;
      for (std::size_t s = 0; s < n_spatial; ++s) {
        const float normalized = (out[s] - m) * inv_std;
        xn[s] = normalized;
        out[s] = g * normalized;
      }
    }
  }
}

void ConvLayer::backward_batchnorm(std::size_t batch) {
  const std::size_t n_spatial = spatial();
  const auto per_filter = static_cast<float>(batch * n_spatial);

  // d/d scale and switch delta to d/d x_hat.
  for (std::size_t f = 0; f < config_.filters; ++f) {
    double ssum = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t off = (b * config_.filters + f) * n_spatial;
      for (std::size_t s = 0; s < n_spatial; ++s) {
        ssum += delta_[off + s] * x_norm_[off + s];
      }
    }
    scale_updates_[f] += static_cast<float>(ssum);
  }
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < config_.filters; ++f) {
      float* d = delta_.data() + (b * config_.filters + f) * n_spatial;
      const float g = scales_[f];
      for (std::size_t s = 0; s < n_spatial; ++s) d[s] *= g;
    }
  }

  // Mean/variance gradients (Darknet's formulation).
  for (std::size_t f = 0; f < config_.filters; ++f) {
    const float inv_std = 1.0f / std::sqrt(variance_[f] + kBnEps);
    double dmean = 0, dvar = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t off = (b * config_.filters + f) * n_spatial;
      for (std::size_t s = 0; s < n_spatial; ++s) {
        dmean += delta_[off + s];
        dvar += delta_[off + s] * (x_[off + s] - mean_[f]);
      }
    }
    mean_delta_[f] = static_cast<float>(-dmean * inv_std);
    variance_delta_[f] = static_cast<float>(
        dvar * -0.5 * std::pow(static_cast<double>(variance_[f]) + kBnEps, -1.5));
  }

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < config_.filters; ++f) {
      const std::size_t off = (b * config_.filters + f) * n_spatial;
      const float inv_std = 1.0f / std::sqrt(variance_[f] + kBnEps);
      for (std::size_t s = 0; s < n_spatial; ++s) {
        delta_[off + s] = delta_[off + s] * inv_std +
                          variance_delta_[f] * 2.0f * (x_[off + s] - mean_[f]) /
                              per_filter +
                          mean_delta_[f] / per_filter;
      }
    }
  }
}

void ConvLayer::backward(const float* input, float* input_delta, std::size_t batch) {
  const std::size_t k = in_shape_.c * config_.ksize * config_.ksize;
  const std::size_t n_spatial = spatial();

  gradient(config_.activation, output_.data(), delta_.data(), output_.size());

  // Bias gradients.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < config_.filters; ++f) {
      const float* d = delta_.data() + (b * config_.filters + f) * n_spatial;
      double sum = 0;
      for (std::size_t s = 0; s < n_spatial; ++s) sum += d[s];
      bias_updates_[f] += static_cast<float>(sum);
    }
  }

  if (config_.batch_normalize) {
    backward_batchnorm(batch);
  }

  workspace_.resize(k * n_spatial);
  if (input_delta != nullptr) {
    // W^T once per call; every sample's input gradient reuses it.
    weights_t_.resize(weights_.size());
    transpose(config_.filters, k, weights_.data(), weights_t_.data());
    col_delta_.resize(k * n_spatial);
  }

  for (std::size_t b = 0; b < batch; ++b) {
    const float* im = input + b * in_shape_.size();
    const float* d = delta_.data() + b * out_shape_.size();

    // Weight gradients: dW += delta_b x cols(im)^T.
    const float* cols = im;
    if (!(config_.ksize == 1 && config_.stride == 1 && config_.pad == 0)) {
      if (oblivious_options().fixed_im2col) {
        im2col_fixed(im, in_shape_.c, in_shape_.h, in_shape_.w, config_.ksize,
                     config_.stride, config_.pad, workspace_.data());
      } else {
        im2col(im, in_shape_.c, in_shape_.h, in_shape_.w, config_.ksize,
               config_.stride, config_.pad, workspace_.data());
      }
      cols = workspace_.data();
    }
    gemm_nt(config_.filters, k, n_spatial, 1.0f, d, cols, weight_updates_.data());

    // Input gradients: cols_delta = W^T x delta_b, scattered back by col2im.
    if (input_delta != nullptr) {
      std::fill(col_delta_.begin(), col_delta_.end(), 0.0f);
      gemm_nn(k, n_spatial, config_.filters, 1.0f, weights_t_.data(), d,
              col_delta_.data());
      float* id = input_delta + b * in_shape_.size();
      if (config_.ksize == 1 && config_.stride == 1 && config_.pad == 0) {
        for (std::size_t i = 0; i < in_shape_.size(); ++i) id[i] += col_delta_[i];
      } else {
        col2im(col_delta_.data(), in_shape_.c, in_shape_.h, in_shape_.w, config_.ksize,
               config_.stride, config_.pad, id);
      }
    }
  }
}

void ConvLayer::update(const SgdParams& params, std::size_t batch) {
  sgd_update(weights_, weight_updates_, params, batch, /*use_decay=*/true);
  sgd_update(biases_, bias_updates_, params, batch, /*use_decay=*/false);
  if (config_.batch_normalize) {
    sgd_update(scales_, scale_updates_, params, batch, /*use_decay=*/false);
  }
}

std::vector<ParamBuffer> ConvLayer::parameters() {
  std::vector<ParamBuffer> out;
  out.push_back({"weights", weights_});
  out.push_back({"biases", biases_});
  if (config_.batch_normalize) {
    out.push_back({"scales", scales_});
    out.push_back({"rolling_mean", rolling_mean_});
    out.push_back({"rolling_variance", rolling_variance_});
  }
  return out;
}

}  // namespace plinius::ml
