#include "ml/conv_layer.h"

#include <algorithm>
#include <cmath>

#include "ml/gemm.h"
#include "ml/oblivious.h"
#include "obs/leakage.h"

namespace plinius::ml {

namespace {
constexpr float kBnEps = 1e-5f;
constexpr float kRollingMomentum = 0.99f;

// The per-filter reductions (batch-norm statistics and their gradients, the
// bias gradient) each add in one fixed order, b ascending then s ascending,
// into one double accumulator per filter. kChains filters run their chains
// side by side, so no add waits on the add before it in its own filter.
constexpr std::size_t kChains = 4;

// Calls group.operator()<N>(f0) on filters [f0, f0 + N) for every filter:
// kChains at a time, then one at a time.
template <class Group>
void by_filter_groups(std::size_t filters, Group&& group) {
  std::size_t f = 0;
  for (; f + kChains <= filters; f += kChains) group.template operator()<kChains>(f);
  for (; f < filters; ++f) group.template operator()<1>(f);
}

// Calls step(l, i) for every l in [0, N) on each element i of filters
// [f0, f0 + N) of images [0, batch) ([batch x filters x n_spatial]): b
// ascending, then s ascending, the N filters' elements of one (b, s) in a row.
template <std::size_t N, class Step>
void walk(std::size_t batch, std::size_t filters, std::size_t n_spatial, std::size_t f0,
          Step&& step) {
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t row = (b * filters + f0) * n_spatial;
    for (std::size_t s = 0; s < n_spatial; ++s) {
      for (std::size_t l = 0; l < N; ++l) step(l, row + l * n_spatial + s);
    }
  }
}
}  // namespace

// The plan rejects a kernel larger than the padded input before the output
// shape is used.
ConvLayer::ConvLayer(Shape in, const ConvConfig& c, Rng& init_rng)
    : Layer(in, Shape{c.filters, conv_out_dim(in.h, c.ksize, c.stride, c.pad),
                      conv_out_dim(in.w, c.ksize, c.stride, c.pad)}),
      config_(c),
      plan_(ConvShape{in.c, in.h, in.w, c.ksize, c.stride, c.pad}),
      workspace_(plan_.col_size()),
      scratch_(plan_.scratch_size()) {
  expects(in.size() > 0, "ConvLayer: empty input shape");

  const std::size_t n = config_.filters;
  const std::size_t wsize = n * in.c * config_.ksize * config_.ksize;
  weights_.resize(wsize);
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
  std::fill(output_.begin(), output_.end(), 0.0f);
  obs::touch_pages("conv.weights", 0, weights_.size() * sizeof(float));

  for (std::size_t b = 0; b < batch; ++b) {
    const float* im = input + b * in_shape_.size();
    float* out = output_.data() + b * out_shape_.size();
    obs::touch_pages("conv.in", b * in_shape_.size() * sizeof(float),
                     in_shape_.size() * sizeof(float));
    gemm_nn(config_.filters, n_spatial, k, 1.0f, weights_.data(), columns(im), out);
  }

  if (config_.batch_normalize) {
    forward_batchnorm(batch, train);
  }
  add_bias(batch);
  activate(config_.activation, output_.data(), output_.size());
}

const float* ConvLayer::columns(const float* im) {
  if (oblivious_kernels()) {
    im2col_fixed(plan_, im, scratch_.data(), workspace_.data());
  } else {
    plan_.im2col(im, scratch_.data(), workspace_.data());
  }
  return workspace_.data();
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
  const std::size_t filters = config_.filters;
  const std::size_t n_spatial = spatial();
  const std::size_t per_filter = batch * n_spatial;

  if (train) {
    // The pre-normalization activations stay behind as x_ for backward; the
    // normalized ones go to the other buffer.
    x_.swap(output_);
    output_.resize(x_.size());
    float* x = x_.data();
    by_filter_groups(filters, [&]<std::size_t N>(std::size_t f0) {
      double sum[N] = {};
      walk<N>(batch, filters, n_spatial, f0,
              [&](std::size_t l, std::size_t i) { sum[l] += x[i]; });
      for (std::size_t l = 0; l < N; ++l) {
        mean_[f0 + l] = static_cast<float>(sum[l] / per_filter);
      }

      float mean[N];
      std::copy_n(mean_.data() + f0, N, mean);
      double var[N] = {};
      walk<N>(batch, filters, n_spatial, f0, [&](std::size_t l, std::size_t i) {
        const double d = x[i] - mean[l];
        var[l] += d * d;
      });

      for (std::size_t l = 0; l < N; ++l) {
        const std::size_t f = f0 + l;
        variance_[f] = static_cast<float>(var[l] / per_filter);
        rolling_mean_[f] = kRollingMomentum * rolling_mean_[f] +
                           (1.0f - kRollingMomentum) * mean_[f];
        rolling_variance_[f] = kRollingMomentum * rolling_variance_[f] +
                               (1.0f - kRollingMomentum) * variance_[f];
      }
    });
  }

  const float* use_mean = train ? mean_.data() : rolling_mean_.data();
  const float* use_var = train ? variance_.data() : rolling_variance_.data();

  const float* src = train ? x_.data() : output_.data();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < filters; ++f) {
      const std::size_t row = (b * filters + f) * n_spatial;
      const float* in = src + row;
      float* o = output_.data() + row;
      const float inv_std = 1.0f / std::sqrt(use_var[f] + kBnEps);
      const float m = use_mean[f];
      const float g = scales_[f];
      for (std::size_t s = 0; s < n_spatial; ++s) o[s] = g * ((in[s] - m) * inv_std);
    }
  }
}

void ConvLayer::backward_batchnorm(std::size_t batch) {
  const std::size_t filters = config_.filters;
  const std::size_t n_spatial = spatial();
  const auto per_filter = static_cast<float>(batch * n_spatial);
  float* delta = delta_.data();
  float* x = x_.data();

  by_filter_groups(filters, [&]<std::size_t N>(std::size_t f0) {
    float inv_std[N], g[N], mean[N];
    for (std::size_t l = 0; l < N; ++l) {
      inv_std[l] = 1.0f / std::sqrt(variance_[f0 + l] + kBnEps);
      g[l] = scales_[f0 + l];
      mean[l] = mean_[f0 + l];
    }

    // One pass: d/d scale over x_hat (recomputed from x exactly as forward
    // computed it), delta switched to d/d x_hat, then the mean and variance
    // gradients (Darknet's formulation) over the switched delta.
    double ssum[N] = {}, dmean[N] = {}, dvar[N] = {};
    walk<N>(batch, filters, n_spatial, f0, [&](std::size_t l, std::size_t i) {
      const float centered = x[i] - mean[l];
      ssum[l] += delta[i] * (centered * inv_std[l]);
      delta[i] *= g[l];
      dmean[l] += delta[i];
      dvar[l] += delta[i] * centered;
    });

    for (std::size_t l = 0; l < N; ++l) {
      const std::size_t f = f0 + l;
      scale_updates_[f] += static_cast<float>(ssum[l]);
      mean_delta_[f] = static_cast<float>(-dmean[l] * inv_std[l]);
      variance_delta_[f] = static_cast<float>(
          dvar[l] * -0.5 * std::pow(static_cast<double>(variance_[f]) + kBnEps, -1.5));
    }

    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t f = f0; f < f0 + N; ++f) {
        float* d = delta + (b * filters + f) * n_spatial;
        const float* xf = x + (b * filters + f) * n_spatial;
        const float is = inv_std[f - f0], m = mean_[f];
        const float vd = variance_delta_[f], md = mean_delta_[f];
        for (std::size_t s = 0; s < n_spatial; ++s) {
          d[s] = d[s] * is + vd * 2.0f * (xf[s] - m) / per_filter + md / per_filter;
        }
      }
    }
  });
}

void ConvLayer::backward(const float* input, float* input_delta, std::size_t batch) {
  const std::size_t filters = config_.filters;
  const std::size_t k = in_shape_.c * config_.ksize * config_.ksize;
  const std::size_t n_spatial = spatial();

  gradient(config_.activation, output_.data(), delta_.data(), output_.size());

  // Bias gradients: one double sum per image and filter.
  float* delta = delta_.data();
  by_filter_groups(filters, [&]<std::size_t N>(std::size_t f0) {
    for (std::size_t b = 0; b < batch; ++b) {
      double sum[N] = {};
      walk<N>(1, filters, n_spatial, f0, [&](std::size_t l, std::size_t i) {
        sum[l] += delta[b * out_shape_.size() + i];
      });
      for (std::size_t l = 0; l < N; ++l) {
        bias_updates_[f0 + l] += static_cast<float>(sum[l]);
      }
    }
  });

  if (config_.batch_normalize) {
    backward_batchnorm(batch);
  }

  if (input_delta != nullptr) {
    // W^T once per call; every sample's input gradient reuses it.
    weights_t_.resize(weights_.size());
    transpose(filters, k, weights_.data(), weights_t_.data());
    col_delta_.resize(k * n_spatial);
  }

  // Weight gradients accumulate transposed, dW^T [k x filters], so each
  // sample's gemm packs its small delta rather than its k x S columns. Every
  // element is the same chain either way (ml/gemm.h, transpose symmetry).
  if (weight_updates_.empty()) weight_updates_.assign(weights_.size(), 0.0f);
  weight_updates_t_.resize(weight_updates_.size());
  transpose(filters, k, weight_updates_.data(), weight_updates_t_.data());

  for (std::size_t b = 0; b < batch; ++b) {
    const float* im = input + b * in_shape_.size();
    const float* d = delta + b * out_shape_.size();

    // dW^T += cols(im) x delta_b^T.
    gemm_nt(k, filters, n_spatial, 1.0f, columns(im), d, weight_updates_t_.data());

    // Input gradients: cols_delta = W^T x delta_b, added back by col2im.
    if (input_delta != nullptr) {
      std::fill(col_delta_.begin(), col_delta_.end(), 0.0f);
      gemm_nn(k, n_spatial, filters, 1.0f, weights_t_.data(), d, col_delta_.data());
      plan_.col2im(col_delta_.data(), input_delta + b * in_shape_.size());
    }
  }

  transpose(k, filters, weight_updates_t_.data(), weight_updates_.data());
}

void ConvLayer::update(const SgdParams& params, std::size_t batch) {
  if (weight_updates_.empty()) weight_updates_.assign(weights_.size(), 0.0f);
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
