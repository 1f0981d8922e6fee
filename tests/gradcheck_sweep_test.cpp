// Parameterized numerical-gradient sweep: every convolutional configuration
// (kernel size, stride, padding, batch-norm, activation) must produce
// analytic gradients matching central finite differences. This is the
// property that keeps every Fig. 8-10 learning curve trustworthy.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "ml/connected_layer.h"
#include "ml/conv_layer.h"
#include "ml/network.h"
#include "ml/softmax_layer.h"

namespace plinius::ml {
namespace {

struct SweepCase {
  std::size_t ksize;
  std::size_t stride;
  std::size_t pad;
  bool batch_normalize;
  Activation activation;
};

/// "k3_s1_p1_bn_tanh": the case's fields, so its test name and printed value
/// are the same in every build. gtest would otherwise print the struct's
/// bytes, padding included, and CTest names the test after that value.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << 'k' << c.ksize << "_s" << c.stride << "_p" << c.pad
      << (c.batch_normalize ? "_bn_" : "_nobn_") << activation_name(c.activation);
}
std::string sweep_case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return ::testing::PrintToString(info.param);
}

class ConvGradSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConvGradSweep, AnalyticMatchesNumeric) {
  const SweepCase& c = GetParam();
  constexpr std::size_t kBatch = 3;
  const Shape input{2, 8, 8};

  auto build = [&]() {
    Rng rng(17);
    auto net = std::make_unique<Network>(input, SgdParams{0.0f, 0.0f, 0.0f});
    ConvConfig cc;
    cc.filters = 4;
    cc.ksize = c.ksize;
    cc.stride = c.stride;
    cc.pad = c.pad;
    cc.batch_normalize = c.batch_normalize;
    cc.activation = c.activation;
    net->add(std::make_unique<ConvLayer>(input, cc, rng));
    const Shape mid = net->next_input_shape();
    ConnectedConfig fc;
    fc.outputs = 5;
    fc.activation = Activation::kTanh;
    net->add(std::make_unique<ConnectedLayer>(mid, fc, rng));
    net->add(std::make_unique<SoftmaxLayer>(Shape{5, 1, 1}));
    return net;
  };

  Rng data_rng(23);
  std::vector<float> x(kBatch * input.size()), y(kBatch * 5, 0.0f);
  for (auto& v : x) v = data_rng.normal();
  for (std::size_t b = 0; b < kBatch; ++b) y[b * 5 + data_rng.below(5)] = 1.0f;

  auto train_loss = [&](Network& net) {
    net.forward(x.data(), kBatch, /*train=*/true);
    auto* sm = dynamic_cast<SoftmaxLayer*>(&net.layer(net.num_layers() - 1));
    return sm->loss_and_delta(y.data(), kBatch);
  };

  // Probe a handful of conv parameters.
  struct Probe {
    std::size_t buffer, index;
  };
  std::vector<Probe> probes = {{0, 0}, {0, 7}, {1, 2}};
  if (c.batch_normalize) probes.push_back({2, 1});  // a scale

  for (const Probe& p : probes) {
    // Analytic: one zero-lr train_batch accumulates the batch gradient; a
    // tiny-lr step reveals it through the parameter delta.
    auto net = build();
    (void)net->train_batch(x.data(), y.data(), kBatch);  // lr = 0
    const float before = net->layer(0).parameters()[p.buffer].values[p.index];
    net->hyper() = SgdParams{1e-3f, 0.0f, 0.0f};
    (void)net->train_batch(x.data(), y.data(), kBatch);
    const float after = net->layer(0).parameters()[p.buffer].values[p.index];
    const float analytic_neg = (after - before) / 1e-3f;  // mean negative grad

    // Numeric: central difference at the post-first-step state.
    auto num = build();
    num->hyper() = SgdParams{0.0f, 0.0f, 0.0f};
    (void)num->train_batch(x.data(), y.data(), kBatch);
    auto bufs = num->layer(0).parameters();
    float* target = &bufs[p.buffer].values[p.index];
    const float eps = 5e-3f;
    const float saved = *target;
    *target = saved + eps;
    const float lp = train_loss(*num);
    *target = saved - eps;
    const float lm = train_loss(*num);
    *target = saved;
    const float numeric = (lp - lm) / (2 * eps);

    EXPECT_NEAR(analytic_neg, -numeric, 6e-2f * std::max(1.0f, std::abs(numeric)))
        << "k=" << c.ksize << " s=" << c.stride << " p=" << c.pad
        << " bn=" << c.batch_normalize << " act=" << activation_name(c.activation)
        << " buffer=" << p.buffer << " index=" << p.index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvGradSweep,
    ::testing::Values(SweepCase{3, 1, 1, false, Activation::kTanh},
                      SweepCase{3, 1, 1, true, Activation::kTanh},
                      SweepCase{3, 2, 1, false, Activation::kTanh},
                      SweepCase{3, 2, 1, true, Activation::kTanh},
                      SweepCase{5, 1, 2, false, Activation::kTanh},
                      SweepCase{5, 2, 2, true, Activation::kTanh},
                      SweepCase{1, 1, 0, false, Activation::kTanh},
                      SweepCase{1, 1, 0, true, Activation::kTanh},
                      SweepCase{3, 1, 0, false, Activation::kTanh},
                      SweepCase{3, 1, 1, true, Activation::kLogistic},
                      SweepCase{3, 1, 1, false, Activation::kLogistic},
                      SweepCase{4, 2, 1, true, Activation::kTanh}),
    sweep_case_name);

}  // namespace
}  // namespace plinius::ml
