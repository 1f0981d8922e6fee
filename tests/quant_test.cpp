// INT8 quantization path tests: requantize numerics, int8 GEMM kernels vs
// the scalar oracle (and bitwise determinism across thread counts), the
// quantized network's accuracy against its float parent, the v2 weight
// format (expected-vs-got header errors; the retired v1 layout fails as a
// bad magic), the quantized PM mirror, and int8 serving with hot reload.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/gcm.h"
#include "ml/config.h"
#include "ml/gemm.h"
#include "ml/gemm_reference.h"
#include "ml/quant.h"
#include "ml/serialize.h"
#include "ml/synth_digits.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/quant_mirror.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"
#include "serve/loadgen.h"
#include "serve/server.h"

#include "im2col_reference.h"

namespace plinius {
namespace {

using ml::Activation;

// --- requantize / quantize_value numerics ----------------------------------------

TEST(QuantNumericsTest, RequantizeSaturates) {
  EXPECT_EQ(ml::requantize(1 << 30, 1.0f, Activation::kLinear), 127);
  EXPECT_EQ(ml::requantize(-(1 << 30), 1.0f, Activation::kLinear), -127);
  EXPECT_EQ(ml::requantize(128, 1.0f, Activation::kLinear), 127);
  EXPECT_EQ(ml::requantize(-128, 1.0f, Activation::kLinear), -127);
  EXPECT_EQ(ml::requantize(127, 1.0f, Activation::kLinear), 127);
  EXPECT_EQ(ml::requantize(-127, 1.0f, Activation::kLinear), -127);
}

TEST(QuantNumericsTest, RequantizeRoundsHalfAwayFromZero) {
  EXPECT_EQ(ml::requantize(1, 0.5f, Activation::kLinear), 1);    // 0.5 -> 1
  EXPECT_EQ(ml::requantize(-1, 0.5f, Activation::kLinear), -1);  // -0.5 -> -1
  EXPECT_EQ(ml::requantize(3, 0.5f, Activation::kLinear), 2);    // 1.5 -> 2
  EXPECT_EQ(ml::requantize(-3, 0.5f, Activation::kLinear), -2);  // -1.5 -> -2
  EXPECT_EQ(ml::requantize(1, 0.25f, Activation::kLinear), 0);   // 0.25 -> 0
  EXPECT_EQ(ml::requantize(0, 123.0f, Activation::kLinear), 0);
}

TEST(QuantNumericsTest, RequantizeFoldsActivations) {
  // The int32 accumulator's sign decides the branch, so the fold is exact.
  EXPECT_EQ(ml::requantize(-5, 1.0f, Activation::kRelu), 0);
  EXPECT_EQ(ml::requantize(7, 1.0f, Activation::kRelu), 7);
  EXPECT_EQ(ml::requantize(-20, 1.0f, Activation::kLeakyRelu), -2);  // slope 0.1
  EXPECT_EQ(ml::requantize(-4, 1.0f, Activation::kLeakyRelu), 0);    // -0.4 -> 0
  EXPECT_EQ(ml::requantize(20, 1.0f, Activation::kLeakyRelu), 20);
}

TEST(QuantNumericsTest, QuantizeValueSaturatesAndRounds) {
  EXPECT_EQ(ml::quantize_value(10.0f, 0.05f), 127);
  EXPECT_EQ(ml::quantize_value(-10.0f, 0.05f), -127);
  EXPECT_EQ(ml::quantize_value(0.5f, 1.0f), 1);
  EXPECT_EQ(ml::quantize_value(0.49f, 1.0f), 0);
  EXPECT_EQ(ml::quantize_value(-0.5f, 1.0f), -1);
  EXPECT_EQ(ml::quantize_value(0.0f, 1.0f), 0);
}

// --- int8 GEMM kernels ------------------------------------------------------------

void fill_s8(std::vector<std::int8_t>& v, Rng& rng) {
  for (auto& x : v) x = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
}

struct GemmShape {
  std::size_t m, n, k;
};

const GemmShape kShapes[] = {{1, 1, 1},    {3, 5, 7},     {6, 16, 256},
                             {7, 17, 31},  {13, 40, 129}, {33, 100, 512}};

TEST(QuantGemmTest, NNMatchesReference) {
  Rng rng(21);
  for (const auto& s : kShapes) {
    std::vector<std::int8_t> a(s.m * s.k), b(s.k * s.n);
    fill_s8(a, rng);
    fill_s8(b, rng);
    std::vector<std::int32_t> c(s.m * s.n, 0), ref(s.m * s.n, 0);
    ml::gemm_s8_nn(s.m, s.n, s.k, a.data(), b.data(), c.data());
    ml::reference::gemm_s8_nn(s.m, s.n, s.k, a.data(), b.data(), ref.data());
    EXPECT_EQ(c, ref) << "nn " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(QuantGemmTest, NTMatchesReference) {
  Rng rng(22);
  for (const auto& s : kShapes) {
    std::vector<std::int8_t> a(s.m * s.k), b(s.n * s.k);
    fill_s8(a, rng);
    fill_s8(b, rng);
    std::vector<std::int32_t> c(s.m * s.n, 0), ref(s.m * s.n, 0);
    ml::gemm_s8_nt(s.m, s.n, s.k, a.data(), b.data(), c.data());
    ml::reference::gemm_s8_nt(s.m, s.n, s.k, a.data(), b.data(), ref.data());
    EXPECT_EQ(c, ref) << "nt " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(QuantGemmTest, AccumulatesIntoC) {
  // C += A*B: pre-filled accumulators must be preserved, not overwritten.
  Rng rng(23);
  std::vector<std::int8_t> a(6 * 32), b(32 * 16);
  fill_s8(a, rng);
  fill_s8(b, rng);
  std::vector<std::int32_t> c(6 * 16, 1000), ref(6 * 16, 1000);
  ml::gemm_s8_nn(6, 16, 32, a.data(), b.data(), c.data());
  ml::reference::gemm_s8_nn(6, 16, 32, a.data(), b.data(), ref.data());
  EXPECT_EQ(c, ref);
}

TEST(QuantGemmTest, DeterministicAcrossThreads) {
  constexpr std::size_t m = 67, n = 53, k = 129;
  Rng rng(24);
  std::vector<std::int8_t> a(m * k), b(k * n);
  fill_s8(a, rng);
  fill_s8(b, rng);

  const std::size_t saved = par::max_threads();
  par::set_max_threads(1);
  std::vector<std::int32_t> base(m * n, 0);
  ml::gemm_s8_nn(m, n, k, a.data(), b.data(), base.data());
  for (const std::size_t threads : {2u, 4u, 8u}) {
    par::set_max_threads(threads);
    std::vector<std::int32_t> c(m * n, 0);
    ml::gemm_s8_nn(m, n, k, a.data(), b.data(), c.data());
    EXPECT_EQ(c, base) << threads << " threads";
  }
  par::set_max_threads(saved);
}

// --- quantized network numerics ----------------------------------------------------

/// Trained float model + synth-digits split, built once for the suite.
struct TrainedModel {
  Platform platform{MachineProfile::emlsgx_pm(), 64u << 20};
  ml::SynthDigits digits;
  Trainer trainer;

  TrainedModel()
      : digits([] {
          ml::SynthDigitsOptions opt;
          opt.train_count = 2048;
          opt.test_count = 1024;
          return ml::make_synth_digits(opt);
        }()),
        trainer(platform, ml::make_cnn_config(2, 4, 32), TrainerOptions{}) {
    trainer.load_dataset(digits.train);
    (void)trainer.train(150);
  }
};

TrainedModel& trained() {
  static TrainedModel* model = new TrainedModel();
  return *model;
}

ml::QuantizedNetwork quantize_trained() {
  TrainedModel& t = trained();
  return ml::quantize_network(t.trainer.network(), t.digits.train.x.values.data(),
                              512);
}

TEST(QuantNetworkTest, Int8AccuracyWithinOnePercentOfFloat) {
  TrainedModel& t = trained();
  ml::QuantizedNetwork qnet = quantize_trained();
  const double float_acc = t.trainer.network().accuracy(
      t.digits.test.x.values.data(), t.digits.test.y.values.data(),
      t.digits.test.size());
  const double int8_acc = qnet.accuracy(t.digits.test.x.values.data(),
                                        t.digits.test.y.values.data(),
                                        t.digits.test.size());
  EXPECT_GT(float_acc, 0.5) << "float model did not train";
  EXPECT_GE(int8_acc, float_acc - 0.01)
      << "int8 top-1 " << int8_acc << " vs float " << float_acc;
}

TEST(QuantNetworkTest, ForwardBitwiseDeterministicAcrossThreads) {
  TrainedModel& t = trained();
  ml::QuantizedNetwork qnet = quantize_trained();
  constexpr std::size_t kBatch = 96;

  const std::size_t saved = par::max_threads();
  par::set_max_threads(1);
  qnet.forward(t.digits.test.x.values.data(), kBatch);
  const std::vector<float> base = qnet.output();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    par::set_max_threads(threads);
    qnet.forward(t.digits.test.x.values.data(), kBatch);
    const std::vector<float>& out = qnet.output();
    ASSERT_EQ(out.size(), base.size());
    EXPECT_EQ(std::memcmp(out.data(), base.data(), base.size() * sizeof(float)), 0)
        << threads << " threads";
  }
  par::set_max_threads(saved);
}

TEST(QuantNetworkTest, ParameterBytesRoughlyQuartered) {
  TrainedModel& t = trained();
  ml::QuantizedNetwork qnet = quantize_trained();
  const auto float_bytes = static_cast<double>(t.trainer.network().parameter_bytes());
  const auto int8_bytes = static_cast<double>(qnet.parameter_bytes());
  // int32 biases and dropped BN state move the ratio off exactly 4x.
  EXPECT_LT(int8_bytes, 0.35 * float_bytes);
}

// A one-conv-layer int8 network run on several geometries, each checked
// bitwise against the per-element reference walk plus a scalar int32 GEMM.
// The geometry is edited in place through layers(), so the per-layer
// lowering plan is rebuilt between cases rather than reused stale.
TEST(QuantNetworkTest, ConvForwardMatchesReferenceWalkBitwise) {
  struct Case {
    ml::Shape in;
    std::size_t filters, ksize, stride, pad;
    Activation act;
  };
  const Case cases[] = {
      {{1, 28, 28}, 4, 3, 2, 1, Activation::kLeakyRelu},  // serving CNN layer 0
      {{4, 14, 14}, 8, 3, 2, 1, Activation::kLeakyRelu},  // serving CNN layer 1
      {{3, 9, 7}, 5, 5, 3, 2, Activation::kRelu},
      {{2, 6, 5}, 3, 2, 1, 0, Activation::kLinear},
      {{3, 5, 5}, 4, 1, 1, 0, Activation::kLeakyRelu},   // 1x1: an identity plan
  };
  constexpr std::size_t kBatch = 3;
  Rng rng(0xC0DE);
  ml::QuantizedNetwork q;
  q.set_input_scale(0.03f);
  q.layers().resize(1);
  for (const Case& c : cases) {
    const ml::ConvShape shape{c.in.c, c.in.h, c.in.w, c.ksize, c.stride, c.pad};
    const std::size_t out_h = ml::conv_out_dim(c.in.h, c.ksize, c.stride, c.pad);
    const std::size_t out_w = ml::conv_out_dim(c.in.w, c.ksize, c.stride, c.pad);
    ml::QuantLayer& l = q.layers()[0];
    l.kind = ml::QLayerKind::kConv;
    l.in = c.in;
    l.out = ml::Shape{c.filters, out_h, out_w};
    l.ksize = c.ksize;
    l.stride = c.stride;
    l.pad = c.pad;
    l.activation = c.act;
    l.weights.resize(c.filters * c.in.c * c.ksize * c.ksize);
    fill_s8(l.weights, rng);
    l.biases.resize(c.filters);
    for (auto& b : l.biases) b = static_cast<std::int32_t>(rng.below(2001)) - 1000;
    l.weight_scale = 0.02f;
    l.in_scale = q.input_scale();
    l.out_scale = 0.5f;
    q.set_input_shape(c.in);

    std::vector<float> x(kBatch * c.in.size());
    for (auto& v : x) v = rng.normal();
    q.forward(x.data(), kBatch);

    const std::size_t k = c.in.c * c.ksize * c.ksize;
    const std::size_t spatial = out_h * out_w;
    const float mult = l.in_scale * l.weight_scale / l.out_scale;
    std::vector<float> want;
    for (std::size_t b = 0; b < kBatch; ++b) {
      std::vector<std::int8_t> im(c.in.size()), cols(k * spatial);
      for (std::size_t i = 0; i < im.size(); ++i) {
        im[i] = ml::quantize_value(x[b * c.in.size() + i], q.input_scale());
      }
      ml::reference::im2col(im.data(), shape, cols.data());
      for (std::size_t f = 0; f < c.filters; ++f) {
        for (std::size_t s = 0; s < spatial; ++s) {
          std::int32_t acc = l.biases[f];
          for (std::size_t kk = 0; kk < k; ++kk) {
            acc += std::int32_t{l.weights[f * k + kk]} *
                   std::int32_t{cols[kk * spatial + s]};
          }
          want.push_back(static_cast<float>(ml::requantize(acc, mult, c.act)) *
                         l.out_scale);
        }
      }
    }
    const std::string at = ml::reference::describe(shape);
    ASSERT_EQ(q.output().size(), want.size()) << at;
    EXPECT_EQ(std::memcmp(q.output().data(), want.data(), want.size() * sizeof(float)), 0)
        << at;
  }
}

// --- v2 weight format --------------------------------------------------------------

ml::Network make_float_net(std::uint64_t seed) {
  Rng rng(seed);
  return ml::build_network(ml::make_cnn_config(2, 4, 16), rng);
}

std::vector<Bytes> param_snapshot(ml::Network& net) {
  std::vector<Bytes> out;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    for (const auto& buf : net.layer(i).parameters()) {
      Bytes b(buf.values.size() * sizeof(float));
      std::memcpy(b.data(), buf.values.data(), b.size());
      out.push_back(std::move(b));
    }
  }
  return out;
}

TEST(QuantSerializeTest, FloatRoundTripBitIdentical) {
  ml::Network net = make_float_net(31);
  net.set_iterations(77);
  const Bytes blob = ml::serialize_weights(net);

  ml::Network net2 = make_float_net(99);  // same arch, different weights
  ml::deserialize_weights(net2, blob);
  EXPECT_EQ(net2.iterations(), 77u);
  EXPECT_EQ(param_snapshot(net), param_snapshot(net2));
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const MlError& e) {
    return e.what();
  }
  return "";
}

TEST(QuantSerializeTest, VersionMismatchReportsExpectedVsGot) {
  ml::Network net = make_float_net(33);
  Bytes blob = ml::serialize_weights(net);
  const std::uint64_t bogus = 3;
  std::memcpy(blob.data() + 8, &bogus, 8);  // version field

  ml::Network net2 = make_float_net(97);
  const std::string msg =
      error_message([&] { ml::deserialize_weights(net2, blob); });
  EXPECT_NE(msg.find("expected 2, got 3"), std::string::npos) << msg;
}

TEST(QuantSerializeTest, DtypeMismatchReportsExpectedVsGot) {
  ml::Network net = make_float_net(34);
  const Bytes float_blob = ml::serialize_weights(net);

  ml::QuantizedNetwork qnet = quantize_trained();
  const Bytes int8_blob = ml::serialize_quantized(qnet);

  ml::Network net2 = make_float_net(96);
  std::string msg =
      error_message([&] { ml::deserialize_weights(net2, int8_blob); });
  EXPECT_NE(msg.find("expected float32 (0), got int8 (1)"), std::string::npos)
      << msg;

  msg = error_message([&] { (void)ml::deserialize_quantized(float_blob); });
  EXPECT_NE(msg.find("expected int8 (1), got float32 (0)"), std::string::npos)
      << msg;
}

TEST(QuantSerializeTest, LegacyV1BlobFailsAsBadMagic) {
  ml::Network net = make_float_net(32);
  const Bytes v2 = ml::serialize_weights(net);
  ASSERT_GE(v2.size(), 24u);

  // The v1 layout: v1 magic + the float body, without v2's version/dtype
  // pair. Only v2 is read.
  constexpr std::uint64_t kMagicV1 = 0x504C4E57454948ULL;  // "PLNWEIH"
  Bytes v1(v2.size() - 16);
  std::memcpy(v1.data(), &kMagicV1, 8);
  std::memcpy(v1.data() + 8, v2.data() + 24, v2.size() - 24);

  ml::Network net2 = make_float_net(98);
  const auto before = param_snapshot(net2);
  std::string msg = error_message([&] { ml::deserialize_weights(net2, v1); });
  EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
  EXPECT_EQ(param_snapshot(net2), before);  // nothing was loaded
  msg = error_message([&] { (void)ml::deserialize_quantized(v1); });
  EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
}

void expect_quant_equal(const ml::QuantizedNetwork& a, const ml::QuantizedNetwork& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  EXPECT_EQ(a.input_shape(), b.input_shape());
  EXPECT_EQ(a.input_scale(), b.input_scale());
  EXPECT_EQ(a.iterations(), b.iterations());
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    const ml::QuantLayer& la = a.layers()[i];
    const ml::QuantLayer& lb = b.layers()[i];
    EXPECT_EQ(la.kind, lb.kind) << "layer " << i;
    EXPECT_EQ(la.in, lb.in) << "layer " << i;
    EXPECT_EQ(la.out, lb.out) << "layer " << i;
    EXPECT_EQ(la.ksize, lb.ksize) << "layer " << i;
    EXPECT_EQ(la.stride, lb.stride) << "layer " << i;
    EXPECT_EQ(la.pad, lb.pad) << "layer " << i;
    EXPECT_EQ(la.activation, lb.activation) << "layer " << i;
    EXPECT_EQ(la.weights, lb.weights) << "layer " << i;
    EXPECT_EQ(la.biases, lb.biases) << "layer " << i;
    // Scales must survive bit-exactly (the requantize multipliers depend on
    // them; any drift would change inference results).
    EXPECT_EQ(la.weight_scale, lb.weight_scale) << "layer " << i;
    EXPECT_EQ(la.in_scale, lb.in_scale) << "layer " << i;
    EXPECT_EQ(la.out_scale, lb.out_scale) << "layer " << i;
  }
}

TEST(QuantSerializeTest, QuantizedRoundTrip) {
  ml::QuantizedNetwork qnet = quantize_trained();
  qnet.set_iterations(42);
  const Bytes blob = ml::serialize_quantized(qnet);
  const ml::QuantizedNetwork back = ml::deserialize_quantized(blob);
  expect_quant_equal(qnet, back);
}

// A hand-built two-layer int8 model (a connected layer, then a softmax with
// no parameters): every field of the format appears, and the blob is small
// enough to try every truncation of it.
ml::QuantizedNetwork tiny_quantized() {
  ml::QuantizedNetwork q;
  q.set_iterations(7);
  q.set_input_shape(ml::Shape{1, 1, 3});
  q.set_input_scale(0.5f);
  ml::QuantLayer fc;
  fc.kind = ml::QLayerKind::kConnected;
  fc.in = ml::Shape{1, 1, 3};
  fc.out = ml::Shape{1, 1, 2};
  fc.activation = Activation::kLeakyRelu;
  fc.weights = {1, -2, 3, -4, 5, -6};
  fc.biases = {100, -100};
  fc.weight_scale = 0.25f;
  fc.in_scale = 0.5f;
  fc.out_scale = 0.125f;
  ml::QuantLayer softmax;
  softmax.in = softmax.out = fc.out;
  q.layers().push_back(std::move(fc));
  q.layers().push_back(std::move(softmax));
  return q;
}

TEST(QuantSerializeTest, HostileCountsActivationsAndTruncationsThrowMlError) {
  // v2 int8 layout (ml/serialize.h): 68 header bytes, then per layer the
  // activation at +80, the weight count at +100, the weights, the bias
  // count, the biases.
  constexpr std::size_t kLayer0 = 68;
  constexpr std::size_t kActivation = kLayer0 + 80;
  constexpr std::size_t kWeightCount = kLayer0 + 100;
  constexpr std::size_t kBiasCount = kWeightCount + 8 + 6;
  const Bytes blob = ml::serialize_quantized(tiny_quantized());
  ASSERT_EQ(blob.size(), kLayer0 + (108 + 6 + 8 + 2 * 4) + (108 + 8));
  expect_quant_equal(ml::deserialize_quantized(blob), tiny_quantized());

  struct Patch {
    const char* what;
    std::size_t offset;
    std::uint64_t value;
    const char* message;  // must appear in the MlError
  };
  const Patch patches[] = {
      {"2^62 weights", kWeightCount, std::uint64_t{1} << 62, "int8 weight count"},
      {"2^62 biases", kBiasCount, std::uint64_t{1} << 62, "int32 bias count"},
      {"activation 99", kActivation, 99, "bad activation 99"},
  };
  for (const Patch& p : patches) {
    Bytes bad = blob;
    std::memcpy(bad.data() + p.offset, &p.value, sizeof(p.value));
    // error_message catches MlError only: any other exception fails the test.
    const std::string msg = error_message([&] { (void)ml::deserialize_quantized(bad); });
    EXPECT_NE(msg.find(p.message), std::string::npos) << p.what << ": " << msg;
    EXPECT_NE(msg.find("at layer 0"), std::string::npos) << p.what << ": " << msg;
  }

  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW((void)ml::deserialize_quantized(ByteSpan(blob.data(), len)), MlError)
        << "truncated to " << len << " bytes";
  }
}

// --- quantized PM mirror -----------------------------------------------------------

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(55).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

class QuantMirrorTest : public ::testing::Test {
 protected:
  QuantMirrorTest()
      : platform_(MachineProfile::sgx_emlpm(), 48u << 20),
        rom_(platform_.pm(), 0, 16u << 20,
             romulus::PwbPolicy::clflushopt_sfence(), true),
        qmirror_(rom_, platform_.enclave(), test_gcm()) {}

  Platform platform_;
  romulus::Romulus rom_;
  QuantMirror qmirror_;
};

TEST_F(QuantMirrorTest, SaveLoadRoundTrip) {
  ml::QuantizedNetwork qnet = quantize_trained();
  EXPECT_FALSE(qmirror_.exists());
  qmirror_.save(qnet, 5);
  EXPECT_TRUE(qmirror_.exists());
  EXPECT_EQ(qmirror_.version(), 5u);

  ml::QuantizedNetwork restored = qmirror_.load_snapshot();
  expect_quant_equal(qnet, restored);

  // Scales and weights round-tripped through seal/unseal: inference parity.
  TrainedModel& t = trained();
  constexpr std::size_t kCheck = 64;
  std::vector<std::size_t> a(kCheck), b(kCheck);
  qnet.predict(t.digits.test.x.values.data(), kCheck, a.data());
  restored.predict(t.digits.test.x.values.data(), kCheck, b.data());
  EXPECT_EQ(a, b);
}

TEST_F(QuantMirrorTest, SealsRoughlyQuarterOfFloatMirror) {
  ml::QuantizedNetwork qnet = quantize_trained();
  qmirror_.save(qnet, 1);

  MirrorModel fmirror(rom_, platform_.enclave(), test_gcm());
  fmirror.alloc(trained().trainer.network());
  fmirror.mirror_out(trained().trainer.network(), 1);
  std::size_t float_sealed = 0;
  for (const auto& e : fmirror.sealed_extents()) float_sealed += e.sealed_len;

  EXPECT_LT(static_cast<double>(qmirror_.sealed_bytes()),
            0.35 * static_cast<double>(float_sealed));
}

TEST_F(QuantMirrorTest, TamperedSnapshotLeavesTargetUnchanged) {
  ml::QuantizedNetwork qnet = quantize_trained();
  qmirror_.save(qnet, 1);

  // Re-seal (fresh IVs rewrite every sealed byte); the largest extent that
  // changed between the two saves is certainly sealed payload, so the
  // corruption lands on ciphertext, not on mirror metadata.
  std::vector<std::uint8_t> before(rom_.main_base(), rom_.main_base() + (16u << 20));
  qmirror_.save(qnet, 2);
  std::size_t run_best = 0, run_best_len = 0, run_start = 0, run_len = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (rom_.main_base()[i] != before[i]) {
      if (run_len == 0) run_start = i;
      if (++run_len > run_best_len) {
        run_best = run_start;
        run_best_len = run_len;
      }
    } else {
      run_len = 0;
    }
  }
  ASSERT_GT(run_best_len, 64u);
  rom_.main_base()[run_best + run_best_len / 2] ^= 0x01;

  ml::QuantizedNetwork target = qnet;  // staged install: must stay intact
  EXPECT_THROW((void)qmirror_.load(target), CryptoError);
  expect_quant_equal(target, qnet);
}

TEST_F(QuantMirrorTest, SnapshotThatIsNotOneModelBlobFailsClosed) {
  // Slot-6 snapshots written straight through TensorMirror: the retired
  // per-layer layout, one blob under another name, and a "model" blob that
  // authenticates but is not a valid int8 model.
  Bytes bad_model = ml::serialize_quantized(tiny_quantized());
  const std::uint64_t bad_activation = 99;
  std::memcpy(bad_model.data() + 68 + 80, &bad_activation, sizeof(bad_activation));
  Bytes meta(64, 0x11), weights(24, 0x22);
  const std::vector<std::vector<NamedBlob>> snapshots = {
      {{"meta", MutableByteSpan(meta)}, {"l0.w", MutableByteSpan(weights)}},
      {{"weights", MutableByteSpan(bad_model)}},
      {{"model", MutableByteSpan(bad_model)}},
  };
  const ml::QuantizedNetwork qnet = quantize_trained();
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    Platform platform(MachineProfile::sgx_emlpm(), 16u << 20);
    romulus::Romulus rom(platform.pm(), 0, 4u << 20,
                         romulus::PwbPolicy::clflushopt_sfence(), true);
    TensorMirror raw(rom, platform.enclave(), test_gcm(), QuantMirror::kRootSlot);
    raw.alloc_blobs(snapshots[i]);
    raw.mirror_out_blobs(snapshots[i], 3);

    QuantMirror qmirror(rom, platform.enclave(), test_gcm());
    ASSERT_TRUE(qmirror.exists());
    ml::QuantizedNetwork target = qnet;
    EXPECT_THROW((void)qmirror.load(target), MlError) << "snapshot " << i;
    expect_quant_equal(target, qnet);
  }
}

// --- int8 serving ------------------------------------------------------------------

TEST(QuantServeTest, ServesAndHotReloadsFromQuantMirror) {
  Platform platform(MachineProfile::emlsgx_pm(), 64u << 20);
  platform.enclave().set_tcs_count(4);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 1024;
  dopt.test_count = 256;
  const auto digits = ml::make_synth_digits(dopt);
  Trainer trainer(platform, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits.train);
  (void)trainer.train(20);
  crypto::AesGcm gcm(trainer.data_key());

  ml::QuantizedNetwork qnet = ml::quantize_network(
      trainer.network(), digits.train.x.values.data(), 256);
  QuantMirror qmirror(trainer.romulus(), platform.enclave(), gcm);
  qmirror.save(qnet, qnet.iterations());

  ml::QuantizedNetwork serving = qnet;
  serve::ServerOptions opt;
  opt.workers = 2;
  opt.batch = {.max_batch = 8, .max_wait_ns = 20'000};
  opt.admission = {.max_queue = 64, .deadline_aware = false};
  serve::InferenceServer server(platform, serving, gcm, opt, &qmirror);

  auto make_reqs = [&](std::uint64_t seed) {
    serve::LoadGenOptions lg;
    lg.rate_qps = 2.0e4;
    lg.count = 60;
    lg.start_ns = platform.clock().now();
    lg.seed = seed;
    crypto::IvSequence iv(static_cast<std::uint32_t>(seed ^ 0xC11E27));
    return serve::poisson_workload(digits.test, gcm, iv, lg);
  };

  const auto reqs = make_reqs(1);
  const auto done = server.run(reqs);
  const auto rep = serve::make_slo_report(reqs, done);
  EXPECT_GT(rep.served, 0u);
  EXPECT_EQ(server.served_version(), qnet.iterations());
  EXPECT_EQ(server.stats().reloads, 0u);

  // Advance the trained model, re-quantize, publish: the server must pick
  // the new snapshot up mid-serving and bump its served version.
  (void)trainer.train(40);
  ml::QuantizedNetwork qnet2 = ml::quantize_network(
      trainer.network(), digits.train.x.values.data(), 256);
  qmirror.save(qnet2, qnet2.iterations());

  const auto reqs2 = make_reqs(2);
  const auto done2 = server.run(reqs2);
  const auto rep2 = serve::make_slo_report(reqs2, done2);
  EXPECT_GT(rep2.served, 0u);
  EXPECT_GE(server.stats().reloads, 1u);
  EXPECT_EQ(server.served_version(), qnet2.iterations());
  EXPECT_EQ(server.stats().reload_failures, 0u);
}

}  // namespace
}  // namespace plinius
