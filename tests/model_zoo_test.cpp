// Every bundled model config must parse, build, train a step and make
// finite predictions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"

namespace plinius::ml {
namespace {

class ModelZooTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelZooTest, ParsesBuildsAndTrains) {
  const auto config =
      ModelConfig::from_file(std::string(PLINIUS_DATA_DIR "/models/") + GetParam());
  Rng rng(1);
  Network net = build_network(config, rng);
  ASSERT_GT(net.num_layers(), 0u);
  ASSERT_EQ(net.output_shape().size(), kDigitClasses);
  ASSERT_EQ(net.input_shape(), (Shape{1, 28, 28}));

  SynthDigitsOptions dopt;
  dopt.train_count = 256;
  dopt.test_count = 32;
  const auto digits = make_synth_digits(dopt);

  const std::size_t batch = 16;  // small batch keeps the zoo sweep fast
  std::vector<float> bx(batch * kDigitPixels), by(batch * kDigitClasses);
  Rng br(2);
  sample_batch(digits.train, batch, br, bx.data(), by.data());

  float first = 0;
  for (int i = 0; i < 5; ++i) {
    const float loss = net.train_batch(bx.data(), by.data(), batch);
    ASSERT_TRUE(std::isfinite(loss)) << "iteration " << i;
    if (i == 0) first = loss;
  }
  EXPECT_GT(first, 0.0f);

  std::vector<std::size_t> pred(batch);
  net.predict(bx.data(), batch, pred.data());
  for (const auto p : pred) EXPECT_LT(p, kDigitClasses);
}

INSTANTIATE_TEST_SUITE_P(Configs, ModelZooTest,
                         ::testing::Values("lenet5.cfg", "paper_5layer.cfg",
                                           "mlp_dropout.cfg", "convnet_avgpool.cfg"));

TEST(ModelZoo, MissingFileThrows) {
  EXPECT_THROW((void)ModelConfig::from_file("/nonexistent/model.cfg"), MlError);
}

}  // namespace
}  // namespace plinius::ml
