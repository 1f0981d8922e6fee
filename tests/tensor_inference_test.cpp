#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>

#include "common/error.h"
#include "crypto/envelope.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/inference.h"
#include "plinius/platform.h"
#include "plinius/tensor_mirror.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"

namespace plinius {
namespace {

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(55).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

class TensorMirrorTest : public ::testing::Test {
 protected:
  TensorMirrorTest()
      : platform_(MachineProfile::sgx_emlpm(), 16 * 1024 * 1024),
        rom_(platform_.pm(), 0, 7 * 1024 * 1024,
             romulus::PwbPolicy::clflushopt_sfence(), true),
        mirror_(rom_, platform_.enclave(), test_gcm()) {
    weights_.resize(1000);
    biases_.resize(64);
    bn_stats_.resize(128);
    Rng rng(1);
    for (auto& v : weights_) v = rng.normal();
    for (auto& v : biases_) v = rng.normal();
    for (auto& v : bn_stats_) v = rng.normal();
  }

  std::vector<NamedTensor> tensor_set() {
    return {{"conv1/weights", weights_},
            {"conv1/biases", biases_},
            {"conv1/bn", bn_stats_}};
  }

  Platform platform_;
  romulus::Romulus rom_;
  TensorMirror mirror_;
  std::vector<float> weights_, biases_, bn_stats_;
};

TEST_F(TensorMirrorTest, AllocRoundTrip) {
  EXPECT_FALSE(mirror_.exists());
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  EXPECT_TRUE(mirror_.exists());
  EXPECT_EQ(mirror_.tensor_count(), 3u);
  EXPECT_EQ(mirror_.version(), 0u);
  EXPECT_THROW(mirror_.alloc(tensors), PmError);

  mirror_.mirror_out(tensors, 7);
  EXPECT_EQ(mirror_.version(), 7u);

  // Scramble the in-enclave tensors, restore, and compare.
  const auto saved_w = weights_;
  const auto saved_b = biases_;
  Rng rng(9);
  for (auto& v : weights_) v = rng.normal();
  for (auto& v : biases_) v = rng.normal();
  auto restored = tensor_set();
  EXPECT_EQ(mirror_.mirror_in(restored), 7u);
  EXPECT_EQ(weights_, saved_w);
  EXPECT_EQ(biases_, saved_b);
}

TEST_F(TensorMirrorTest, OrderIndependentMatchByName) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 1);

  const auto saved = bn_stats_;
  std::fill(bn_stats_.begin(), bn_stats_.end(), 0.0f);
  std::vector<NamedTensor> reordered = {{"conv1/bn", bn_stats_},
                                        {"conv1/biases", biases_},
                                        {"conv1/weights", weights_}};
  EXPECT_EQ(mirror_.mirror_in(reordered), 1u);
  EXPECT_EQ(bn_stats_, saved);
}

TEST_F(TensorMirrorTest, RejectsBadSets) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 0);

  std::vector<NamedTensor> unknown = {{"conv1/weights", weights_},
                                      {"conv1/biases", biases_},
                                      {"wrong/name", bn_stats_}};
  EXPECT_THROW(mirror_.mirror_out(unknown, 1), MlError);
  // The failed mirror_out must leave the version and every sealed tensor as
  // they were, not torn.
  EXPECT_EQ(mirror_.version(), 0u);
  EXPECT_THROW((void)mirror_.mirror_in(unknown), MlError);

  std::vector<float> wrong_size(10);
  std::vector<NamedTensor> resized = {{"conv1/weights", wrong_size},
                                      {"conv1/biases", biases_},
                                      {"conv1/bn", bn_stats_}};
  EXPECT_THROW(mirror_.mirror_out(resized, 1), MlError);

  std::vector<NamedTensor> too_few = {{"conv1/weights", weights_}};
  EXPECT_THROW(mirror_.mirror_out(too_few, 1), MlError);
}

TEST_F(TensorMirrorTest, RejectsDuplicateAndLongNames) {
  std::vector<NamedTensor> dup = {{"t", weights_}, {"t", biases_}};
  EXPECT_THROW(mirror_.alloc(dup), MlError);
  std::vector<NamedTensor> long_name = {
      {std::string(60, 'x'), weights_}};
  EXPECT_THROW(mirror_.alloc(long_name), MlError);
  std::vector<NamedTensor> empty;
  EXPECT_THROW(mirror_.alloc(empty), Error);
}

TEST_F(TensorMirrorTest, DuplicateNamesRejectedOnSaveAndRestore) {
  std::vector<NamedTensor> pair = {{"a", weights_}, {"b", biases_}};
  mirror_.alloc(pair);
  mirror_.mirror_out(pair, 1);
  const auto saved_w = weights_;
  const auto saved_b = biases_;

  // {a, a} has the right count but names one blob twice: "b" would keep
  // version 1's bytes under version 2's header.
  std::vector<float> other(weights_.size(), 3.0f);
  std::vector<NamedTensor> dup_out = {{"a", other}, {"a", other}};
  EXPECT_THROW(mirror_.mirror_out(dup_out, 2), MlError);
  EXPECT_EQ(mirror_.version(), 1u);

  std::fill(weights_.begin(), weights_.end(), 0.0f);
  std::fill(biases_.begin(), biases_.end(), 0.0f);
  std::vector<NamedTensor> dup_in = {{"a", weights_}, {"a", weights_}};
  EXPECT_THROW((void)mirror_.mirror_in(dup_in), MlError);

  // The stored bytes are still version 1's, for both blobs.
  EXPECT_EQ(mirror_.mirror_in(pair), 1u);
  EXPECT_EQ(weights_, saved_w);
  EXPECT_EQ(biases_, saved_b);
}

TEST_F(TensorMirrorTest, SurvivesCrash) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 3);
  const auto saved = weights_;

  platform_.pm().crash();
  romulus::Romulus recovered(platform_.pm(), 0, 7 * 1024 * 1024,
                             romulus::PwbPolicy::clflushopt_sfence());
  TensorMirror mirror2(recovered, platform_.enclave(), test_gcm());
  std::fill(weights_.begin(), weights_.end(), 0.0f);
  auto restored = tensor_set();
  EXPECT_EQ(mirror2.mirror_in(restored), 3u);
  EXPECT_EQ(weights_, saved);
}

TEST_F(TensorMirrorTest, TamperDetected) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 1);
  for (std::size_t off = 256; off < 64 * 1024; off += 256) {
    rom_.main_base()[off] ^= 0x01;
  }
  auto restored = tensor_set();
  EXPECT_THROW((void)mirror_.mirror_in(restored), Error);
}

TEST_F(TensorMirrorTest, FlippedCountFailsClosedWithPmError) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 1);
  // Media fault in the high bits of the persistent entry count (the third
  // header word): it must be bounded by the table extent before anything is
  // allocated or walked over it.
  const std::uint64_t count_off =
      rom_.root(TensorMirror::kRootSlot) + 2 * sizeof(std::uint64_t);
  platform_.pm().flip_bit(rom_.main_region_offset() + count_off + 7, 6);

  EXPECT_THROW((void)mirror_.blob_sizes(), PmError);
  EXPECT_THROW((void)mirror_.sealed_bytes(), PmError);
  EXPECT_THROW((void)mirror_.tensor_count(), PmError);
  auto restored = tensor_set();
  EXPECT_THROW((void)mirror_.mirror_in(restored), PmError);
  EXPECT_THROW(mirror_.mirror_out(tensors, 2), PmError);
}

// --- secure inference -----------------------------------------------------------

class InferenceTest : public ::testing::Test {
 protected:
  InferenceTest() : platform_(MachineProfile::emlsgx_pm(), 64 * 1024 * 1024) {
    ml::SynthDigitsOptions opt;
    opt.train_count = 2048;
    opt.test_count = 512;
    digits_ = ml::make_synth_digits(opt);
  }

  Platform platform_;
  ml::SynthDigits digits_;
};

TEST_F(InferenceTest, SealedQueryRoundTrip) {
  Trainer trainer(platform_, ml::make_cnn_config(3, 8, 64), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(80);

  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);
  EXPECT_EQ(service.input_size(), ml::kDigitPixels);

  // Client side: seal a test image, query, open the sealed prediction.
  crypto::IvSequence client_iv(77);
  int correct = 0;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const float* img = digits_.test.x.row(i);
    const auto sealed_query = crypto::seal(
        gcm, client_iv,
        ByteSpan(reinterpret_cast<const std::uint8_t*>(img),
                 ml::kDigitPixels * sizeof(float)));
    const Bytes sealed_reply = service.classify_sealed(sealed_query);
    const std::size_t pred = InferenceService::open_prediction(gcm, sealed_reply);

    const float* truth = digits_.test.y.row(i);
    std::size_t label = 0;
    for (std::size_t c = 1; c < ml::kDigitClasses; ++c) {
      if (truth[c] > truth[label]) label = c;
    }
    correct += pred == label;
  }
  EXPECT_GT(correct, n * 3 / 4);  // trained model classifies well
  EXPECT_EQ(service.stats().queries, static_cast<std::uint64_t>(n));
  EXPECT_GT(service.stats().total_ns, 0.0);
}

TEST_F(InferenceTest, TamperedQueryRejected) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);

  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);
  crypto::IvSequence iv(1);
  Bytes query = crypto::seal(
      gcm, iv,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(digits_.test.x.row(0)),
               ml::kDigitPixels * sizeof(float)));
  query[40] ^= 0xFF;
  EXPECT_THROW((void)service.classify_sealed(query), CryptoError);
  EXPECT_THROW((void)service.classify_sealed(ByteSpan(query.data(), 10)), CryptoError);
}

TEST_F(InferenceTest, WrongKeyClientRejected) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);

  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);
  Bytes rogue_key(16, 0x66);
  const crypto::AesGcm rogue(rogue_key);
  crypto::IvSequence iv(1);
  const Bytes query = crypto::seal(
      rogue, iv,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(digits_.test.x.row(0)),
               ml::kDigitPixels * sizeof(float)));
  EXPECT_THROW((void)service.classify_sealed(query), CryptoError);
}

TEST_F(InferenceTest, WrongSizeQueryNamesExpectedVsGot) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);
  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);

  // A sealed query of the wrong plaintext size must be rejected before any
  // decryption, with a message naming both sizes.
  crypto::IvSequence iv(3);
  std::vector<float> short_sample(ml::kDigitPixels - 1, 0.5f);
  const Bytes query = crypto::seal(
      gcm, iv,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(short_sample.data()),
               short_sample.size() * sizeof(float)));
  try {
    (void)service.classify_sealed(query);
    FAIL() << "wrong-size query must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    const std::size_t expected =
        crypto::sealed_size(ml::kDigitPixels * sizeof(float));
    EXPECT_NE(msg.find("expected " + std::to_string(expected)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(query.size())), std::string::npos)
        << msg;
  }
}

TEST_F(InferenceTest, OpenPredictionRejectsTruncationTamperAndBadPayload) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);
  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);

  crypto::IvSequence iv(5);
  const Bytes query = crypto::seal(
      gcm, iv,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(digits_.test.x.row(0)),
               ml::kDigitPixels * sizeof(float)));
  const Bytes reply = service.classify_sealed(query);

  // Truncated below the envelope overhead, truncated mid-ciphertext, and
  // MAC-corrupted replies must all fail as CryptoError.
  EXPECT_THROW((void)InferenceService::open_prediction(gcm, ByteSpan(reply.data(), 4)),
               CryptoError);
  EXPECT_THROW(
      (void)InferenceService::open_prediction(gcm, ByteSpan(reply.data(), reply.size() - 1)),
      CryptoError);
  Bytes mac_corrupt = reply;
  mac_corrupt[mac_corrupt.size() - 1] ^= 0x01;  // last MAC byte
  EXPECT_THROW((void)InferenceService::open_prediction(gcm, mac_corrupt), CryptoError);

  // An authentic envelope of the wrong payload size names expected vs got.
  crypto::IvSequence iv2(6);
  const Bytes bad_payload = crypto::seal(gcm, iv2, ByteSpan(reply.data(), 3));
  try {
    (void)InferenceService::open_prediction(gcm, bad_payload);
    FAIL() << "bad payload size must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected 8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("got 3"), std::string::npos) << msg;
  }

  // The untampered reply still opens fine afterwards.
  EXPECT_LT(InferenceService::open_prediction(gcm, reply), ml::kDigitClasses);
}

TEST_F(InferenceTest, ConcurrentSealedQueriesAreSafeAndAccounted) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(20);
  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);

  // Baseline predictions from a single thread.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 16;
  std::array<std::size_t, kThreads * kPerThread> expected{};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = service.classify(std::span<const float>(
        digits_.test.x.row(i), ml::kDigitPixels));
  }
  const std::uint64_t baseline_queries = service.stats().queries;

  // Hammer the service from several host threads; every call must return
  // the same prediction as the serial baseline (per-call scratch, forward
  // serialized) and every query must be counted exactly once.
  std::array<std::thread, kThreads> threads;
  std::atomic<int> mismatches{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads[t] = std::thread([&, t] {
      crypto::IvSequence iv(100 + static_cast<std::uint32_t>(t));
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t row = t * kPerThread + i;
        const Bytes query = crypto::seal(
            gcm, iv,
            ByteSpan(reinterpret_cast<const std::uint8_t*>(digits_.test.x.row(row)),
                     ml::kDigitPixels * sizeof(float)));
        const Bytes reply = service.classify_sealed(query);
        if (InferenceService::open_prediction(gcm, reply) != expected[row]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.stats().queries, baseline_queries + kThreads * kPerThread);
  EXPECT_EQ(service.stats().latency.count(), service.stats().queries);
}

TEST_F(InferenceTest, EvaluateMatchesNetworkAccuracy) {
  Trainer trainer(platform_, ml::make_cnn_config(3, 8, 64), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(60);
  const crypto::AesGcm gcm{trainer.data_key()};
  InferenceService service(platform_, trainer.network(), gcm);
  const double acc = service.evaluate(digits_.test);
  EXPECT_GT(acc, 0.5);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace plinius
