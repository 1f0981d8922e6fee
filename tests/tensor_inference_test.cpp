#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/envelope.h"
#include "plinius/platform.h"
#include "plinius/tensor_mirror.h"
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

}  // namespace
}  // namespace plinius
