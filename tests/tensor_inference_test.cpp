#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/envelope.h"
#include "plinius/platform.h"
#include "plinius/sealed_blob.h"
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

// --- SealedBlobs: the one sealed-blob store under every PM format ------------

class SealedBlobsTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kMain = 1024 * 1024;

  static Bytes random_bytes(std::size_t n, std::uint64_t seed) {
    Bytes out(n);
    Rng(seed).fill(out.data(), out.size());
    return out;
  }

  // Allocates a blob for `plain` and seals it, in one transaction.
  static SealedRef put(romulus::Romulus& rom, SealedBlobs& blobs, ByteSpan plain) {
    SealedRef ref{};
    rom.run_transaction([&] {
      ref = blobs.alloc(plain.size());
      blobs.seal(ref, plain);
    });
    return ref;
  }

  static Bytes pm_bytes(romulus::Romulus& rom, const SealedRef& ref) {
    const std::uint8_t* at = rom.main_base() + ref.sealed_off;
    return Bytes(at, at + ref.sealed_len);
  }
};

TEST_F(SealedBlobsTest, SealBatchMatchesSequentialSeals) {
  // Two platforms with the same seed: their enclave RNGs, and so the two
  // stores' IV salts, start from the same state.
  Platform batch_platform(MachineProfile::sgx_emlpm(), 4u << 20);
  Platform seq_platform(MachineProfile::sgx_emlpm(), 4u << 20);
  romulus::Romulus batch_rom(batch_platform.pm(), 0, kMain,
                             romulus::PwbPolicy::clflushopt_sfence(), true);
  romulus::Romulus seq_rom(seq_platform.pm(), 0, kMain,
                           romulus::PwbPolicy::clflushopt_sfence(), true);
  SealedBlobs batch(batch_rom, batch_platform.enclave(), test_gcm());
  SealedBlobs seq(seq_rom, seq_platform.enclave(), test_gcm());

  std::vector<Bytes> plains;
  for (const std::size_t n : {0u, 1u, 33u, 4096u, 70001u, 17u}) {
    plains.push_back(random_bytes(n, 100 + n));
  }
  std::vector<ByteSpan> spans(plains.begin(), plains.end());
  std::size_t total = 0;
  for (const Bytes& p : plains) total += crypto::sealed_size(p.size());
  Bytes out(total);
  batch.seal_batch(spans, out);

  std::size_t off = 0;
  for (std::size_t i = 0; i < plains.size(); ++i) {
    const SealedRef ref = put(seq_rom, seq, plains[i]);
    const Bytes envelope(out.begin() + off, out.begin() + off + ref.sealed_len);
    EXPECT_EQ(envelope, pm_bytes(seq_rom, ref)) << "envelope " << i;
    Bytes plain(ref.plain_len);
    EXPECT_TRUE(batch.open(envelope, plain)) << "envelope " << i;
    EXPECT_EQ(plain, plains[i]) << "envelope " << i;
    off += ref.sealed_len;
  }
  EXPECT_EQ(off, out.size());

  // The batch drew its IVs in order and no more: the next seal of each store
  // still agrees.
  const Bytes next = random_bytes(64, 7);
  const SealedRef batch_ref = put(batch_rom, batch, next);
  const SealedRef seq_ref = put(seq_rom, seq, next);
  EXPECT_EQ(pm_bytes(batch_rom, batch_ref), pm_bytes(seq_rom, seq_ref));
  EXPECT_THROW(batch.seal_batch(spans, MutableByteSpan(out).first(total - 1)), Error);
}

TEST_F(SealedBlobsTest, StageChargesExactlyThePmReadPlusTheSgxCopyIn) {
  for (const auto& [profile, copies_in] :
       {std::pair{MachineProfile::sgx_emlpm(), true},
        std::pair{MachineProfile::emlsgx_pm(), false}}) {
    Platform platform(profile, 4u << 20);
    romulus::Romulus rom(platform.pm(), 0, kMain, romulus::PwbPolicy::clflushopt_sfence(),
                         true);
    SealedBlobs blobs(rom, platform.enclave(), test_gcm());
    const SealedRef ref = put(rom, blobs, random_bytes(5000, 3));
    ASSERT_EQ(platform.enclave().model().real_sgx, copies_in) << profile.name;

    const sim::Nanos t0 = platform.clock().now();
    const std::uint64_t read0 = platform.pm().stats().bytes_read;
    const std::uint64_t copied0 = platform.enclave().stats().bytes_copied_in;
    Bytes staged(ref.sealed_len);
    blobs.stage(ref, staged);
    EXPECT_EQ(staged, pm_bytes(rom, ref)) << profile.name;
    EXPECT_EQ(platform.pm().stats().bytes_read - read0, ref.sealed_len) << profile.name;
    EXPECT_EQ(platform.enclave().stats().bytes_copied_in - copied0,
              copies_in ? ref.sealed_len : 0u)
        << profile.name;

    // The clock advances by the PM read, then (real SGX only) the copy-in,
    // summed in the order the device and the enclave charge them.
    const pm::PmLatencyModel& pm = platform.pm().model();
    sim::Nanos want = t0;
    want += pm.read_latency_ns +
            sim::bandwidth_ns(static_cast<double>(ref.sealed_len), pm.read_gib_s);
    if (copies_in) want += platform.enclave().copy_in_task_ns(ref.sealed_len);
    EXPECT_EQ(platform.clock().now(), want) << profile.name;
    EXPECT_GT(platform.clock().now(), t0) << profile.name;
  }
}

TEST_F(SealedBlobsTest, AuthenticateChargesNothingAndRejectsOneFlippedByte) {
  Platform platform(MachineProfile::sgx_emlpm(), 4u << 20);
  romulus::Romulus rom(platform.pm(), 0, kMain, romulus::PwbPolicy::clflushopt_sfence(),
                       true);
  SealedBlobs blobs(rom, platform.enclave(), test_gcm());
  const SealedRef ref = put(rom, blobs, random_bytes(3000, 4));

  const sim::Nanos t0 = platform.clock().now();
  const pm::PmStats pm0 = platform.pm().stats();
  const sgx::EnclaveStats enclave0 = platform.enclave().stats();
  Bytes sealed;
  EXPECT_TRUE(blobs.authenticate(ref, sealed));
  EXPECT_EQ(sealed, pm_bytes(rom, ref));

  // One flipped byte in the IV, the ciphertext or the MAC fails the check.
  const std::uint64_t flips[] = {0, ref.sealed_len / 2, ref.sealed_len - 1};
  for (const std::uint64_t at : flips) {
    const std::size_t byte_off = rom.main_region_offset() + ref.sealed_off + at;
    platform.pm().flip_bit(byte_off, 3);
    EXPECT_FALSE(blobs.authenticate(ref, sealed)) << "flipped byte " << at;
    EXPECT_EQ(sealed, pm_bytes(rom, ref)) << "flipped byte " << at;
    platform.pm().flip_bit(byte_off, 3);
  }
  EXPECT_TRUE(blobs.authenticate(ref, sealed));

  EXPECT_EQ(platform.clock().now(), t0);
  EXPECT_EQ(platform.pm().stats().bytes_read, pm0.bytes_read);
  EXPECT_EQ(platform.enclave().stats().bytes_copied_in, enclave0.bytes_copied_in);
  EXPECT_EQ(platform.enclave().stats().crypto_bytes, enclave0.crypto_bytes);
  EXPECT_EQ(platform.enclave().stats().epc_faults, enclave0.epc_faults);
}

}  // namespace
}  // namespace plinius
