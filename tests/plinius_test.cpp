#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/checkpoint.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/pm_data.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"

namespace plinius {
namespace {

ml::Dataset tiny_dataset(std::size_t rows = 64) {
  ml::SynthDigitsOptions opt;
  opt.train_count = rows;
  opt.test_count = 1;
  return make_synth_digits(opt).train;
}

ml::ModelConfig tiny_config() { return ml::make_cnn_config(2, 4, 8); }

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(77).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

class PliniusFixture : public ::testing::Test {
 protected:
  PliniusFixture()
      : platform_(MachineProfile::sgx_emlpm(), 32 * 1024 * 1024),
        rom_(platform_.pm(), 0, 15 * 1024 * 1024,
             romulus::PwbPolicy::clflushopt_sfence(), true) {}

  Platform platform_;
  romulus::Romulus rom_;
};

// --- Platform ----------------------------------------------------------------

TEST(Platform, ProfilesMatchPaperServers) {
  const auto a = MachineProfile::sgx_emlpm();
  EXPECT_TRUE(a.sgx.real_sgx);
  EXPECT_NEAR(a.sgx.cpu_ghz, 3.8, 1e-9);

  const auto b = MachineProfile::emlsgx_pm();
  EXPECT_FALSE(b.sgx.real_sgx);
  EXPECT_NEAR(b.sgx.cpu_ghz, 2.5, 1e-9);
  // emlSGX-PM has real Optane: slower PM writes than the Ramdisk-PM machine.
  EXPECT_LT(b.pm.flush_drain_gib_s, a.pm.flush_drain_gib_s);
}

TEST(Platform, ComputeChargeAdvancesClock) {
  Platform p(MachineProfile::emlsgx_pm(), 1024 * 1024);
  const auto t0 = p.clock().now();
  p.charge_compute(36e9);  // exactly one second of MACs
  EXPECT_NEAR(p.clock().now() - t0, 1e9, 1.0);
}

// --- MirrorModel --------------------------------------------------------------

TEST_F(PliniusFixture, AllocAndRoundTrip) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());

  EXPECT_FALSE(mirror.exists());
  EXPECT_THROW((void)mirror.iteration(), Error);
  mirror.alloc(net);
  EXPECT_TRUE(mirror.exists());
  EXPECT_EQ(mirror.iteration(), 0u);
  EXPECT_THROW(mirror.alloc(net), PmError);

  net.set_iterations(5);
  mirror.mirror_out(net, 5);
  EXPECT_EQ(mirror.iteration(), 5u);

  // Restore into a differently initialized network: weights must match.
  Rng rng2(999);
  ml::Network other = ml::build_network(tiny_config(), rng2);
  MirrorModel mirror2(rom_, platform_.enclave(), test_gcm());
  EXPECT_EQ(mirror2.mirror_in(other), 5u);
  EXPECT_EQ(other.iterations(), 5u);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    auto a = net.layer(l).parameters();
    auto b = other.layer(l).parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < a[i].values.size(); ++j) {
        ASSERT_EQ(a[i].values[j], b[i].values[j])
            << "layer " << l << " buffer " << i << " elem " << j;
      }
    }
  }
}

TEST_F(PliniusFixture, MirrorInWrongKeyFailsAuthentication) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net);
  mirror.mirror_out(net, 1);

  Bytes wrong_key(16, 0x42);
  MirrorModel wrong(rom_, platform_.enclave(), crypto::AesGcm(wrong_key));
  EXPECT_THROW((void)wrong.mirror_in(net), CryptoError);
}

TEST_F(PliniusFixture, TamperedPmMirrorDetected) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net);
  mirror.mirror_out(net, 1);

  // Adversary with physical PM access flips bits across the heap area —
  // some land inside the sealed weight buffers.
  for (std::size_t off = 1024; off < 64 * 1024; off += 512) {
    rom_.main_base()[off] ^= 0x01;
  }
  EXPECT_THROW((void)mirror.mirror_in(net), CryptoError);
}

TEST_F(PliniusFixture, MirrorLayoutMismatchRejected) {
  Rng rng(1);
  ml::Network small = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(small);
  ml::Network bigger = ml::build_network(ml::make_cnn_config(3, 4, 8), rng);
  EXPECT_THROW(mirror.mirror_out(bigger, 1), MlError);
  EXPECT_THROW((void)mirror.mirror_in(bigger), MlError);
}

TEST_F(PliniusFixture, EncryptionMetadataIs28BytesPerBuffer) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net);

  std::size_t buffers = 0;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    buffers += net.layer(l).parameters().size();
  }
  EXPECT_EQ(mirror.encryption_metadata_bytes(), buffers * 28);
  // A BN conv layer contributes exactly the paper's 140 B (5 x 28).
  EXPECT_EQ(net.layer(0).parameters().size() * 28, 140u);
}

TEST_F(PliniusFixture, MirrorStatsBreakdownPopulated) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net);
  mirror.reset_stats();
  mirror.mirror_out(net, 1);
  (void)mirror.mirror_in(net);
  const auto& s = mirror.stats();
  EXPECT_EQ(s.saves, 1u);
  EXPECT_EQ(s.restores, 1u);
  EXPECT_GT(s.encrypt_ns, 0.0);
  EXPECT_GT(s.write_ns, 0.0);
  EXPECT_GT(s.read_ns, 0.0);
  EXPECT_GT(s.decrypt_ns, 0.0);
}

TEST_F(PliniusFixture, CrashDuringMirrorOutRecoversPreviousMirror) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  {
    MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
    mirror.alloc(net);
    mirror.mirror_out(net, 7);
  }

  // Mutate weights, then crash the device mid-save: leave the Romulus
  // transaction un-ended by injecting the crash below the API (tx opened,
  // device crashed, process "dies").
  auto params = net.layer(0).parameters();
  const float before = params[0].values[0];
  params[0].values[0] = before + 100.0f;

  rom_.begin_transaction();
  rom_.tx_assign(rom_.root(MirrorModel::kRootSlot) + 8, std::uint64_t{8});  // iter=8
  rom_.abandon_transaction();
  platform_.pm().crash();

  // New process: recovery + mirror-in must yield the *previous* consistent
  // mirror (iteration 7 with the old weights).
  romulus::Romulus recovered(platform_.pm(), 0, 15 * 1024 * 1024,
                             romulus::PwbPolicy::clflushopt_sfence());
  Rng rng2(2);
  ml::Network resumed = ml::build_network(tiny_config(), rng2);
  MirrorModel mirror(recovered, platform_.enclave(), test_gcm());
  EXPECT_EQ(mirror.mirror_in(resumed), 7u);
  EXPECT_EQ(resumed.layer(0).parameters()[0].values[0], before);
}

// --- PmDataStore -----------------------------------------------------------------

TEST_F(PliniusFixture, DataLoadAndSample) {
  const auto data = tiny_dataset(32);
  PmDataStore store(rom_, platform_.enclave(), test_gcm());
  EXPECT_FALSE(store.exists());
  store.load(data);
  EXPECT_TRUE(store.exists());
  EXPECT_THROW(store.load(data), PmError);
  EXPECT_EQ(store.rows(), 32u);
  EXPECT_EQ(store.x_cols(), ml::kDigitPixels);
  EXPECT_EQ(store.y_cols(), ml::kDigitClasses);
  EXPECT_TRUE(store.encrypted());

  // Record 5 decrypts to exactly its source row.
  std::vector<float> x(ml::kDigitPixels), y(ml::kDigitClasses);
  store.read_record(5, x.data(), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], data.x.row(5)[i]);
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], data.y.row(5)[i]);

  EXPECT_THROW(store.read_record(32, x.data(), y.data()), PmError);

  Rng rng(3);
  std::vector<float> bx(4 * ml::kDigitPixels), by(4 * ml::kDigitClasses);
  store.sample_batch(4, rng, bx.data(), by.data());
  EXPECT_EQ(store.stats().batches, 1u);
  EXPECT_EQ(store.stats().records, 5u);  // 1 read_record + 4 batch
}

TEST_F(PliniusFixture, DataSurvivesCrash) {
  const auto data = tiny_dataset(16);
  {
    PmDataStore store(rom_, platform_.enclave(), test_gcm());
    store.load(data);
  }
  platform_.pm().crash();
  romulus::Romulus recovered(platform_.pm(), 0, 15 * 1024 * 1024,
                             romulus::PwbPolicy::clflushopt_sfence());
  PmDataStore store(recovered, platform_.enclave(), test_gcm());
  ASSERT_TRUE(store.exists());
  std::vector<float> x(ml::kDigitPixels), y(ml::kDigitClasses);
  store.read_record(7, x.data(), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], data.x.row(7)[i]);
}

TEST_F(PliniusFixture, TamperedPmDataDetected) {
  const auto data = tiny_dataset(8);
  PmDataStore store(rom_, platform_.enclave(), test_gcm());
  store.load(data);
  // Flip a bit somewhere in the record area.
  rom_.main_base()[6000] ^= 0x40;
  std::vector<float> x(ml::kDigitPixels), y(ml::kDigitClasses);
  bool tamper_detected = false;
  for (std::size_t r = 0; r < 8; ++r) {
    try {
      store.read_record(r, x.data(), y.data());
    } catch (const CryptoError&) {
      tamper_detected = true;
    }
  }
  EXPECT_TRUE(tamper_detected);
}

TEST_F(PliniusFixture, PlaintextDataModeSkipsCrypto) {
  const auto data = tiny_dataset(16);
  PmDataStore store(rom_, platform_.enclave(), test_gcm(), /*encrypted=*/false);
  store.load(data);
  EXPECT_FALSE(store.encrypted());
  std::vector<float> x(ml::kDigitPixels), y(ml::kDigitClasses);
  store.read_record(3, x.data(), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], data.x.row(3)[i]);
}

TEST_F(PliniusFixture, EncryptedBatchesCostMoreThanPlaintext) {
  const auto data = tiny_dataset(32);
  PmDataStore enc(rom_, platform_.enclave(), test_gcm(), true);
  enc.load(data);
  Rng rng(1);
  std::vector<float> bx(8 * ml::kDigitPixels), by(8 * ml::kDigitClasses);
  enc.sample_batch(8, rng, bx.data(), by.data());
  const auto enc_ns = enc.stats().decrypt_ns;

  Platform p2(MachineProfile::sgx_emlpm(), 32 * 1024 * 1024);
  romulus::Romulus rom2(p2.pm(), 0, 15 * 1024 * 1024,
                        romulus::PwbPolicy::clflushopt_sfence(), true);
  PmDataStore plain(rom2, p2.enclave(), test_gcm(), false);
  plain.load(data);
  Rng rng2(1);
  plain.sample_batch(8, rng2, bx.data(), by.data());
  EXPECT_GT(enc_ns, plain.stats().decrypt_ns);
}

// --- SsdCheckpointer ---------------------------------------------------------------

TEST_F(PliniusFixture, CheckpointSaveRestoreRoundTrip) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  net.set_iterations(9);
  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());
  EXPECT_FALSE(ckpt.exists());
  EXPECT_THROW((void)ckpt.restore(net), StorageError);

  ckpt.save(net);
  EXPECT_TRUE(ckpt.exists());

  Rng rng2(2);
  ml::Network other = ml::build_network(tiny_config(), rng2);
  EXPECT_EQ(ckpt.restore(other), 9u);
  const auto a = net.layer(0).parameters()[0];
  const auto b = other.layer(0).parameters()[0];
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(a.values[i], b.values[i]);
  }

  const auto& s = ckpt.stats();
  EXPECT_GT(s.encrypt_ns, 0.0);
  EXPECT_GT(s.write_ns, 0.0);
  EXPECT_GT(s.read_ns, 0.0);
  EXPECT_GT(s.decrypt_ns, 0.0);

  ckpt.remove();
  EXPECT_FALSE(ckpt.exists());
}

TEST_F(PliniusFixture, TamperedCheckpointDetected) {
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());
  ckpt.save(net);
  auto& f = platform_.ssd().open("model.ckpt");
  Bytes byte(1);
  f.pread(100, byte);
  byte[0] ^= 0xFF;
  f.pwrite(100, byte);
  EXPECT_THROW((void)ckpt.restore(net), CryptoError);
}

TEST_F(PliniusFixture, MirroringFasterThanSsdCheckpointing) {
  // The headline claim, at unit-test scale.
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net);
  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());

  mirror.reset_stats();
  mirror.mirror_out(net, 1);
  const auto mirror_save = mirror.stats().encrypt_ns + mirror.stats().write_ns;
  ckpt.save(net);
  const auto ssd_save = ckpt.stats().encrypt_ns + ckpt.stats().write_ns;
  EXPECT_GT(ssd_save, mirror_save);

  (void)mirror.mirror_in(net);
  const auto mirror_restore = mirror.stats().read_ns + mirror.stats().decrypt_ns;
  platform_.ssd().drop_caches();
  (void)ckpt.restore(net);
  const auto ssd_restore = ckpt.stats().read_ns + ckpt.stats().decrypt_ns;
  EXPECT_GT(ssd_restore, mirror_restore);
}

// --- Trainer ----------------------------------------------------------------------

class TrainerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPmBytes = 48 * 1024 * 1024;
};

TEST_F(TrainerTest, TrainsAndResumesAfterCrash) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  const auto config = tiny_config();
  const auto data = tiny_dataset(128);

  float loss_at_crash = 0;
  {
    Trainer trainer(platform, config, TrainerOptions{});
    trainer.load_dataset(data);
    EXPECT_EQ(trainer.resume_or_init(), 0u);
    try {
      trainer.train(100, [&](std::uint64_t iter, float loss) {
        if (iter == 20) {
          loss_at_crash = loss;
          throw SimulatedCrash("kill at iteration 20");
        }
      });
      FAIL() << "crash did not propagate";
    } catch (const SimulatedCrash&) {
    }
  }
  platform.pm().crash();

  // New "process": resumes at iteration 20, not 0.
  Trainer resumed(platform, config, TrainerOptions{});
  resumed.load_dataset(data);  // no-op: data already in PM
  EXPECT_EQ(resumed.resume_or_init(), 20u);
  const float final_loss = resumed.train(60);
  EXPECT_EQ(resumed.network().iterations(), 60u);
  EXPECT_TRUE(std::isfinite(final_loss));
}

TEST_F(TrainerTest, NonResilientBackendRestartsFromScratch) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  TrainerOptions opt;
  opt.backend = CheckpointBackend::kNone;
  const auto config = tiny_config();
  const auto data = tiny_dataset(128);
  {
    Trainer trainer(platform, config, opt);
    trainer.load_dataset(data);
    (void)trainer.train(10);
  }
  Trainer restarted(platform, config, opt);
  restarted.load_dataset(data);
  EXPECT_EQ(restarted.resume_or_init(), 0u);
}

TEST_F(TrainerTest, MirrorFrequencyReducesSaves) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  TrainerOptions opt;
  opt.mirror_every = 5;
  Trainer trainer(platform, tiny_config(), opt);
  trainer.load_dataset(tiny_dataset(128));
  (void)trainer.train(10);
  EXPECT_EQ(trainer.mirror().stats().saves, 2u);
}

TEST_F(TrainerTest, KeyIsSealedAndReusedAcrossRestarts) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  Bytes key1;
  {
    Trainer t(platform, tiny_config(), TrainerOptions{});
    key1 = t.data_key();
  }
  Trainer t2(platform, tiny_config(), TrainerOptions{});
  EXPECT_EQ(t2.data_key(), key1);  // unsealed, not regenerated
}

TEST_F(TrainerTest, TrainingChargesSimulatedTime) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  Trainer trainer(platform, tiny_config(), TrainerOptions{});
  trainer.load_dataset(tiny_dataset(128));
  const auto t0 = platform.clock().now();
  (void)trainer.train(3);
  EXPECT_GT(platform.clock().now(), t0);
  EXPECT_EQ(trainer.loss_history().size(), 3u);
}

TEST_F(TrainerTest, AugmentedTrainingStaysFiniteAndLearns) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  TrainerOptions opt;
  opt.augment = ml::AugmentOptions{};  // shifts + jitter + noise in-enclave
  Trainer trainer(platform, tiny_config(), opt);
  trainer.load_dataset(tiny_dataset(256));
  float first = 0, last = 0;
  (void)trainer.train(40, [&](std::uint64_t iter, float loss) {
    ASSERT_TRUE(std::isfinite(loss));
    if (iter == 1) first = loss;
    if (iter == 40) last = loss;
  });
  EXPECT_LT(last, first);
}

TEST_F(TrainerTest, TrainWithoutDataThrows) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  Trainer trainer(platform, tiny_config(), TrainerOptions{});
  EXPECT_THROW((void)trainer.train(1), Error);
}

}  // namespace
}  // namespace plinius
