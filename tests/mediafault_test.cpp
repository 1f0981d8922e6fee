// Media-fault model and tiered repair: device primitives (bit rot, torn
// lines, poison), the seeded MediaFaultInjector, Romulus twin-copy repair
// helpers, mirror A/B replication + scrubbing, the arena scrubber, the
// PM-data corruption policy, the persistent logs, and fail-closed decoding of
// corrupt PM layouts (mirror layer list, dataset header, log headers).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "obs/registry.h"
#include "obs/stats_bridge.h"
#include "pm/device.h"
#include "pm/mediafault.h"
#include "plinius/checkpoint.h"
#include "plinius/metrics_log.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/pm_data.h"
#include "plinius/scrub.h"
#include "romulus/romulus.h"

namespace plinius {
namespace {

using pm::kCacheLine;

ml::Dataset tiny_dataset(std::size_t rows = 32) {
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

// --- PmDevice media primitives ------------------------------------------------

class MediaDeviceTest : public ::testing::Test {
 protected:
  MediaDeviceTest() : dev_(clock_, 1 << 20, pm::PmLatencyModel::optane()) {}

  sim::Clock clock_;
  pm::PmDevice dev_;
};

TEST_F(MediaDeviceTest, FlipBitHitsBothImagesWhenLineClean) {
  const std::size_t off = 4096;
  const std::uint8_t before = dev_.data()[off];
  dev_.flip_bit(off, 3);
  EXPECT_EQ(dev_.data()[off], before ^ 0x08);
  EXPECT_EQ(dev_.persistent_image()[off], before ^ 0x08);
  EXPECT_EQ(dev_.stats().media_bit_flips, 1u);
}

TEST_F(MediaDeviceTest, DirtyCacheLineMasksMediaFault) {
  const std::size_t off = 4096;
  const std::uint8_t value = 0x5A;
  dev_.store(off, &value, 1);  // line now dirty: CPU cache holds the data
  dev_.flip_bit(off, 0);
  // The cached (volatile) copy is unaffected; the media (persistent) copy rots.
  EXPECT_EQ(dev_.data()[off], 0x5A);
  EXPECT_NE(dev_.persistent_image()[off], dev_.data()[off]);
}

TEST_F(MediaDeviceTest, TornLineGarblesSecondHalfOnly) {
  const std::size_t line = 37;
  std::uint8_t pattern[kCacheLine];
  std::memset(pattern, 0xAB, sizeof(pattern));
  dev_.store(line * kCacheLine, pattern, sizeof(pattern));
  dev_.flush(line * kCacheLine, kCacheLine, pm::FlushKind::kClflush);
  dev_.fence(pm::FenceKind::kSfence);

  dev_.tear_line(line, /*seed=*/123);
  for (std::size_t i = 0; i < kCacheLine / 2; ++i) {
    EXPECT_EQ(dev_.persistent_image()[line * kCacheLine + i], 0xAB) << i;
  }
  bool changed = false;
  for (std::size_t i = kCacheLine / 2; i < kCacheLine; ++i) {
    changed |= dev_.persistent_image()[line * kCacheLine + i] != 0xAB;
  }
  EXPECT_TRUE(changed);
  EXPECT_EQ(dev_.stats().media_torn_lines, 1u);
}

TEST_F(MediaDeviceTest, PoisonedLineReadThrowsUntilRewritten) {
  const std::size_t line = 5;
  dev_.poison_line(line, /*seed=*/9);
  EXPECT_TRUE(dev_.line_poisoned(line));
  EXPECT_EQ(dev_.poisoned_line_count(), 1u);

  std::uint8_t buf[8];
  try {
    dev_.load(line * kCacheLine + 8, buf, sizeof(buf));
    FAIL() << "poisoned read did not throw";
  } catch (const PmError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos);
  }
  // Reads elsewhere still work.
  dev_.load(0, buf, sizeof(buf));

  // A full-line rewrite (store + flush + fence) clears the poison, as
  // hardware does after ndctl clear-error / a full write-back.
  std::uint8_t fresh[kCacheLine] = {};
  dev_.store(line * kCacheLine, fresh, sizeof(fresh));
  dev_.flush(line * kCacheLine, kCacheLine, pm::FlushKind::kClwb);
  dev_.fence(pm::FenceKind::kSfence);
  EXPECT_FALSE(dev_.line_poisoned(line));
  EXPECT_EQ(dev_.poisoned_line_count(), 0u);
  EXPECT_EQ(dev_.stats().poison_cleared, 1u);
  dev_.load(line * kCacheLine, buf, sizeof(buf));  // no throw
}

TEST_F(MediaDeviceTest, ScrubRangeFindsPoisonAndChargesTraffic) {
  dev_.poison_line(10, 1);
  dev_.poison_line(12, 2);
  const auto t0 = clock_.now();
  const auto poisoned = dev_.scrub_range(8 * kCacheLine, 8 * kCacheLine);
  ASSERT_EQ(poisoned.size(), 2u);
  EXPECT_EQ(poisoned[0], 10u);
  EXPECT_EQ(poisoned[1], 12u);
  EXPECT_EQ(dev_.stats().scrub_bytes, 8 * kCacheLine);
  EXPECT_GT(clock_.now(), t0);  // ARS traffic costs simulated time
}

TEST_F(MediaDeviceTest, RestorePersistentClearsPoison) {
  const Bytes image = dev_.snapshot_persistent();
  dev_.poison_line(3, 7);
  dev_.restore_persistent(image);  // replaced media: poison gone
  EXPECT_EQ(dev_.poisoned_line_count(), 0u);
}

// --- MediaFaultInjector -------------------------------------------------------

TEST_F(MediaDeviceTest, InjectorIsDeterministicUnderSeed) {
  pm::MediaFaultRates rates{3.0, 2.0, 1.0};
  std::vector<pm::MediaFaultEvent> runs[2];
  for (int run = 0; run < 2; ++run) {
    sim::Clock clock;
    pm::PmDevice dev(clock, 1 << 20, pm::PmLatencyModel::optane());
    pm::MediaFaultInjector inj(dev, /*seed=*/4242);
    inj.add_region("arena", 0, dev.size(), rates);
    runs[run] = inj.unleash();
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].kind, runs[1][i].kind);
    EXPECT_EQ(runs[0][i].offset, runs[1][i].offset);
    EXPECT_EQ(runs[0][i].region, runs[1][i].region);
  }
}

TEST_F(MediaDeviceTest, InjectorCountsScaleWithRegionAndRate) {
  // Integral expectation: 4 flips/MiB over 1 MiB = exactly 4 (no Bernoulli).
  pm::MediaFaultInjector inj(dev_, 7);
  inj.add_region("arena", 0, 1 << 20, pm::MediaFaultRates{4.0, 0.0, 0.0});
  const auto events = inj.unleash();
  EXPECT_EQ(events.size(), 4u);
  for (const auto& e : events) {
    EXPECT_EQ(e.kind, pm::MediaFaultKind::kBitFlip);
    EXPECT_LT(e.offset, dev_.size());
    EXPECT_FALSE(e.describe().empty());
  }
  EXPECT_EQ(dev_.stats().media_bit_flips, 4u);
  EXPECT_EQ(inj.events_applied(), 4u);
}

TEST_F(MediaDeviceTest, InjectorValidatesRegionsAndNames) {
  pm::MediaFaultInjector inj(dev_, 7);
  EXPECT_THROW(inj.add_region("oob", dev_.size() - 16, 64, {}), PmError);
  inj.add_region("ok", 0, 4096, {});
  EXPECT_THROW((void)inj.inject(pm::MediaFaultKind::kBitFlip, "nope"), Error);
  const auto e = inj.inject(pm::MediaFaultKind::kPoisonedLine, "ok");
  EXPECT_EQ(e.kind, pm::MediaFaultKind::kPoisonedLine);
  EXPECT_EQ(dev_.poisoned_line_count(), 1u);
}

// --- Romulus media-repair helpers ---------------------------------------------

class RomulusMediaTest : public ::testing::Test {
 protected:
  RomulusMediaTest()
      : dev_(clock_, 4 << 20, pm::PmLatencyModel::optane()),
        rom_(dev_, 0, 1 << 20, romulus::PwbPolicy::clflushopt_sfence(), true) {}

  sim::Clock clock_;
  pm::PmDevice dev_;
  romulus::Romulus rom_;
};

TEST_F(RomulusMediaTest, ValidateHeaderNamesCorruptField) {
  rom_.validate_header();  // clean passes
  dev_.flip_bit(0, 1);     // magic word
  try {
    rom_.validate_header();
    FAIL() << "corrupt magic not detected";
  } catch (const PmError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(RomulusMediaTest, ConstructorRefusesCorruptHeaderWithoutFormat) {
  dev_.flip_bit(3, 7);  // rot inside the magic
  EXPECT_THROW(romulus::Romulus(dev_, 0, 1 << 20,
                                romulus::PwbPolicy::clflushopt_sfence(), false),
               PmError);
  // format=true reformats the region and recovers the device.
  romulus::Romulus fresh(dev_, 0, 1 << 20,
                         romulus::PwbPolicy::clflushopt_sfence(), true);
  fresh.validate_header();
}

TEST_F(RomulusMediaTest, TwinRestoreRepairsAllocatorRot) {
  rom_.run_transaction([&] { (void)rom_.pmalloc(256); });
  // Rot the in-use accounting word in main; the back twin still has it.
  dev_.flip_bit(rom_.main_region_offset() + romulus::Romulus::alloc_meta_offset() + 16,
                5);
  EXPECT_THROW(rom_.validate_allocator(), PmError);
  EXPECT_GT(rom_.twin_divergence(), 0u);
  rom_.restore_main_from_back();
  rom_.validate_allocator();
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

TEST_F(RomulusMediaTest, RewriteBackHealsBackTwinRot) {
  rom_.run_transaction([&] { (void)rom_.pmalloc(256); });
  dev_.flip_bit(rom_.back_region_offset() + 64, 2);
  EXPECT_GT(rom_.twin_divergence(), 0u);
  rom_.validate_allocator();  // main is fine
  rom_.rewrite_back_from_main();
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

TEST_F(RomulusMediaTest, PmfreeErrorsNameOffsets) {
  rom_.run_transaction([&] {
    try {
      rom_.pmfree(rom_.main_size() + 1024);
      FAIL() << "out-of-heap pmfree accepted";
    } catch (const PmError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(rom_.main_size() + 1024)),
                std::string::npos);
    }
  });
  const std::size_t block = [&] {
    std::size_t b = 0;
    rom_.run_transaction([&] { b = rom_.pmalloc(128); });
    return b;
  }();
  // Rot the size word of the 16-byte block header so pmfree sees a block
  // that overruns the heap.
  dev_.flip_bit(rom_.main_region_offset() + block - 16 + 6, 4);
  rom_.run_transaction([&] { EXPECT_THROW(rom_.pmfree(block), PmError); });
}

TEST_F(RomulusMediaTest, ReadOutOfRangeNamesOffsets) {
  try {
    (void)rom_.read<std::uint64_t>(rom_.main_size() - 2);
    FAIL() << "out-of-range read accepted";
  } catch (const PmError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(rom_.main_size() - 2)), std::string::npos);
    EXPECT_NE(what.find(std::to_string(rom_.main_size())), std::string::npos);
  }
}

// --- Mirror A/B replication and scrubbing -------------------------------------

class MirrorMediaTest : public ::testing::Test {
 protected:
  MirrorMediaTest()
      : platform_(MachineProfile::emlsgx_pm(), 32 * 1024 * 1024),
        rom_(platform_.pm(), 0, 14 * 1024 * 1024,
             romulus::PwbPolicy::clflushopt_sfence(), true),
        net_(ml::build_network(tiny_config(), rng_)) {}

  /// Corrupts `len` bytes of main-relative extent [off, off+len) as a media
  /// fault (device coordinates; persistent + clean volatile image).
  void rot_extent(std::uint64_t off, std::uint64_t len) {
    for (std::uint64_t i = 0; i < len; i += 16) {
      platform_.pm().flip_bit(rom_.main_region_offset() + off + i, 1);
    }
  }

  Rng rng_{1};
  Platform platform_;
  romulus::Romulus rom_;
  ml::Network net_;
};

TEST_F(MirrorMediaTest, ReplicatedMirrorRecoversAndRepairsPrimaryRot) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  EXPECT_TRUE(mirror.replicated());
  net_.set_iterations(4);
  mirror.mirror_out(net_, 4);

  const auto extents = mirror.sealed_extents();
  ASSERT_FALSE(extents.empty());
  ASSERT_NE(extents[0].replica_off, 0u);
  rot_extent(extents[0].primary_off, 64);

  ml::Network other = ml::build_network(tiny_config(), rng_);
  EXPECT_EQ(mirror.mirror_in(other), 4u);
  EXPECT_EQ(mirror.stats().replica_repairs, 1u);
  // The corrupt primary was rewritten from the sibling: a scrub is clean.
  const auto report = mirror.scrub(other);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.auth_failures, 0u);
}

TEST_F(MirrorMediaTest, ScrubRepairsRottenReplica) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 1);

  const auto extents = mirror.sealed_extents();
  rot_extent(extents[1].replica_off, 32);

  const auto before = rom_.device().stats().scrub_bytes;
  const auto report = mirror.scrub(net_);
  EXPECT_EQ(report.buffers_checked, extents.size());
  EXPECT_EQ(report.auth_failures, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_GT(rom_.device().stats().scrub_bytes, before);
  // Second pass: clean.
  EXPECT_EQ(mirror.scrub(net_).auth_failures, 0u);
}

TEST_F(MirrorMediaTest, BothCopiesRottenIsUnrecoverableAtMirrorTier) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 1);

  const auto extents = mirror.sealed_extents();
  rot_extent(extents[0].primary_off, 32);
  rot_extent(extents[0].replica_off, 32);
  // But ALSO rot the back-region copies, else the twin would repair them.
  auto& dev = platform_.pm();
  for (std::uint64_t i = 0; i < 32; i += 16) {
    dev.flip_bit(rom_.back_region_offset() + extents[0].primary_off + i, 1);
    dev.flip_bit(rom_.back_region_offset() + extents[0].replica_off + i, 1);
  }

  const auto report = mirror.scrub(net_, /*repair=*/true);
  EXPECT_EQ(report.unrecoverable, 1u);
  EXPECT_FALSE(report.healthy());
  try {
    (void)mirror.mirror_in(net_);
    FAIL() << "mirror_in authenticated rotten copies";
  } catch (const CryptoError& e) {
    EXPECT_NE(std::string(e.what()).find("both A/B copies"), std::string::npos);
  }
}

TEST_F(MirrorMediaTest, UnreplicatedMirrorReportsNoReplica) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 1);
  EXPECT_FALSE(mirror.replicated());
  const auto extents = mirror.sealed_extents();
  for (const auto& e : extents) EXPECT_EQ(e.replica_off, 0u);

  rot_extent(extents[0].primary_off, 32);
  const auto report = mirror.scrub(net_);
  EXPECT_EQ(report.unrecoverable, 1u);  // no sibling to repair from
}

TEST_F(MirrorMediaTest, DisposeReturnsEveryAllocation) {
  const std::size_t before = rom_.allocated_bytes();
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 3);
  EXPECT_GT(rom_.allocated_bytes(), before);

  mirror.dispose();
  EXPECT_EQ(rom_.allocated_bytes(), before);
  EXPECT_FALSE(mirror.exists());
  rom_.validate_allocator();
  // The region is immediately reusable.
  mirror.alloc(net_);
  EXPECT_TRUE(mirror.exists());
}

// --- Arena scrubber -----------------------------------------------------------

TEST_F(MirrorMediaTest, ArenaScrubCleanIsHealthy) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.mirror_present);
  EXPECT_FALSE(report.twin_restored);
}

TEST_F(MirrorMediaTest, ArenaScrubRestoresAllocatorFromTwin) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  platform_.pm().flip_bit(
      rom_.main_region_offset() + romulus::Romulus::alloc_meta_offset() + 4, 2);
  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.twin_restored);
  rom_.validate_allocator();
}

TEST_F(MirrorMediaTest, ArenaScrubUsesTwinForUnreplicatedSeal) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  const auto extents = mirror.sealed_extents();
  rot_extent(extents[0].primary_off, 48);

  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.twin_restored);
  ml::Network other = ml::build_network(tiny_config(), rng_);
  EXPECT_EQ(mirror.mirror_in(other), 2u);  // repaired in place
}

TEST_F(MirrorMediaTest, ArenaScrubReportsCorruptHeader) {
  platform_.pm().flip_bit(2, 0);  // region header magic
  const auto report = scrub_arena(rom_, nullptr, nullptr, nullptr);
  EXPECT_FALSE(report.header_ok);
  EXPECT_FALSE(report.healthy());
}

TEST_F(MirrorMediaTest, ArenaScrubResyncsDivergedBackTwin) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  platform_.pm().flip_bit(rom_.back_region_offset() + 4096, 3);
  ASSERT_GT(rom_.twin_divergence(), 0u);
  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.twins_resynced);
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

// --- PmDataStore corruption policy --------------------------------------------

TEST_F(MirrorMediaTest, DataStoreThrowNamesRecordIndex) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm());
  data.load(tiny_dataset());
  // Rot every record so the first draw is guaranteed to hit one.
  for (std::size_t r = 0; r < data.rows(); ++r) {
    rot_extent(data.records_offset() + r * data.record_bytes(), 16);
  }

  std::vector<float> x(32 * data.x_cols()), y(32 * data.y_cols());
  Rng rng(5);
  try {
    data.sample_batch(32, rng, x.data(), y.data());
    FAIL() << "rotten record authenticated";
  } catch (const CryptoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record "), std::string::npos);
    EXPECT_NE(what.find("failed authentication"), std::string::npos);
  }
}

TEST_F(MirrorMediaTest, DataStoreResamplePolicySkipsRot) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm());
  data.set_corrupt_policy(CorruptRecordPolicy::kResample);
  data.load(tiny_dataset());
  rot_extent(data.records_offset(), 16);                          // record 0
  rot_extent(data.records_offset() + 3 * data.record_bytes(), 16);  // record 3

  std::vector<float> x(32 * data.x_cols()), y(32 * data.y_cols());
  Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    data.sample_batch(32, rng, x.data(), y.data());  // must not throw
  }
  EXPECT_GT(data.stats().corrupt_records, 0u);
  EXPECT_GT(data.stats().resampled, 0u);
  EXPECT_EQ(data.stats().batches, 4u);

  const auto corrupt = data.scrub_records();
  ASSERT_EQ(corrupt.size(), 2u);
  EXPECT_EQ(corrupt[0], 0u);
  EXPECT_EQ(corrupt[1], 3u);
}

TEST_F(MirrorMediaTest, PlaintextStoreScrubsClean) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm(), /*encrypted=*/false);
  data.load(tiny_dataset());
  EXPECT_TRUE(data.scrub_records().empty());
}

TEST_F(MirrorMediaTest, DataStoreCorruptLayoutFailsClosed) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm());
  data.load(tiny_dataset());
  std::vector<float> x(8 * data.x_cols()), y(8 * data.y_cols());

  // Header words (plinius/pm_data.h): magic, rows, x_cols, y_cols,
  // record_len, encrypted, records_off.
  const std::uint64_t hdr = rom_.root(PmDataStore::kRootSlot);
  const struct {
    const char* name;
    std::uint64_t off;
    std::uint64_t value;
  } corruptions[] = {
      {"record_len", hdr + 4 * 8, data.record_bytes() + 1},
      {"rows", hdr + 1 * 8, std::uint64_t{1} << 40},
      {"records_off", hdr + 6 * 8, rom_.main_size() - 64},
  };
  for (const auto& c : corruptions) {
    const auto good = rom_.read<std::uint64_t>(c.off);
    rom_.run_transaction([&] { rom_.tx_assign(c.off, c.value); });

    Rng rng(5);
    EXPECT_THROW(data.sample_batch(8, rng, x.data(), y.data()), PmError) << c.name;
    EXPECT_THROW(data.read_record(0, x.data(), y.data()), PmError) << c.name;
    ScrubOptions opts;
    opts.scan_dataset = true;
    const ScrubReport report = scrub_arena(rom_, nullptr, nullptr, &data, opts);
    EXPECT_FALSE(report.dataset_layout_ok) << c.name;

    rom_.run_transaction([&] { rom_.tx_assign(c.off, good); });
    data.sample_batch(8, rng, x.data(), y.data());  // the repaired layout reads again
  }
}

// --- RecoveryLog --------------------------------------------------------------

TEST_F(MirrorMediaTest, RecoveryLogPersistsAndCompacts) {
  RecoveryLog log(rom_, platform_.enclave());
  EXPECT_FALSE(log.exists());
  log.create(4);
  EXPECT_TRUE(log.exists());
  EXPECT_EQ(log.capacity(), 4u);

  for (std::uint64_t i = 0; i < 6; ++i) {
    log.append({/*tier=*/2, /*resume_iteration=*/10 * i, /*replica_repairs=*/i,
                /*rungs_failed=*/1, /*flags=*/RecoveryRecord::kMirrorRebuilt});
  }
  // Capacity 4, six appends: compaction keeps the newest entries.
  ASSERT_LE(log.size(), 4u);
  const auto all = log.all();
  EXPECT_EQ(all.back().resume_iteration, 50u);
  EXPECT_EQ(all.back().flags, RecoveryRecord::kMirrorRebuilt);

  // Survives re-attach through a second Romulus handle.
  romulus::Romulus again(platform_.pm(), 0, 14 * 1024 * 1024,
                         romulus::PwbPolicy::clflushopt_sfence(), false);
  RecoveryLog reread(again, platform_.enclave());
  EXPECT_TRUE(reread.exists());
  EXPECT_EQ(reread.all().back().resume_iteration, 50u);
}

TEST_F(MirrorMediaTest, RecordLogsBoundFlippedCountWithPmError) {
  MetricsLog metrics(rom_, platform_.enclave());
  RecoveryLog recovery(rom_, platform_.enclave());
  ServeLog serve(rom_, platform_.enclave());
  metrics.create(8);
  recovery.create(8);
  serve.create(8);
  metrics.append({1, 0.5f, 0.1f});
  recovery.append({2, 1, 0, 0, 0});
  serve.append({0, 10, 10, 0, 1, 1.0f, 2.0f, 3.0f});

  // Media fault in the high bits of each log's record count (the third
  // header word): the count must be bounded before anything is read or
  // allocated over it.
  for (const int slot :
       {MetricsLog::kRootSlot, RecoveryLog::kRootSlot, ServeLog::kRootSlot}) {
    const std::uint64_t count_off = rom_.root(slot) + 2 * sizeof(std::uint64_t);
    platform_.pm().flip_bit(rom_.main_region_offset() + count_off + 7, 6);
  }
  EXPECT_THROW((void)metrics.all(), PmError);
  EXPECT_THROW((void)metrics.size(), PmError);
  EXPECT_THROW(metrics.truncate_after(0), PmError);
  EXPECT_THROW((void)recovery.all(), PmError);
  EXPECT_THROW(recovery.append({2, 1, 0, 0, 0}), PmError);
  EXPECT_THROW((void)serve.all(), PmError);
  EXPECT_THROW((void)serve.next_window(), PmError);
}

// --- attempt/completion accounting and root-slot validation -------------------

TEST_F(MirrorMediaTest, FailedSaveLeavesAttemptAheadOfCompletion) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);

  // A net whose layer list does not match the persistent layout: the save
  // starts (attempt) but throws before anything commits.
  ml::Network other = ml::build_network(ml::make_cnn_config(3, 4, 8), rng_);
  EXPECT_THROW(mirror.mirror_out(other, 1), MlError);
  EXPECT_EQ(mirror.stats().save_attempts, 1u);
  EXPECT_EQ(mirror.stats().saves, 0u);

  // A clean save closes the gap again.
  mirror.mirror_out(net_, 1);
  EXPECT_EQ(mirror.stats().save_attempts, 2u);
  EXPECT_EQ(mirror.stats().saves, 1u);
}

TEST_F(MirrorMediaTest, FailedRestoreLeavesAttemptAheadOfCompletion) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  net_.set_iterations(3);
  mirror.mirror_out(net_, 3);

  const auto extents = mirror.sealed_extents();
  ASSERT_FALSE(extents.empty());
  rot_extent(extents[0].primary_off, 64);  // unreplicated: no sibling to save it

  ml::Network other = ml::build_network(tiny_config(), rng_);
  EXPECT_THROW((void)mirror.mirror_in(other), CryptoError);
  EXPECT_EQ(mirror.stats().restore_attempts, 1u);
  EXPECT_EQ(mirror.stats().restores, 0u);
}

TEST_F(MirrorMediaTest, CorruptRootSlotOffsetSurfacesPmErrorNotOob) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  EXPECT_TRUE(mirror.exists());

  // Media fault lands the root slot far outside the main region: every
  // root-following entry point reports a contextual PmError instead of
  // reading out of bounds.
  const std::uint64_t bad = rom_.main_size() + (1u << 20);
  rom_.run_transaction([&] { rom_.set_root(MirrorModel::kRootSlot, bad); });
  try {
    (void)mirror.exists();
    FAIL() << "corrupt root slot did not throw";
  } catch (const PmError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
    EXPECT_NE(what.find("exceeds main size"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(rom_.main_size())), std::string::npos) << what;
  }

  // A root slot whose header would straddle the end of the region is just as
  // dead — the full sizeof(Header) extent must fit, not only the magic word.
  rom_.run_transaction([&] {
    rom_.set_root(MirrorModel::kRootSlot, rom_.main_size() - 4);
  });
  EXPECT_THROW((void)mirror.exists(), PmError);
  EXPECT_THROW((void)mirror.iteration(), PmError);
}

// On-PM layout of the mirror header and layer nodes (plinius/mirror.h),
// decoded here so a test can corrupt one field at a time.
struct PmMirrorHeader {
  std::uint64_t magic, iteration, num_layers, head, replicated;
};
struct PmMirrorNode {
  std::uint64_t next;
  std::uint64_t num_buffers;
  std::uint64_t buf_off[MirrorModel::kMaxBuffersPerLayer];
  std::uint64_t buf_sealed_len[MirrorModel::kMaxBuffersPerLayer];
  std::uint64_t buf_replica_off[MirrorModel::kMaxBuffersPerLayer];
};

TEST_F(MirrorMediaTest, CorruptLayerListFailsClosedAtEveryEntryPoint) {
  // Each corruption runs against every entry point that walks the layer
  // list, on a fresh region. Entry points that take a net compare the list
  // against it (MlError on a count mismatch); the others bound it by the
  // region (PmError). Only verify_integrity and scrub reject a list longer
  // than the model. Anything else — a generic Error, a foreign exception, a
  // hang — fails the test.
  struct Corruption {
    const char* name;
    // Stores the corrupt value through a transaction (both twins agree, so
    // nothing downstream can repair it from the back copy).
    std::function<void(romulus::Romulus&, std::uint64_t hdr,
                       const std::vector<std::uint64_t>& nodes)>
        apply;
    const char* with_net;
    const char* without_net;
    const char* list_length_check;  // verify_integrity and scrub
  };
  const auto assign = [](romulus::Romulus& rom, std::uint64_t off, std::uint64_t value) {
    rom.run_transaction([&] { rom.tx_assign(off, value); });
  };
  const std::vector<Corruption> corruptions = {
      {"last next points to itself",
       [&](auto& rom, auto, const auto& nodes) {
         assign(rom, nodes.back() + offsetof(PmMirrorNode, next), nodes.back());
       },
       "ok", "ok", "PmError"},
      {"mid-list next is 0",
       [&](auto& rom, auto, const auto& nodes) {
         assign(rom, nodes[1] + offsetof(PmMirrorNode, next), 0);
       },
       "PmError", "PmError", "PmError"},
      {"next out of range",
       [&](auto& rom, auto, const auto& nodes) {
         assign(rom, nodes[0] + offsetof(PmMirrorNode, next), rom.main_size() + 4096);
       },
       "PmError", "PmError", "PmError"},
      {"num_buffers = 9",
       [&](auto& rom, auto, const auto& nodes) {
         assign(rom, nodes[0] + offsetof(PmMirrorNode, num_buffers), 9);
       },
       "MlError", "PmError", "MlError"},
      {"buffer extent past the end",
       [&](auto& rom, auto, const auto& nodes) {
         assign(rom, nodes[0] + offsetof(PmMirrorNode, buf_off), rom.main_size() - 8);
       },
       "PmError", "PmError", "PmError"},
      {"num_layers = 2^40",
       [&](auto& rom, auto hdr, const auto&) {
         assign(rom, hdr + offsetof(PmMirrorHeader, num_layers), std::uint64_t{1} << 40);
       },
       "MlError", "PmError", "MlError"},
  };

  struct EntryPoint {
    const char* name;
    bool takes_net;
    bool checks_list_length;
    std::function<void(MirrorModel&)> run;
  };
  const std::vector<EntryPoint> entry_points = {
      {"mirror_out", true, false, [&](MirrorModel& m) { m.mirror_out(net_, 3); }},
      {"mirror_in", true, false, [&](MirrorModel& m) { (void)m.mirror_in(net_); }},
      {"mirror_in_snapshot", true, false,
       [&](MirrorModel& m) { (void)m.mirror_in_snapshot(net_); }},
      {"begin_async_save", true, false,
       [&](MirrorModel& m) {
         sgx::ChargeStream stream = platform_.enclave().open_stream(1);
         m.begin_async_save(net_, 3, stream);
         m.abandon_async_save();
       }},
      {"verify_integrity", true, true,
       [&](MirrorModel& m) { (void)m.verify_integrity(net_); }},
      {"scrub", true, true, [&](MirrorModel& m) { (void)m.scrub(net_); }},
      {"dispose", false, false, [](MirrorModel& m) { m.dispose(); }},
      {"sealed_extents", false, false, [](MirrorModel& m) { (void)m.sealed_extents(); }},
      {"encryption_metadata_bytes", false, false,
       [](MirrorModel& m) { (void)m.encryption_metadata_bytes(); }},
  };

  // A small region past the fixture's, reformatted for every case.
  const std::size_t region_off = romulus::Romulus::region_bytes(rom_.main_size());
  ASSERT_GT(net_.num_layers(), 2u);
  for (const Corruption& c : corruptions) {
    for (const EntryPoint& ep : entry_points) {
      romulus::Romulus rom(platform_.pm(), region_off, 1024 * 1024,
                           romulus::PwbPolicy::clflushopt_sfence(), /*format=*/true);
      MirrorModel mirror(rom, platform_.enclave(), test_gcm(), MirrorOptions{true});
      mirror.alloc(net_);
      mirror.mirror_out(net_, 2);

      const std::uint64_t hdr = rom.root(MirrorModel::kRootSlot);
      std::vector<std::uint64_t> nodes;
      for (std::uint64_t off = rom.read<PmMirrorHeader>(hdr).head; off != 0;
           off = rom.read<PmMirrorNode>(off).next) {
        nodes.push_back(off);
      }
      ASSERT_EQ(nodes.size(), net_.num_layers());
      c.apply(rom, hdr, nodes);

      std::string got = "ok";
      try {
        ep.run(mirror);
      } catch (const PmError&) {
        got = "PmError";
      } catch (const MlError&) {
        got = "MlError";
      } catch (const std::exception& e) {
        got = std::string("unexpected exception: ") + e.what();
      }
      const char* want = ep.checks_list_length ? c.list_length_check
                         : ep.takes_net        ? c.with_net
                                               : c.without_net;
      EXPECT_EQ(got, want) << c.name << " / " << ep.name;
    }
  }
}

TEST_F(MirrorMediaTest, CheckpointRestoreFailureLeavesAttemptAheadOfCompletion) {
  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());
  EXPECT_THROW((void)ckpt.restore(net_), StorageError);  // nothing saved yet
  EXPECT_EQ(ckpt.stats().restore_attempts, 1u);
  EXPECT_EQ(ckpt.stats().restores, 0u);

  ckpt.save(net_);
  EXPECT_EQ(ckpt.stats().save_attempts, 1u);
  EXPECT_EQ(ckpt.stats().saves, 1u);
  EXPECT_EQ(ckpt.restore(net_), net_.iterations());
  EXPECT_EQ(ckpt.stats().restore_attempts, 2u);
  EXPECT_EQ(ckpt.stats().restores, 1u);
}

TEST_F(MirrorMediaTest, StatsBridgePublishesAttemptAndPipelineSeries) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  sgx::ChargeStream stream = platform_.enclave().open_stream(1);
  mirror.begin_async_save(net_, 1, stream);
  ASSERT_TRUE(mirror.complete_async_save(stream));

  obs::Registry reg;
  obs::publish(reg, mirror.stats(), {});
  EXPECT_EQ(reg.counter("mirror.save_attempts"), 1u);
  EXPECT_EQ(reg.counter("mirror.saves"), 1u);
  EXPECT_EQ(reg.counter("mirror.async_saves"), 1u);
  EXPECT_EQ(reg.counter("mirror.restore_attempts"), 0u);
  EXPECT_GE(reg.gauge("mirror.encrypt_ns"), 0.0);
  EXPECT_GE(reg.gauge("mirror.pipeline_stall_ns"), 0.0);

  obs::publish(reg, platform_.enclave().stats(), {});
  EXPECT_EQ(reg.counter("enclave.stream_submits"), 1u);

  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());
  ckpt.save(net_);
  obs::publish(reg, ckpt.stats(), {});
  EXPECT_EQ(reg.counter("checkpoint.save_attempts"), 1u);
  EXPECT_EQ(reg.counter("checkpoint.restore_attempts"), 0u);
}

}  // namespace
}  // namespace plinius
