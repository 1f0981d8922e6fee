// Seeded chaos harness for the recovery ladder: sweeps media-corruption
// targets (mirror copies, Romulus metadata, the data region, the back twin)
// × fault kinds (bit flips, torn lines, poisoned lines) × seeds × optional
// power failure, and asserts for every scenario that (a) training always
// comes back up and completes — zero unhandled throws — and (b) the ladder
// reports exactly the expected recovery tier. Distributed scenarios cover
// the bottom-most rung: peer re-provisioning over the attested channel,
// including lossy channels and exhausted retry budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "pm/device.h"
#include "plinius/fleet/fleet.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"

namespace plinius {
namespace {

ml::Dataset tiny_dataset(std::size_t rows = 32) {
  ml::SynthDigitsOptions opt;
  opt.train_count = rows;
  opt.test_count = 1;
  return make_synth_digits(opt).train;
}

ml::ModelConfig tiny_config() { return ml::make_cnn_config(2, 4, 8); }

TrainerOptions chaos_options(bool ssd_rung) {
  TrainerOptions opt;
  opt.replicate_mirror = true;
  opt.data_policy = CorruptRecordPolicy::kResample;
  opt.metrics_capacity = 64;
  opt.recovery_log_capacity = 8;
  opt.ssd_checkpoint_every = ssd_rung ? 2 : 0;
  return opt;
}

enum class Kind { kFlip, kTorn, kPoison };
enum class Target {
  kCleanCrash,     // power failure only: resume from the mirror as-is
  kMirrorPrimary,  // A copy rotten -> in-band B-sibling recovery
  kMirrorReplica,  // B copy rotten -> clean resume; scrub repairs it
  kMirrorBoth,     // A and B rotten in main -> back-twin restore
  kMirrorDeep,     // A and B rotten in main AND back -> SSD / fresh rung
  kAllocMeta,      // allocator metadata rotten -> twin restore, then mirror
  kHeader,         // region header rotten -> reformat + SSD / fresh rung
  kBackRegion,     // back twin rotten -> clean resume; scrub resyncs twins
  kDataRecords,    // sealed dataset records rotten -> resample policy
};

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kFlip: return "flip";
    case Kind::kTorn: return "torn";
    case Kind::kPoison: return "poison";
  }
  return "?";
}

const char* to_string(Target t) {
  switch (t) {
    case Target::kCleanCrash: return "clean-crash";
    case Target::kMirrorPrimary: return "mirror-primary";
    case Target::kMirrorReplica: return "mirror-replica";
    case Target::kMirrorBoth: return "mirror-both";
    case Target::kMirrorDeep: return "mirror-deep";
    case Target::kAllocMeta: return "alloc-meta";
    case Target::kHeader: return "header";
    case Target::kBackRegion: return "back-region";
    case Target::kDataRecords: return "data-records";
  }
  return "?";
}

/// Applies one media fault of `kind` guaranteed to damage device extent
/// [off, off+len). Torn lines only garble the second half of a line, so a
/// target confined to a first half falls back to a bit flip; poison prefers
/// a line fully inside the extent so neighbouring allocator block headers
/// stay intact (their corruption is the kAllocMeta scenario's job).
void corrupt(pm::PmDevice& dev, std::size_t off, std::size_t len, Kind kind,
             std::uint64_t seed) {
  Rng rng(seed * 7919 + off);
  switch (kind) {
    case Kind::kFlip: {
      const std::size_t step = std::max<std::size_t>(16, len / 4);
      for (std::size_t i = 0; i < len; i += step) {
        dev.flip_bit(off + i, static_cast<unsigned>(rng.below(8)));
      }
      return;
    }
    case Kind::kTorn: {
      // A line fully inside the extent keeps the damage (the line's second
      // half) off the neighbouring allocator block header.
      const std::size_t interior = off / pm::kCacheLine + 1;
      if ((interior + 1) * pm::kCacheLine <= off + len) {
        dev.tear_line(interior, rng.next());
      } else {
        dev.flip_bit(off, 1);
      }
      return;
    }
    case Kind::kPoison: {
      const std::size_t interior = off / pm::kCacheLine + 1;
      if ((interior + 1) * pm::kCacheLine <= off + len) {
        dev.poison_line(interior, rng.next());
      } else {
        dev.poison_line(off / pm::kCacheLine, rng.next());
      }
      return;
    }
  }
}

// Power-failure mode, applied before the media faults. Process death must
// always be a power cut here: the device's volatile image models the CPU
// cache + DRAM view, and a still-cached line masks media rot until
// eviction — without the cut, a fault under the (pending) header line
// would be invisible to the next attach. The two deterministic extremes
// pin both outcomes of the commit protocol's one unfenced store (the final
// IDLE state write): kPersistAll behaves like a clean ADR-drained
// shutdown, while kDropAll leaves the header in COPYING, so attach-time
// recovery redoes the main->back copy — and thereby propagates main-side
// media rot into the back twin before any scrubber can use it.
enum class Crash { kPersistAll, kDropAll };

const char* to_string(Crash c) {
  switch (c) {
    case Crash::kPersistAll: return "crash-persist";
    case Crash::kDropAll: return "crash-drop";
  }
  return "?";
}

struct Scenario {
  Target target;
  Kind kind;
  bool ssd_rung;
  Crash crash;
  std::uint64_t seed;

  [[nodiscard]] std::string describe() const {
    return std::string(to_string(target)) + "/" + to_string(kind) +
           (ssd_rung ? "/ssd" : "/nossd") + "/" + to_string(crash) + "/seed" +
           std::to_string(seed);
  }
};

RecoveryTier expected_tier(const Scenario& s) {
  // After a kDropAll crash the attach-time COPYING recovery clones the
  // corrupt main over the back twin, demoting twin-dependent repairs.
  const bool twin_lost = s.crash == Crash::kDropAll;
  switch (s.target) {
    case Target::kCleanCrash:
    case Target::kMirrorReplica:
    case Target::kBackRegion:
    case Target::kDataRecords:
      return RecoveryTier::kMirror;
    case Target::kMirrorPrimary:
    case Target::kAllocMeta:
      return RecoveryTier::kReplica;
    case Target::kMirrorBoth:
      if (twin_lost) {
        return s.ssd_rung ? RecoveryTier::kSsdCheckpoint : RecoveryTier::kFreshStart;
      }
      return RecoveryTier::kReplica;
    case Target::kMirrorDeep:
    case Target::kHeader:
      return s.ssd_rung ? RecoveryTier::kSsdCheckpoint : RecoveryTier::kFreshStart;
  }
  return RecoveryTier::kNone;
}

/// One full chaos scenario: train, die, rot the media, resurrect, assert
/// the ladder tier, train to completion.
void run_scenario(const Scenario& s) {
  constexpr std::uint64_t kPhase1Iters = 3;
  constexpr std::uint64_t kPhase2Iters = 5;

  Platform platform(MachineProfile::emlsgx_pm(), 24 * 1024 * 1024);
  const auto data = tiny_dataset();
  const auto config = tiny_config();
  const auto options = chaos_options(s.ssd_rung);

  // Phase 1: healthy training, then process death. Capture the PM layout
  // (device coordinates) before the trainer goes away.
  std::vector<MirrorModel::SealedExtent> extents;
  std::size_t main_dev = 0;
  std::size_t back_dev = 0;
  std::uint64_t records_off = 0;
  std::size_t record_len = 0;
  std::size_t rows = 0;
  std::size_t alloc_meta = romulus::Romulus::alloc_meta_offset();
  {
    Trainer t(platform, config, options);
    t.load_dataset(data);
    t.train(kPhase1Iters);
    extents = t.mirror().sealed_extents();
    main_dev = t.romulus().main_region_offset();
    back_dev = t.romulus().back_region_offset();
    records_off = t.data().records_offset();
    record_len = t.data().record_bytes();
    rows = t.data().rows();
  }
  ASSERT_FALSE(extents.empty());
  // The largest sealed buffer (a weight tensor) — big enough that every
  // fault kind can land strictly inside it.
  const auto big = *std::max_element(
      extents.begin(), extents.end(),
      [](const auto& a, const auto& b) { return a.sealed_len < b.sealed_len; });
  ASSERT_GE(big.sealed_len, 2 * pm::kCacheLine);
  ASSERT_NE(big.replica_off, 0u);

  auto& dev = platform.pm();
  dev.crash(s.crash == Crash::kPersistAll ? pm::PmDevice::CrashOutcome::kPersistAll
                                          : pm::PmDevice::CrashOutcome::kDropAll);

  // Inject the scenario's media faults.
  switch (s.target) {
    case Target::kCleanCrash:
      break;
    case Target::kMirrorPrimary:
      corrupt(dev, main_dev + big.primary_off, big.sealed_len, s.kind, s.seed);
      break;
    case Target::kMirrorReplica:
      corrupt(dev, main_dev + big.replica_off, big.sealed_len, s.kind, s.seed);
      break;
    case Target::kMirrorBoth:
      corrupt(dev, main_dev + big.primary_off, big.sealed_len, s.kind, s.seed);
      corrupt(dev, main_dev + big.replica_off, big.sealed_len, s.kind, s.seed + 1);
      break;
    case Target::kMirrorDeep:
      corrupt(dev, main_dev + big.primary_off, big.sealed_len, s.kind, s.seed);
      corrupt(dev, main_dev + big.replica_off, big.sealed_len, s.kind, s.seed + 1);
      corrupt(dev, back_dev + big.primary_off, big.sealed_len, s.kind, s.seed + 2);
      corrupt(dev, back_dev + big.replica_off, big.sealed_len, s.kind, s.seed + 3);
      break;
    case Target::kAllocMeta:
      corrupt(dev, main_dev + alloc_meta, 24, s.kind, s.seed);
      break;
    case Target::kHeader:
      corrupt(dev, 0, 24, s.kind, s.seed);
      break;
    case Target::kBackRegion:
      corrupt(dev, back_dev + big.primary_off, big.sealed_len, s.kind, s.seed);
      break;
    case Target::kDataRecords:
      for (std::size_t r = 0; r < rows; r += 3) {
        corrupt(dev, main_dev + records_off + r * record_len, record_len, s.kind,
                s.seed + r);
      }
      break;
  }

  // Phase 2: resurrect. The ladder must land on the expected tier and
  // training must run to completion without a single escaped throw.
  Trainer t(platform, config, options);
  t.load_dataset(data);
  const std::uint64_t resumed = t.resume_or_init();
  const RecoveryReport rep = t.last_recovery();

  std::string rungs;
  for (const auto& r : rep.rungs_failed) rungs += "\n  rung failed: " + r;
  EXPECT_EQ(rep.tier, expected_tier(s))
      << "ladder landed on tier '" << to_string(rep.tier) << "'" << rungs;
  EXPECT_EQ(rep.resume_iteration, resumed);
  switch (s.target) {
    case Target::kMirrorPrimary:
      EXPECT_GE(rep.replica_repairs, 1u);
      break;
    case Target::kMirrorReplica: {
      // Resume never touched the rotten sibling; the scrubber must find and
      // repair it from the healthy primary.
      const ScrubReport scrubbed = t.scrub();
      EXPECT_GE(scrubbed.mirror.repaired, 1u);
      EXPECT_TRUE(scrubbed.healthy());
      break;
    }
    case Target::kBackRegion: {
      const ScrubReport scrubbed = t.scrub();
      // A kDropAll crash already resynced the twins at attach (the COPYING
      // recovery overwrote the rotten back copy); otherwise the scrubber
      // must do it.
      if (s.crash != Crash::kDropAll) {
        EXPECT_TRUE(scrubbed.twins_resynced);
      }
      EXPECT_TRUE(scrubbed.healthy());
      EXPECT_EQ(t.romulus().twin_divergence(), 0u);
      break;
    }
    case Target::kDataRecords: {
      ScrubOptions scan;
      scan.scan_dataset = true;
      EXPECT_FALSE(t.scrub(scan).corrupt_records.empty());
      break;
    }
    case Target::kHeader:
      EXPECT_TRUE(rep.region_reformatted);
      EXPECT_TRUE(rep.dataset_lost);
      break;
    case Target::kAllocMeta:
      // With the twin intact the metadata heals in place; once the rot is in
      // both twins, salvaging the weights must rebuild the region.
      EXPECT_EQ(rep.region_reformatted, s.crash == Crash::kDropAll);
      break;
    default:
      break;
  }
  if (rep.tier == RecoveryTier::kSsdCheckpoint) {
    EXPECT_EQ(resumed, kPhase1Iters);
  }
  if (rep.tier == RecoveryTier::kFreshStart) {
    EXPECT_EQ(resumed, 0u);
  }
  if (rep.tier == RecoveryTier::kMirror || rep.tier == RecoveryTier::kReplica) {
    EXPECT_EQ(resumed, kPhase1Iters);
  }

  // Every recovery episode is in the persistent log (the header scenario
  // reformats the region, so its log restarts with exactly this episode).
  ASSERT_TRUE(t.recovery_log().exists());
  ASSERT_GE(t.recovery_log().size(), 1u);
  const RecoveryRecord logged = t.recovery_log().all().back();
  EXPECT_EQ(logged.tier, static_cast<std::uint64_t>(rep.tier));
  EXPECT_EQ(logged.resume_iteration, rep.resume_iteration);
  EXPECT_EQ(logged.flags, rep.flags());

  t.train(kPhase2Iters);
  EXPECT_EQ(t.network().iterations(), kPhase2Iters);
  t.verify_persistent_state();
}

TEST(ChaosRecovery, SweepCorruptionByCrashGrid) {
  const Target targets[] = {
      Target::kCleanCrash,  Target::kMirrorPrimary, Target::kMirrorReplica,
      Target::kMirrorBoth,  Target::kMirrorDeep,    Target::kAllocMeta,
      Target::kHeader,      Target::kBackRegion,    Target::kDataRecords,
  };
  const Kind kinds[] = {Kind::kFlip, Kind::kTorn, Kind::kPoison};

  const Crash crashes[] = {Crash::kPersistAll, Crash::kDropAll};

  std::vector<Scenario> scenarios;
  for (const Target target : targets) {
    for (const Kind kind : kinds) {
      for (const bool ssd_rung : {false, true}) {
        for (const Crash crash : crashes) {
          for (int rep = 0; rep < 3; ++rep) {
            const auto n = static_cast<std::uint64_t>(scenarios.size());
            scenarios.push_back({target, kind, ssd_rung, crash, 0xC0FFEE + 31 * n});
          }
        }
      }
    }
  }
  ASSERT_GE(scenarios.size(), 200u)
      << "acceptance: the chaos sweep must cover at least 200 seeded scenarios";

  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.describe());
    ASSERT_NO_FATAL_FAILURE(run_scenario(s));
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping the sweep at the first failing scenario: "
             << s.describe();
    }
  }
}

// --- distributed rung: re-provisioning from a healthy peer --------------------

class ChaosDistributed : public ::testing::Test {
 protected:
  fleet::FleetOptions cluster_options(double loss, bool provision = true) {
    fleet::FleetOptions opt;
    opt.workers = 3;
    opt.sync_every = 2;
    opt.trainer = chaos_options(/*ssd_rung=*/false);
    opt.peer_provision = provision;
    opt.link.loss_rate = loss;
    opt.link.retries = 8;
    return opt;
  }

  /// Kills worker 0 and rots its region header so its local ladder bottoms
  /// out in a fresh start (region reformat, all local state gone).
  static void obliterate_worker0(fleet::ElasticTrainer& cluster) {
    auto& dev = cluster.trainer(0).platform().pm();
    cluster.kill_worker(0);
    dev.flip_bit(1, 4);
    dev.flip_bit(5, 2);
  }
};

TEST_F(ChaosDistributed, LadderBottomPullsParametersFromPeer) {
  fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), 48u << 20, tiny_config(),
                                cluster_options(/*loss=*/0.0));
  cluster.load_dataset(tiny_dataset(48));
  cluster.train(4);
  obliterate_worker0(cluster);
  cluster.train(8);

  EXPECT_EQ(cluster.stats().peer_provisions, 1u);
  EXPECT_EQ(cluster.stats().peer_provision_failures, 0u);
  EXPECT_EQ(cluster.trainer(0).last_recovery().tier, RecoveryTier::kPeer);
  EXPECT_EQ(cluster.network(0).iterations(), 8u);
}

TEST_F(ChaosDistributed, LossyChannelRetriesWithBackoff) {
  fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), 48u << 20, tiny_config(),
                                cluster_options(/*loss=*/0.9));
  cluster.load_dataset(tiny_dataset(48));
  cluster.train(4);
  obliterate_worker0(cluster);
  cluster.train(8);

  // Seeded channel: the retry/backoff path must actually run, and the
  // episode must end either delivered or accounted as a failure — never an
  // escaped throw.
  EXPECT_GT(cluster.stats().peer_retries, 0u);
  EXPECT_EQ(cluster.stats().peer_provisions + cluster.stats().peer_provision_failures,
            1u);
  EXPECT_EQ(cluster.network(0).iterations(), 8u);
}

TEST_F(ChaosDistributed, DeadChannelExhaustsRetriesAndKeepsFreshStart) {
  fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), 48u << 20, tiny_config(),
                                cluster_options(/*loss=*/1.0));
  cluster.load_dataset(tiny_dataset(48));
  cluster.train(4);
  obliterate_worker0(cluster);
  cluster.train(8);

  EXPECT_EQ(cluster.stats().peer_provisions, 0u);
  EXPECT_EQ(cluster.stats().peer_provision_failures, 1u);
  // Initial attempt + 8 retries, all dropped by the dead channel.
  EXPECT_EQ(cluster.stats().peer_retries, 9u);
  EXPECT_EQ(cluster.trainer(0).last_recovery().tier, RecoveryTier::kFreshStart);
  // The worker still completes training — it catches up at averaging rounds.
  EXPECT_EQ(cluster.network(0).iterations(), 8u);
}

TEST_F(ChaosDistributed, ProvisioningDisabledKeepsFreshStart) {
  fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), 48u << 20, tiny_config(),
                                cluster_options(/*loss=*/0.0, /*provision=*/false));
  cluster.load_dataset(tiny_dataset(48));
  cluster.train(4);
  obliterate_worker0(cluster);
  cluster.train(8);

  EXPECT_EQ(cluster.stats().peer_provisions, 0u);
  EXPECT_EQ(cluster.trainer(0).last_recovery().tier, RecoveryTier::kFreshStart);
  EXPECT_EQ(cluster.network(0).iterations(), 8u);
}

}  // namespace
}  // namespace plinius
