// MetricsLog unit tests + end-to-end fault-injection sweeps over the
// Trainer: whatever iteration the process dies at, the restored state must
// be consistent (mirror iteration == model iteration == metrics tail).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/metrics_log.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"

namespace plinius {
namespace {

class MetricsLogTest : public ::testing::Test {
 protected:
  MetricsLogTest()
      : platform_(MachineProfile::emlsgx_pm(), 8 * 1024 * 1024),
        rom_(platform_.pm(), 0, 3 * 1024 * 1024,
             romulus::PwbPolicy::clflushopt_sfence(), true),
        log_(rom_) {}

  Platform platform_;
  romulus::Romulus rom_;
  MetricsLog log_;
};

TEST_F(MetricsLogTest, CreateAppendRead) {
  EXPECT_FALSE(log_.exists());
  EXPECT_THROW((void)log_.size(), Error);
  log_.create(100);
  EXPECT_TRUE(log_.exists());
  EXPECT_THROW(log_.create(100), PmError);
  EXPECT_EQ(log_.size(), 0u);
  EXPECT_EQ(log_.capacity(), 100u);

  log_.append({1, 2.5f, 0.1f});
  log_.append({2, 2.0f, 0.1f});
  EXPECT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_.at(0).iteration, 1u);
  EXPECT_FLOAT_EQ(log_.at(1).loss, 2.0f);
  EXPECT_THROW((void)log_.at(2), PmError);
  EXPECT_EQ(log_.all().size(), 2u);
}

TEST_F(MetricsLogTest, FullLogThrows) {
  log_.create(2);
  log_.append({1, 1.0f, 0.1f});
  log_.append({2, 1.0f, 0.1f});
  EXPECT_THROW(log_.append({3, 1.0f, 0.1f}), PmError);
}

TEST_F(MetricsLogTest, TruncateAfterDropsStaleTail) {
  log_.create(10);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    log_.append({i, static_cast<float>(i), 0.1f});
  }
  log_.truncate_after(4);
  EXPECT_EQ(log_.size(), 4u);
  EXPECT_EQ(log_.at(3).iteration, 4u);
  log_.truncate_after(100);  // no-op
  EXPECT_EQ(log_.size(), 4u);
  log_.truncate_after(0);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(MetricsLogTest, EntriesSurviveCrash) {
  log_.create(10);
  log_.append({1, 3.5f, 0.1f});
  log_.append({2, 3.0f, 0.1f});
  platform_.pm().crash();

  romulus::Romulus recovered(platform_.pm(), 0, 3 * 1024 * 1024,
                             romulus::PwbPolicy::clflushopt_sfence());
  MetricsLog log2(recovered);
  ASSERT_TRUE(log2.exists());
  EXPECT_EQ(log2.size(), 2u);
  EXPECT_FLOAT_EQ(log2.at(0).loss, 3.5f);
}

TEST_F(MetricsLogTest, AppendIsAtomicUnderCrash) {
  log_.create(10);
  log_.append({1, 1.0f, 0.1f});
  // Crash with an append's transaction abandoned mid-way.
  rom_.begin_transaction();
  const MetricsEntry e{2, 9.0f, 0.1f};
  rom_.tx_store(64 * 1024, &e, sizeof(e));  // somewhere in the heap
  rom_.abandon_transaction();
  platform_.pm().crash();

  romulus::Romulus recovered(platform_.pm(), 0, 3 * 1024 * 1024,
                             romulus::PwbPolicy::clflushopt_sfence());
  MetricsLog log2(recovered);
  EXPECT_EQ(log2.size(), 1u);  // the torn append is invisible
}

// --- Trainer fault-injection sweep ----------------------------------------------

class TrainerCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrainerCrashSweep, ResumesConsistentlyFromAnyCrashPoint) {
  const std::uint64_t crash_iter = GetParam();
  Platform platform(MachineProfile::emlsgx_pm(), 48 * 1024 * 1024);
  const auto config = ml::make_cnn_config(2, 4, 8);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 64;
  dopt.test_count = 1;
  const auto data = ml::make_synth_digits(dopt).train;

  {
    Trainer trainer(platform, config, TrainerOptions{});
    trainer.load_dataset(data);
    try {
      trainer.train(24, [&](std::uint64_t iter, float) {
        if (iter == crash_iter) throw SimulatedCrash("sweep");
      });
    } catch (const SimulatedCrash&) {
    }
  }
  platform.pm().crash();

  Trainer resumed(platform, config, TrainerOptions{});
  resumed.load_dataset(data);
  const std::uint64_t resume_iter = resumed.resume_or_init();
  // Mirroring every iteration: resume exactly at the crash point.
  EXPECT_EQ(resume_iter, crash_iter);
  EXPECT_EQ(resumed.network().iterations(), crash_iter);

  // Metrics log tail must agree with the mirror.
  auto& log = resumed.metrics();
  ASSERT_TRUE(log.exists());
  EXPECT_EQ(log.size(), crash_iter);
  if (crash_iter > 0) {
    EXPECT_EQ(log.at(crash_iter - 1).iteration, crash_iter);
  }

  const float final_loss = resumed.train(24);
  EXPECT_TRUE(std::isfinite(final_loss));
  EXPECT_EQ(resumed.network().iterations(), 24u);
  EXPECT_EQ(resumed.metrics().size(), 24u);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, TrainerCrashSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 23));

TEST(TrainerMetrics, DisabledWhenCapacityZero) {
  Platform platform(MachineProfile::emlsgx_pm(), 48 * 1024 * 1024);
  TrainerOptions opt;
  opt.metrics_capacity = 0;
  Trainer trainer(platform, ml::make_cnn_config(2, 4, 8), opt);
  EXPECT_THROW((void)trainer.metrics(), Error);
}

TEST(TrainerMetrics, LogMatchesLossHistory) {
  Platform platform(MachineProfile::emlsgx_pm(), 48 * 1024 * 1024);
  Trainer trainer(platform, ml::make_cnn_config(2, 4, 8), TrainerOptions{});
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 64;
  dopt.test_count = 1;
  trainer.load_dataset(ml::make_synth_digits(dopt).train);
  (void)trainer.train(10);

  const auto entries = trainer.metrics().all();
  ASSERT_EQ(entries.size(), 10u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].iteration, i + 1);
    EXPECT_FLOAT_EQ(entries[i].loss, trainer.loss_history()[i]);
    EXPECT_GT(entries[i].learning_rate, 0.0f);
  }
}

// Crash injected *inside* mirror-out at the device level: the mirror must
// recover to the previous iteration, never a torn state.
TEST(TrainerMirrorCrash, DeviceCrashDuringMirrorOutRecovers) {
  Platform platform(MachineProfile::emlsgx_pm(), 48 * 1024 * 1024);
  const auto config = ml::make_cnn_config(2, 4, 8);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 64;
  dopt.test_count = 1;
  const auto data = ml::make_synth_digits(dopt).train;

  {
    Trainer trainer(platform, config, TrainerOptions{});
    trainer.load_dataset(data);
    (void)trainer.train(5);
    // Open a transaction that mutates the mirror area and abandon it
    // (process dies mid-mirror-out, after some PWBs landed).
    auto& rom = trainer.romulus();
    rom.begin_transaction();
    rom.tx_assign(rom.root(MirrorModel::kRootSlot) + 8, std::uint64_t{6});
    rom.abandon_transaction();
  }
  platform.pm().crash();

  Trainer resumed(platform, config, TrainerOptions{});
  resumed.load_dataset(data);
  EXPECT_EQ(resumed.resume_or_init(), 5u);  // the torn iter=6 rolled back
}

}  // namespace
}  // namespace plinius
