// Double-buffered pipelined mirroring: the async ChargeStream substrate,
// the begin/complete async save split, result identity with the serial
// path, overlap provability from span rollups, the attempt/completion
// counter contract, and crash recovery over the in-flight-seal window.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "ml/config.h"
#include "ml/serialize.h"
#include "ml/synth_digits.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "sgx/enclave.h"

namespace plinius {
namespace {

ml::Dataset tiny_dataset(std::size_t rows = 64) {
  ml::SynthDigitsOptions opt;
  opt.train_count = rows;
  opt.test_count = 1;
  return make_synth_digits(opt).train;
}

ml::ModelConfig tiny_config() { return ml::make_cnn_config(2, 4, 8); }

// --- ChargeStream ------------------------------------------------------------

class ChargeStreamTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPmBytes = 8 * 1024 * 1024;
};

TEST_F(ChargeStreamTest, OpenStreamTracksBackgroundLanesAndReleasesOnDestruction) {
  Platform p(MachineProfile::emlsgx_pm(), kPmBytes);
  auto& enclave = p.enclave();
  enclave.set_tcs_count(4);
  EXPECT_EQ(enclave.background_lanes(), 0u);
  {
    const sgx::ChargeStream stream = enclave.open_stream(2);
    EXPECT_EQ(stream.lanes(), 2u);
    EXPECT_EQ(enclave.background_lanes(), 2u);
    // Background lanes are additional contexts — the foreground pool is
    // untouched.
    EXPECT_EQ(enclave.tcs_count(), 4u);
  }
  EXPECT_EQ(enclave.background_lanes(), 0u);
}

TEST_F(ChargeStreamTest, ZeroLaneRequestClampsToOne) {
  Platform p(MachineProfile::emlsgx_pm(), kPmBytes);
  const sgx::ChargeStream stream = p.enclave().open_stream(0);
  EXPECT_EQ(stream.lanes(), 1u);
  EXPECT_EQ(p.enclave().background_lanes(), 1u);
}

TEST_F(ChargeStreamTest, SingleTcsEnclaveStillOverlapsOnItsSealLane) {
  Platform p(MachineProfile::emlsgx_pm(), kPmBytes);
  auto& enclave = p.enclave();  // tcs_count == 1 by default
  sgx::ChargeStream stream = enclave.open_stream(1);

  const sim::Nanos costs[] = {1000.0, 2000.0};
  const sim::Nanos t0 = p.clock().now();
  const auto window = stream.submit(costs);
  // The seal lane is a dedicated extra context: nothing lands on the
  // foreground clock until a join.
  EXPECT_DOUBLE_EQ(p.clock().now(), t0);
  EXPECT_DOUBLE_EQ(window.duration(), 3000.0);  // one lane: serial sum
  EXPECT_DOUBLE_EQ(stream.join(), 3000.0);
  EXPECT_DOUBLE_EQ(p.clock().now() - t0, 3000.0);
}

TEST_F(ChargeStreamTest, SubmitBooksWithoutAdvancingAndJoinChargesOnlyStall) {
  Platform p(MachineProfile::emlsgx_pm(), kPmBytes);
  auto& enclave = p.enclave();
  enclave.set_tcs_count(3);
  sgx::ChargeStream stream = enclave.open_stream(2);

  const sim::Nanos costs[] = {4000.0, 4000.0};  // 2 lanes -> 4000 critical path
  const sim::Nanos t0 = p.clock().now();
  const auto window = stream.submit(costs);
  EXPECT_DOUBLE_EQ(p.clock().now(), t0);  // no foreground charge
  EXPECT_DOUBLE_EQ(window.begin, t0);
  EXPECT_DOUBLE_EQ(window.end, t0 + 4000.0);
  EXPECT_TRUE(stream.busy());

  // Foreground compute hides part of the seal; join pays the remainder.
  p.clock().advance(1500.0);
  EXPECT_DOUBLE_EQ(stream.join(), 2500.0);
  EXPECT_DOUBLE_EQ(p.clock().now(), t0 + 4000.0);
  EXPECT_FALSE(stream.busy());
  // Fully hidden work stalls zero.
  EXPECT_DOUBLE_EQ(stream.join(), 0.0);
  EXPECT_EQ(enclave.stats().stream_submits, 1u);
}

TEST_F(ChargeStreamTest, SubmissionsQueueAfterPendingWork) {
  Platform p(MachineProfile::emlsgx_pm(), kPmBytes);
  auto& enclave = p.enclave();
  enclave.set_tcs_count(2);
  sgx::ChargeStream stream = enclave.open_stream(1);

  const sim::Nanos costs[] = {1000.0};
  const auto w1 = stream.submit(costs);
  const auto w2 = stream.submit(costs);  // queues behind w1 on the lane
  EXPECT_DOUBLE_EQ(w2.begin, w1.end);
  EXPECT_DOUBLE_EQ(stream.busy_until(), w1.end + 1000.0);
  (void)stream.join();
  EXPECT_DOUBLE_EQ(p.clock().now(), w2.end);
}

TEST_F(ChargeStreamTest, OpenStreamLeavesForegroundParallelPhasesUnthrottled) {
  Platform p(MachineProfile::emlsgx_pm(), kPmBytes);
  auto& enclave = p.enclave();
  enclave.set_tcs_count(4);
  const std::vector<sim::Nanos> costs(4, 1000.0);

  const sim::Nanos t0 = p.clock().now();
  (void)enclave.charge_parallel(costs);  // 4 lanes -> 1000
  EXPECT_DOUBLE_EQ(p.clock().now() - t0, 1000.0);

  const sgx::ChargeStream stream = enclave.open_stream(2);
  const sim::Nanos t1 = p.clock().now();
  (void)enclave.charge_parallel(costs);  // still 4 foreground lanes -> 1000
  EXPECT_DOUBLE_EQ(p.clock().now() - t1, 1000.0);
}

// --- pipelined trainer -------------------------------------------------------

class PipelineTrainerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPmBytes = 48 * 1024 * 1024;

  static TrainerOptions pipelined_options() {
    TrainerOptions opt;
    opt.pipeline_mirror = true;
    return opt;
  }
};

TEST_F(PipelineTrainerTest, ResultsBitwiseIdenticalToSerialPath) {
  const auto config = tiny_config();
  const auto data = tiny_dataset(128);

  Platform serial_platform(MachineProfile::emlsgx_pm(), kPmBytes);
  serial_platform.enclave().set_tcs_count(4);
  Trainer serial(serial_platform, config, TrainerOptions{});
  serial.load_dataset(data);
  (void)serial.train(12);

  Platform piped_platform(MachineProfile::emlsgx_pm(), kPmBytes);
  piped_platform.enclave().set_tcs_count(4);
  Trainer piped(piped_platform, config, pipelined_options());
  piped.load_dataset(data);
  (void)piped.train(12);

  // Same weights, same losses, bit for bit: pipelining only moves simulated
  // cost around, never the computation.
  EXPECT_EQ(ml::serialize_weights(serial.network()),
            ml::serialize_weights(piped.network()));
  ASSERT_EQ(serial.loss_history().size(), piped.loss_history().size());
  for (std::size_t i = 0; i < serial.loss_history().size(); ++i) {
    EXPECT_EQ(serial.loss_history()[i], piped.loss_history()[i]) << i;
  }
  // And the same bytes were made durable: both mirrors restore iteration 12.
  EXPECT_EQ(serial.mirror().iteration(), 12u);
  EXPECT_EQ(piped.mirror().iteration(), 12u);
}

TEST_F(PipelineTrainerTest, PipeliningTakesSealOffTheIterationCriticalPath) {
  const auto config = tiny_config();
  const auto data = tiny_dataset(128);

  const auto run = [&](bool pipelined, obs::Tracer& tracer) {
    Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
    platform.enclave().set_tcs_count(4);
    platform.clock().set_tracer(&tracer);
    TrainerOptions opt;
    opt.pipeline_mirror = pipelined;
    // Seal worker pool as wide as the compute pool: the background sweep
    // then costs what the serial path's charge_parallel did, and the whole
    // of it hides under the next iteration.
    opt.pipeline_lanes = 4;
    Trainer trainer(platform, config, opt);
    trainer.load_dataset(data);
    (void)trainer.train(10);
    const MirrorStats stats = trainer.mirror().stats();
    platform.clock().set_tracer(nullptr);
    return std::make_pair(platform.clock().now(), stats);
  };

  obs::Tracer serial_trace;
  obs::Tracer piped_trace;
  const auto [serial_ns, serial_stats] = run(false, serial_trace);
  const auto [piped_ns, piped_stats] = run(true, piped_trace);

  // On emlSGX-PM (no EPC paging) the mirror seal is pure GCM. Serially it
  // sits inside every train.iteration; pipelined it books on the background
  // lane, so the GCM share attributed under the iteration brackets collapses
  // to the data-batch decrypt alone.
  const obs::CostReport serial_iter = obs::attribute_under(serial_trace, "train.iteration");
  const obs::CostReport piped_iter = obs::attribute_under(piped_trace, "train.iteration");
  EXPECT_LT(piped_iter.ns(obs::Category::kGcm), serial_iter.ns(obs::Category::kGcm));

  // The serial path seals inside the foreground save span; the pipelined
  // stage span contains no GCM at all — the whole sweep moved off the
  // iteration critical path.
  EXPECT_GT(obs::attribute_under(serial_trace, "mirror.save").ns(obs::Category::kGcm),
            0.0);
  EXPECT_DOUBLE_EQ(
      obs::attribute_under(piped_trace, "mirror.save.stage").ns(obs::Category::kGcm),
      0.0);

  // The background seal windows are visible as root brackets on track 1.
  sim::Nanos seal_track_ns = 0;
  std::size_t seal_brackets = 0;
  for (const obs::SpanRecord& rec : piped_trace.spans()) {
    if (rec.category == obs::Category::kPipelineSeal) {
      ++seal_brackets;
      seal_track_ns += rec.duration();
      EXPECT_EQ(rec.track, 1u);
      EXPECT_EQ(rec.parent, 0u);
    }
  }
  EXPECT_EQ(seal_brackets, 10u);  // one bracket per iteration's seal
  EXPECT_DOUBLE_EQ(seal_track_ns, piped_stats.encrypt_ns);

  // Overlap means wall time drops vs the serial baseline, and the stall
  // (unhidden seal remainder) is strictly less than the seal itself.
  EXPECT_LT(piped_ns, serial_ns);
  EXPECT_GT(piped_stats.encrypt_ns, 0.0);
  EXPECT_LT(piped_stats.pipeline_stall_ns, piped_stats.encrypt_ns);
  EXPECT_EQ(serial_stats.pipeline_stall_ns, 0.0);
}

TEST_F(PipelineTrainerTest, AttemptAndCompletionCountersBalanceOnCleanRun) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  platform.enclave().set_tcs_count(4);
  Trainer trainer(platform, tiny_config(), pipelined_options());
  trainer.load_dataset(tiny_dataset(128));
  (void)trainer.train(8);

  const MirrorStats& s = trainer.mirror().stats();
  EXPECT_EQ(s.save_attempts, 8u);
  EXPECT_EQ(s.saves, 8u);
  EXPECT_EQ(s.async_saves, 8u);
  EXPECT_FALSE(trainer.mirror().async_save_pending());
  EXPECT_EQ(platform.enclave().stats().stream_submits, 8u);
  EXPECT_EQ(trainer.last_recovery().tier, RecoveryTier::kNone);
}

TEST_F(PipelineTrainerTest, MirrorEveryStillBoundsDurableLag) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  platform.enclave().set_tcs_count(4);
  TrainerOptions opt = pipelined_options();
  opt.mirror_every = 5;
  Trainer trainer(platform, tiny_config(), opt);
  trainer.load_dataset(tiny_dataset(128));
  (void)trainer.train(10);
  // Mirror points 5 and 10; the loop-exit drain commits the last one.
  EXPECT_EQ(trainer.mirror().stats().saves, 2u);
  EXPECT_EQ(trainer.mirror().iteration(), 10u);
}

TEST_F(PipelineTrainerTest, CheckpointBoundaryDrainsBeforeSsdSave) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  platform.enclave().set_tcs_count(4);
  TrainerOptions opt = pipelined_options();
  opt.ssd_checkpoint_every = 4;
  Trainer trainer(platform, tiny_config(), opt);
  trainer.load_dataset(tiny_dataset(128));
  (void)trainer.train(8);

  // SSD saves at 4 and 8; each one must sit at or behind the PM durable
  // point, so the drain-before-checkpoint leaves no save pending.
  EXPECT_EQ(trainer.checkpointer().stats().saves, 2u);
  EXPECT_FALSE(trainer.mirror().async_save_pending());
  EXPECT_EQ(trainer.mirror().iteration(), 8u);
}

TEST_F(PipelineTrainerTest, SynchronousEntryPointsRefuseWhileSaveInFlight) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  platform.enclave().set_tcs_count(4);
  Rng rng(42);
  ml::Network net = ml::build_network(tiny_config(), rng);

  romulus::Romulus rom(platform.pm(), 0, 14 * 1024 * 1024,
                       romulus::PwbPolicy::clflushopt_sfence(), true);
  Bytes key(16, 0x22);
  MirrorModel mirror(rom, platform.enclave(), crypto::AesGcm(key));
  mirror.alloc(net);

  sgx::ChargeStream stream = platform.enclave().open_stream(1);
  mirror.begin_async_save(net, 1, stream);
  EXPECT_TRUE(mirror.async_save_pending());
  EXPECT_EQ(mirror.pending_iteration(), 1u);
  EXPECT_THROW(mirror.mirror_out(net, 2), Error);
  EXPECT_THROW((void)mirror.mirror_in(net), Error);
  EXPECT_THROW((void)mirror.scrub(net), Error);
  EXPECT_THROW(mirror.dispose(), Error);
  EXPECT_THROW(mirror.begin_async_save(net, 2, stream), Error);

  ASSERT_TRUE(mirror.complete_async_save(stream));
  EXPECT_FALSE(mirror.async_save_pending());
  EXPECT_EQ(mirror.iteration(), 1u);
  // Nothing pending: complete is a no-op that reports it.
  EXPECT_FALSE(mirror.complete_async_save(stream));

  // Abandon models a crash: the durable point stays at the committed save.
  mirror.begin_async_save(net, 2, stream);
  mirror.abandon_async_save();
  EXPECT_FALSE(mirror.async_save_pending());
  EXPECT_EQ(mirror.iteration(), 1u);
}

// begin_async_save seals the live weights, not a copy of them, so the
// double-buffer contract rests on the seal being finished when it returns:
// whatever the trainer does to the weights before complete_async_save, the
// commit holds the weights of the begin iteration.
TEST_F(PipelineTrainerTest, CommitHoldsTheWeightsOfTheBeginIteration) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  platform.enclave().set_tcs_count(4);
  Rng rng(42);
  ml::Network net = ml::build_network(tiny_config(), rng);
  const ml::Dataset data = tiny_dataset();
  constexpr std::size_t kBatch = 8;
  const auto step = [&] { (void)net.train_batch(data.x.row(0), data.y.row(0), kBatch); };

  romulus::Romulus rom(platform.pm(), 0, 14 * 1024 * 1024,
                       romulus::PwbPolicy::clflushopt_sfence(), true);
  MirrorModel mirror(rom, platform.enclave(), crypto::AesGcm(Bytes(16, 0x23)),
                     MirrorOptions{true});
  mirror.alloc(net);
  sgx::ChargeStream stream = platform.enclave().open_stream(2);

  step();
  step();
  const Bytes at_begin = ml::serialize_weights(net);
  mirror.begin_async_save(net, 2, stream);
  step();
  net.layer(0).parameters()[0].values[0] = 1234.5f;
  ASSERT_NE(ml::serialize_weights(net), at_begin);
  ASSERT_TRUE(mirror.complete_async_save(stream));

  Rng other_rng(7);
  ml::Network fresh = ml::build_network(tiny_config(), other_rng);
  EXPECT_EQ(mirror.mirror_in(fresh), 2u);
  EXPECT_EQ(ml::serialize_weights(fresh), at_begin);
  // Both A/B copies hold those bytes: a scrub finds nothing to repair.
  EXPECT_EQ(mirror.scrub(fresh).auth_failures, 0u);
}

// The mirror keeps the pipelined save's sealed buffer between saves; an
// abandoned save leaves its (never committed) bytes in it, and the next save
// must seal over them and commit only its own.
TEST_F(PipelineTrainerTest, SaveAfterAbandonedOneCommitsItsOwnBytes) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  platform.enclave().set_tcs_count(4);
  Rng rng(42);
  ml::Network net = ml::build_network(tiny_config(), rng);
  const ml::Dataset data = tiny_dataset();
  constexpr std::size_t kBatch = 8;
  const auto step = [&] { (void)net.train_batch(data.x.row(8), data.y.row(8), kBatch); };

  romulus::Romulus rom(platform.pm(), 0, 14 * 1024 * 1024,
                       romulus::PwbPolicy::clflushopt_sfence(), true);
  MirrorModel mirror(rom, platform.enclave(), crypto::AesGcm(Bytes(16, 0x24)));
  mirror.alloc(net);
  sgx::ChargeStream stream = platform.enclave().open_stream(1);

  step();
  mirror.begin_async_save(net, 1, stream);
  ASSERT_TRUE(mirror.complete_async_save(stream));
  step();
  mirror.begin_async_save(net, 2, stream);
  mirror.abandon_async_save();
  EXPECT_EQ(mirror.iteration(), 1u);

  step();
  const Bytes at_three = ml::serialize_weights(net);
  mirror.begin_async_save(net, 3, stream);
  step();
  ASSERT_TRUE(mirror.complete_async_save(stream));
  EXPECT_EQ(mirror.stats().async_saves, 2u);
  EXPECT_EQ(mirror.stats().save_attempts, 3u);

  Rng other_rng(9);
  ml::Network fresh = ml::build_network(tiny_config(), other_rng);
  EXPECT_EQ(mirror.mirror_in(fresh), 3u);
  EXPECT_EQ(ml::serialize_weights(fresh), at_three);
}

TEST_F(PipelineTrainerTest, CrashSweepOverInFlightSealWindowRecoversWithLagOne) {
  const auto config = tiny_config();
  const auto data = tiny_dataset(128);
  constexpr std::uint64_t kTarget = 10;

  for (std::uint64_t crash_at = 1; crash_at <= 6; ++crash_at) {
    Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
    platform.enclave().set_tcs_count(4);
    {
      Trainer trainer(platform, config, pipelined_options());
      trainer.load_dataset(data);
      try {
        trainer.train(kTarget, [&](std::uint64_t iter, float) {
          // At on_iteration(k) the seal of iteration k is still in flight:
          // this models a kill inside the new in-flight-seal window.
          if (iter == crash_at) throw SimulatedCrash("kill mid-pipeline");
        });
        FAIL() << "crash did not propagate (crash_at=" << crash_at << ")";
      } catch (const SimulatedCrash&) {
      }
    }
    platform.pm().crash();

    Trainer resumed(platform, config, pipelined_options());
    resumed.load_dataset(data);
    const std::uint64_t resume = resumed.resume_or_init();
    // Durable point lags the observed iteration by at most the one
    // in-flight save, and never runs ahead of it.
    EXPECT_GE(resume + 1, crash_at) << "crash_at=" << crash_at;
    EXPECT_LE(resume, crash_at) << "crash_at=" << crash_at;
    // A fresh start (crash before any commit) leaves the mirror allocated
    // but not yet sealed, so only verify when a mirror state was restored.
    if (resume > 0) resumed.verify_persistent_state();

    // Training still reaches the target and leaves a durable final mirror.
    (void)resumed.train(kTarget);
    EXPECT_EQ(resumed.mirror().iteration(), kTarget);
    resumed.verify_persistent_state();
  }
}

TEST_F(PipelineTrainerTest, SingleTcsPipelineOverlapsOnItsDedicatedSealLane) {
  // The paper's training configuration is single-threaded; the pipelined
  // design adds the seal worker as an extra enclave thread, so overlap works
  // even at tcs_count == 1.
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  Trainer trainer(platform, tiny_config(), pipelined_options());
  trainer.load_dataset(tiny_dataset(128));
  (void)trainer.train(6);
  const MirrorStats& s = trainer.mirror().stats();
  EXPECT_EQ(s.saves, 6u);
  EXPECT_EQ(s.async_saves, 6u);
  EXPECT_LE(s.pipeline_stall_ns, s.encrypt_ns);
  EXPECT_EQ(trainer.mirror().iteration(), 6u);
}

}  // namespace
}  // namespace plinius
