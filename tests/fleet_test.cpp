#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "obs/registry.h"
#include "plinius/fleet/fleet.h"

namespace plinius::fleet {
namespace {

ml::Dataset small_data(std::size_t rows = 256) {
  ml::SynthDigitsOptions opt;
  opt.train_count = rows;
  opt.test_count = 1;
  return ml::make_synth_digits(opt).train;
}

ml::ModelConfig small_config() { return ml::make_cnn_config(2, 4, 8); }

// ---------------------------------------------------------------- Backoff --

TEST(Backoff, DoublesAndClampsAtCapWithoutJitter) {
  BackoffPolicy p;
  p.initial_ns = 1.0e6;
  p.cap_ns = 8.0e6;
  p.jitter = 0.0;
  BackoffSchedule s(p, 1);
  EXPECT_DOUBLE_EQ(s.next(), 1.0e6);
  EXPECT_DOUBLE_EQ(s.next(), 2.0e6);
  EXPECT_DOUBLE_EQ(s.next(), 4.0e6);
  EXPECT_DOUBLE_EQ(s.next(), 8.0e6);
  EXPECT_DOUBLE_EQ(s.next(), 8.0e6);  // capped, stays put
  EXPECT_DOUBLE_EQ(s.next(), 8.0e6);
  EXPECT_EQ(s.attempts(), 6u);
  EXPECT_GE(s.times_capped(), 3u);
}

TEST(Backoff, JitterIsBoundedAndCapped) {
  BackoffPolicy p;
  p.initial_ns = 1.0e6;
  p.cap_ns = 16.0e6;
  p.jitter = 0.25;
  BackoffSchedule s(p, 99);
  double base = 1.0e6;
  for (int i = 0; i < 12; ++i) {
    const double d = s.next();
    EXPECT_LE(d, p.cap_ns);
    EXPECT_GE(d, base * (1.0 - p.jitter) - 1.0);
    base = std::min(base * 2.0, p.cap_ns);
  }
}

TEST(Backoff, DeterministicPerSeedDistinctAcrossSeeds) {
  BackoffPolicy p;  // defaults: jitter 0.1
  BackoffSchedule a(p, 7), b(p, 7), c(p, 8);
  bool any_differs = false;
  for (int i = 0; i < 8; ++i) {
    const double da = a.next();
    EXPECT_DOUBLE_EQ(da, b.next());  // same seed: bit-identical schedule
    any_differs |= da != c.next();
  }
  EXPECT_TRUE(any_differs);  // different seed: jitters apart (no lockstep)
}

// ------------------------------------------------------------------ Fleet --

TEST(Fleet, RejectsBadOptions) {
  FleetOptions opt;
  opt.workers = 0;
  EXPECT_THROW(ElasticTrainer(MachineProfile::emlsgx_pm(), 48u << 20,
                              small_config(), opt),
               Error);
  FleetOptions opt2;
  opt2.min_live_fraction = 1.5;
  EXPECT_THROW(ElasticTrainer(MachineProfile::emlsgx_pm(), 48u << 20,
                              small_config(), opt2),
               Error);
}

// Synchronous data-parallel training written out by hand: plain Trainers on
// the fleet's platform seeds (0x5367E0 + w) and round-robin shards, each
// running `sync_every` iterations per round, then a plain average in worker
// order (accumulate into worker 0, scale by 1/n, copy back).
struct ReferenceLoop {
  std::vector<std::unique_ptr<Platform>> platforms;
  std::vector<std::unique_ptr<Trainer>> trainers;

  ReferenceLoop(const ml::ModelConfig& config, const ml::Dataset& data,
                std::size_t workers, std::size_t sync_every, std::uint64_t target) {
    const auto shards = shard_round_robin(data, workers);
    for (std::size_t w = 0; w < workers; ++w) {
      platforms.push_back(std::make_unique<Platform>(MachineProfile::emlsgx_pm(),
                                                     48u << 20, 0x5367E0ULL + w));
      trainers.push_back(
          std::make_unique<Trainer>(*platforms[w], config, TrainerOptions{}));
      (void)trainers[w]->resume_or_init();
      trainers[w]->load_dataset(shards[w]);
    }
    for (std::uint64_t done = 0; done < target;) {
      done = std::min<std::uint64_t>(done + sync_every, target);
      for (auto& t : trainers) (void)t->train(done);
      ml::Network& first = trainers[0]->network();
      for (std::size_t l = 0; l < first.num_layers(); ++l) {
        const auto params = first.layer(l).parameters();
        for (std::size_t b = 0; b < params.size(); ++b) {
          const std::span<float> acc = params[b].values;
          for (std::size_t w = 1; w < workers; ++w) {
            const auto other = trainers[w]->network().layer(l).parameters()[b].values;
            for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
          }
          const float inv = 1.0f / static_cast<float>(workers);
          for (auto& v : acc) v *= inv;
          for (std::size_t w = 1; w < workers; ++w) {
            auto other = trainers[w]->network().layer(l).parameters()[b].values;
            std::copy(acc.begin(), acc.end(), other.begin());
          }
        }
      }
    }
  }
};

// The barrier contract: kBarrier + zero preemption is the reference loop,
// bitwise — same losses, same weights — with the sync-round count and the
// simulated wall time pinned.
TEST(Fleet, BarrierNoPreemptionMatchesReferenceLoopBitwise) {
  const auto data = small_data();
  const auto config = ml::make_cnn_config(2, 4, 16);
  struct Case {
    std::size_t workers;
    std::size_t sync_every;
    std::uint64_t sync_rounds;
  };
  // One worker has nothing to average: it is a plain Trainer.
  const Case cases[] = {{1, 4, 0}, {3, 4, 3}};
  std::vector<sim::Nanos> elapsed;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.workers) + " workers, sync every " +
                 std::to_string(c.sync_every));
    FleetOptions opt;
    opt.workers = c.workers;
    opt.sync_every = c.sync_every;
    ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, config, opt);
    fleet.load_dataset(data);
    const float fleet_loss = fleet.train(12);
    const ReferenceLoop ref(config, data, c.workers, c.sync_every, 12);

    float ref_loss = 0;
    for (const auto& t : ref.trainers) ref_loss += t->loss_history().back();
    EXPECT_EQ(fleet_loss, ref_loss / static_cast<float>(c.workers));  // bitwise
    EXPECT_EQ(fleet.sync_rounds(), c.sync_rounds);
    for (std::size_t w = 0; w < c.workers; ++w) {
      const auto& hist = ref.trainers[w]->loss_history();
      const auto& mine = fleet.losses(w);
      ASSERT_EQ(mine.size(), hist.size()) << "worker " << w;
      for (std::size_t i = 0; i < hist.size(); ++i) {
        ASSERT_EQ(mine[i], hist[i]) << "worker " << w << " iteration " << i;
      }
      ml::Network& ref_net = ref.trainers[w]->network();
      EXPECT_EQ(fleet.network(w).iterations(), 12u);
      for (std::size_t l = 0; l < ref_net.num_layers(); ++l) {
        const auto want = ref_net.layer(l).parameters();
        const auto got = fleet.network(w).layer(l).parameters();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t b = 0; b < want.size(); ++b) {
          for (std::size_t i = 0; i < want[b].values.size(); ++i) {
            ASSERT_EQ(got[b].values[i], want[b].values[i])
                << "worker " << w << " layer " << l << " buffer " << b;
          }
        }
      }
    }
    EXPECT_TRUE(fleet.report().completed);
    EXPECT_EQ(fleet.report().kills, 0u);
    EXPECT_EQ(fleet.report().redone_iterations, 0u);
    elapsed.push_back(fleet.elapsed_ns());
  }
  // Simulated wall time depends only on the cost model, not on host threads,
  // GEMM kernels or float results.
  EXPECT_DOUBLE_EQ(elapsed[1], 6220699.6787833096);
}

TEST(Fleet, KilledWorkerRejoinsFromMirrorWithoutRedoneWork) {
  FleetOptions opt;
  opt.workers = 3;
  opt.sync_every = 4;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data());
  bool killed = false;
  fleet.set_phase_hook([&](std::uint64_t round, RoundPhase phase) {
    if (round == 1 && phase == RoundPhase::kPreExchange && !killed) {
      killed = true;
      fleet.kill_worker(1);
    }
  });
  const float loss = fleet.train(16);
  EXPECT_TRUE(std::isfinite(loss));
  const FleetReport& rep = fleet.report();
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.kills, 1u);
  EXPECT_EQ(rep.revives, 1u);
  ASSERT_EQ(rep.workers[1].interruptions.size(), 1u);
  const spot::InterruptionRecord& rec = rep.workers[1].interruptions[0];
  // Per-iteration mirroring: the mirror restore resumes exactly where the
  // kill struck, so nothing is redone.
  EXPECT_EQ(rec.tier, RecoveryTier::kMirror);
  EXPECT_EQ(rec.resume_iteration, rec.killed_at_iteration);
  EXPECT_EQ(rep.redone_iterations, 0u);
  EXPECT_EQ(rep.recoveries_by_tier[static_cast<std::size_t>(RecoveryTier::kMirror)],
            1u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(fleet.network(w).iterations(), 16u);
  }
}

// ------------------------------------------------------------ Distributed --
// Plain synchronous data-parallel training: ElasticTrainer with its defaults
// (kBarrier, PreemptionModel::kNone).

TEST(Distributed, RejectsBadOptions) {
  FleetOptions opt;
  opt.workers = 0;
  EXPECT_THROW(ElasticTrainer(MachineProfile::emlsgx_pm(), 48u << 20,
                              small_config(), opt),
               Error);
}

TEST(Distributed, TrainsAndStaysSynchronized) {
  FleetOptions opt;
  opt.workers = 3;
  opt.sync_every = 4;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20,
                       ml::make_cnn_config(2, 4, 16), opt);
  fleet.load_dataset(small_data(512));
  const float loss = fleet.train(12);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(fleet.sync_rounds(), 3u);

  // After the final averaging round, all workers hold identical weights.
  const auto ref = fleet.network(0).layer(0).parameters();
  for (std::size_t w = 1; w < fleet.workers(); ++w) {
    const auto other = fleet.network(w).layer(0).parameters();
    for (std::size_t b = 0; b < ref.size(); ++b) {
      for (std::size_t i = 0; i < ref[b].values.size(); ++i) {
        ASSERT_EQ(ref[b].values[i], other[b].values[i])
            << "worker " << w << " buffer " << b << " index " << i;
      }
    }
  }
  // Every worker reached the target.
  for (std::size_t w = 0; w < fleet.workers(); ++w) {
    EXPECT_EQ(fleet.network(w).iterations(), 12u);
  }
  EXPECT_GT(fleet.elapsed_ns(), 0.0);
}

TEST(Distributed, SingleWorkerDegeneratesToLocalTraining) {
  FleetOptions opt;
  opt.workers = 1;
  opt.sync_every = 4;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data(64));
  const float loss = fleet.train(8);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(fleet.sync_rounds(), 0u);  // nothing to average
  EXPECT_EQ(fleet.network(0).iterations(), 8u);
}

TEST(Distributed, KilledWorkerResumesFromItsMirrorAndRejoins) {
  FleetOptions opt;
  opt.workers = 2;
  opt.sync_every = 5;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20,
                       ml::make_cnn_config(2, 4, 16), opt);
  fleet.load_dataset(small_data(512));
  (void)fleet.train(10);

  fleet.kill_worker(1);
  EXPECT_FALSE(fleet.alive(1));
  // Next use reconstructs worker 1 from its PM mirror at iteration 10.
  EXPECT_EQ(fleet.network(1).iterations(), 10u);

  (void)fleet.train(20);
  EXPECT_EQ(fleet.network(0).iterations(), 20u);
  EXPECT_EQ(fleet.network(1).iterations(), 20u);

  // Weights synchronized again after rejoin.
  const auto a = fleet.network(0).layer(1).parameters();
  const auto b = fleet.network(1).layer(1).parameters();
  for (std::size_t i = 0; i < a[0].values.size(); ++i) {
    ASSERT_EQ(a[0].values[i], b[0].values[i]);
  }
}

TEST(Distributed, LearnsTheTask) {
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 2048;
  dopt.test_count = 512;
  const auto digits = ml::make_synth_digits(dopt);

  FleetOptions opt;
  opt.workers = 2;
  opt.sync_every = 10;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 64u << 20,
                       ml::make_cnn_config(3, 8, 32), opt);
  fleet.load_dataset(digits.train);
  (void)fleet.train(60);

  const double acc = fleet.network(0).accuracy(
      digits.test.x.values.data(), digits.test.y.values.data(), digits.test.size());
  EXPECT_GT(acc, 0.5);
}

TEST(Distributed, SyncCostsCommunicationTime) {
  auto elapsed_with = [](std::size_t sync_every) {
    FleetOptions opt;
    opt.workers = 4;
    opt.sync_every = sync_every;
    ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20,
                         ml::make_cnn_config(2, 4, 16), opt);
    fleet.load_dataset(small_data(512));
    (void)fleet.train(12);
    return fleet.elapsed_ns();
  };
  // More frequent synchronization = more rounds = more network time.
  EXPECT_GT(elapsed_with(2), elapsed_with(12));
}

// Satellite sweep: kill 1..N-1 workers at every phase of an averaging round.
// Survivors' loss stays finite and bit-deterministic across reruns, every
// victim rejoins from its mirror, and quorum holds throughout (the dead are
// revived before the next round's quorum check under PreemptionModel::kNone).
TEST(Fleet, KillDuringAveragingPhaseSweep) {
  const auto data = small_data();
  const auto config = small_config();
  constexpr std::size_t kWorkers = 4;
  const RoundPhase phases[] = {RoundPhase::kPreExchange,
                               RoundPhase::kMidExchange,
                               RoundPhase::kPostAverage};
  for (const RoundPhase phase : phases) {
    for (std::size_t k = 1; k <= kWorkers - 1; ++k) {
      float last_loss = 0;
      for (int run = 0; run < 2; ++run) {
        FleetOptions opt;
        opt.workers = kWorkers;
        opt.sync_every = 4;
        ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, config,
                             opt);
        fleet.load_dataset(data);
        bool killed = false;
        fleet.set_phase_hook([&](std::uint64_t round, RoundPhase at) {
          if (round == 1 && at == phase && !killed) {
            killed = true;
            for (std::size_t w = 1; w <= k; ++w) fleet.kill_worker(w);
          }
        });
        const float loss = fleet.train(12);
        ASSERT_TRUE(std::isfinite(loss))
            << to_string(phase) << " k=" << k << " run=" << run;
        const FleetReport& rep = fleet.report();
        EXPECT_TRUE(rep.completed);
        EXPECT_EQ(rep.kills, k);
        EXPECT_EQ(rep.revives, k);
        for (const RoundLog& log : rep.rounds) {
          EXPECT_TRUE(log.quorum_met) << "round " << log.round;
          EXPECT_GE(log.end_ns, log.start_ns);
        }
        for (std::size_t w = 0; w < kWorkers; ++w) {
          EXPECT_EQ(fleet.network(w).iterations(), 12u)
              << to_string(phase) << " k=" << k << " worker " << w;
        }
        if (run == 0) {
          last_loss = loss;
        } else {
          EXPECT_EQ(loss, last_loss)
              << to_string(phase) << " k=" << k << " is nondeterministic";
        }
      }
    }
  }
}

TEST(Fleet, QuorumLossSkipsRoundsAndChargesIdleTime) {
  FleetOptions opt;
  opt.workers = 3;
  opt.max_rounds = 10;
  opt.preemption.model = PreemptionModel::kSpotTrace;
  opt.preemption.max_bid = 0.0;  // outbid forever: every worker stays dead
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data());
  const sim::Nanos before = fleet.elapsed_ns();
  const float loss = fleet.train(8);
  EXPECT_EQ(loss, 0.0f);  // nobody trained
  const FleetReport& rep = fleet.report();
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.rounds_total, 10u);
  EXPECT_EQ(rep.rounds_skipped_quorum, 10u);
  EXPECT_EQ(rep.kills, 3u);
  EXPECT_EQ(rep.revives, 0u);
  EXPECT_EQ(rep.executed_iterations, 0u);
  for (const RoundLog& log : rep.rounds) EXPECT_FALSE(log.quorum_met);
  // Wall time passes while the fleet idles below quorum. The subtraction of
  // two large clock values loses a few ulps against the exact sum of the ten
  // idle charges, so allow a nanosecond of cancellation slack.
  EXPECT_GE(fleet.elapsed_ns() - before, 10 * opt.idle_round_ns - 1.0);
}

TEST(Fleet, BoundedStalenessStragglersCatchUpAndComplete) {
  FleetOptions opt;
  opt.workers = 3;
  opt.sync_every = 4;
  opt.policy = SyncPolicy::kBoundedStaleness;
  opt.staleness_bound = 1;
  opt.max_rounds = 400;
  opt.preemption.model = PreemptionModel::kChaos;
  opt.preemption.kill_probability = 0.15;
  opt.preemption.min_down_rounds = 3;
  opt.preemption.max_down_rounds = 3;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data());
  const float loss = fleet.train(40);
  EXPECT_TRUE(std::isfinite(loss));
  const FleetReport& rep = fleet.report();
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.kills, 1u);  // the seeded schedule does preempt someone
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(fleet.network(w).iterations(), 40u) << "worker " << w;
  }
  // Somebody sat out rounds — dead, below quorum, or beyond the bound.
  std::uint64_t missed = 0;
  for (const WorkerReport& w : rep.workers) missed += w.rounds_missed;
  EXPECT_GE(missed, 1u);
  EXPECT_EQ(rep.rounds_total, rep.rounds.size());
}

TEST(Fleet, GossipPairsDeterministically) {
  const auto data = small_data();
  const auto config = small_config();
  float first = 0;
  for (int run = 0; run < 2; ++run) {
    FleetOptions opt;
    opt.workers = 4;
    opt.sync_every = 4;
    opt.policy = SyncPolicy::kGossip;
    ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, config, opt);
    fleet.load_dataset(data);
    const float loss = fleet.train(16);
    ASSERT_TRUE(std::isfinite(loss));
    const FleetReport& rep = fleet.report();
    EXPECT_TRUE(rep.completed);
    // Four live workers pair completely: nobody sits out.
    for (const WorkerReport& w : rep.workers) {
      EXPECT_GT(w.rounds_participated, 0u);
      EXPECT_EQ(w.rounds_missed, 0u);
    }
    if (run == 0) {
      first = loss;
    } else {
      EXPECT_EQ(loss, first);  // same fleet_seed: same pairings, same model
    }
  }
}

TEST(Fleet, GossipOddWorkerSitsOut) {
  FleetOptions opt;
  opt.workers = 3;
  opt.sync_every = 4;
  opt.policy = SyncPolicy::kGossip;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data());
  (void)fleet.train(12);
  const FleetReport& rep = fleet.report();
  EXPECT_TRUE(rep.completed);
  std::uint64_t missed = 0;
  for (const WorkerReport& w : rep.workers) missed += w.rounds_missed;
  // Every averaged round leaves exactly one of the three out.
  EXPECT_EQ(missed, rep.sync_rounds);
}

// The PR's headline claim, as an assertion: under the same seeded preemption
// schedule, mirror-backed recovery redoes strictly less work than the
// non-resilient baseline.
TEST(Fleet, ResilientFleetRedoesLessWorkThanNonResilient) {
  const auto data = small_data();
  const auto config = small_config();
  auto run = [&](CheckpointBackend backend) {
    FleetOptions opt;
    opt.workers = 3;
    opt.sync_every = 4;
    opt.max_rounds = 500;
    opt.trainer.backend = backend;
    opt.preemption.model = PreemptionModel::kSpotTrace;
    opt.preemption.spike_probability = 0.12;
    ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, config, opt);
    fleet.load_dataset(data);
    (void)fleet.train(24);
    return fleet.report();
  };
  const FleetReport resilient = run(CheckpointBackend::kPmMirror);
  const FleetReport baseline = run(CheckpointBackend::kNone);
  EXPECT_TRUE(resilient.completed);
  EXPECT_TRUE(baseline.completed);
  EXPECT_GE(baseline.kills, 1u);  // the schedule did preempt someone
  EXPECT_LT(resilient.redone_iterations, baseline.redone_iterations);
  // Per-iteration mirroring redoes nothing at all.
  EXPECT_EQ(resilient.redone_iterations, 0u);
  EXPECT_EQ(baseline.executed_iterations,
            3 * 24 + baseline.redone_iterations);
}

// Chaos kills that also damage the victim's PM push revivals past the
// mirror rung: the ladder bottoms out and the peer re-provision rung
// restores progress from a healthy worker.
TEST(Fleet, ChaosMediaDamageClimbsRecoveryLadderToPeer) {
  FleetOptions opt;
  opt.workers = 3;
  opt.sync_every = 4;
  opt.max_rounds = 300;
  opt.trainer.data_policy = CorruptRecordPolicy::kResample;
  opt.preemption.model = PreemptionModel::kChaos;
  opt.preemption.kill_probability = 0.3;
  opt.preemption.min_down_rounds = 1;
  opt.preemption.max_down_rounds = 2;
  opt.preemption.media_rates.bit_flips_per_mib = 64.0;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data());
  const float loss = fleet.train(20);
  EXPECT_TRUE(std::isfinite(loss));
  const FleetReport& rep = fleet.report();
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.kills, 1u);
  const auto tier = [&](RecoveryTier t) {
    return rep.recoveries_by_tier[static_cast<std::size_t>(t)];
  };
  // Bit-flipped arenas defeat the plain mirror restore: recoveries land on
  // the deeper rungs, and at least one pulled the model from a peer.
  EXPECT_GE(tier(RecoveryTier::kPeer), 1u);
  EXPECT_GE(fleet.stats().peer_provisions, 1u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(fleet.network(w).iterations(), 20u) << "worker " << w;
  }
}

TEST(Fleet, PublishesCanonicalTelemetry) {
  FleetOptions opt;
  opt.workers = 2;
  opt.sync_every = 4;
  ElasticTrainer fleet(MachineProfile::emlsgx_pm(), 48u << 20, small_config(),
                       opt);
  fleet.load_dataset(small_data());
  bool killed = false;
  fleet.set_phase_hook([&](std::uint64_t round, RoundPhase phase) {
    if (round == 0 && phase == RoundPhase::kPostAverage && !killed) {
      killed = true;
      fleet.kill_worker(1);
    }
  });
  (void)fleet.train(8);

  obs::Registry reg;
  fleet.publish(reg);
  const FleetReport& rep = fleet.report();
  EXPECT_DOUBLE_EQ(reg.gauge("fleet.live_workers"),
                   static_cast<double>(rep.live_workers));
  EXPECT_EQ(reg.counter("fleet.kills"), rep.kills);
  EXPECT_EQ(reg.counter("fleet.revives"), rep.revives);
  EXPECT_EQ(reg.counter("fleet.redone_iterations"), rep.redone_iterations);
  EXPECT_EQ(reg.counter("fleet.executed_iterations"), rep.executed_iterations);
  EXPECT_EQ(
      reg.counter("fleet.recoveries", {{"tier", "mirror"}}),
      rep.recoveries_by_tier[static_cast<std::size_t>(RecoveryTier::kMirror)]);
  EXPECT_EQ(reg.counter("fleet.worker.kills", {{"worker", "1"}}),
            rep.workers[1].kills);
  // The per-round histogram carries one sample per round.
  EXPECT_EQ(reg.histogram("fleet.round_ns").count(), rep.rounds.size());
  // Canonical cluster gauges ride along for validate_obs --require-gauge.
  const std::string snap = reg.snapshot_json();
  EXPECT_NE(snap.find("cluster.peer_provisions"), std::string::npos);
  EXPECT_NE(snap.find("fleet.recovery_tier"), std::string::npos);
}

}  // namespace
}  // namespace plinius::fleet
