// Tests for the parallel compute substrate (common/parallel.h), the SGX
// multi-TCS simulated-time accounting (EnclaveRuntime::charge_parallel),
// and the end-to-end determinism contract: a full trainer run is
// bitwise-identical — weights *and* simulated clock — at 1/2/4/8 host
// threads, and parallel mirror sealing never reuses or reorders GCM IVs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {
namespace {

// Restores the process-wide thread count on scope exit so tests that sweep
// it cannot leak state into each other.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::max_threads()) {}
  ~ThreadCountGuard() { par::set_max_threads(saved_); }

 private:
  std::size_t saved_;
};

// --- partition ---------------------------------------------------------------

TEST(Partition, CoversRangeContiguouslyAndBalanced) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u, 1001u}) {
    for (const std::size_t nchunks : {1u, 2u, 3u, 7u, 8u, 64u}) {
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < nchunks; ++c) {
        const par::Range r = par::partition(n, nchunks, c);
        EXPECT_EQ(r.begin, expected_begin) << "n=" << n << " chunk " << c;
        EXPECT_LE(r.begin, r.end);
        // Balanced to within one item.
        EXPECT_LE(r.size(), n / nchunks + 1);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " nchunks=" << nchunks;
    }
  }
}

TEST(Partition, RejectsBadChunkIndex) {
  EXPECT_THROW((void)par::partition(10, 4, 4), Error);
  EXPECT_THROW((void)par::partition(10, 0, 0), Error);
}

// --- threads_from_env --------------------------------------------------------

TEST(ThreadsFromEnv, ParsesAndRejects) {
  EXPECT_EQ(par::threads_from_env(nullptr), 0u);
  EXPECT_EQ(par::threads_from_env(""), 0u);
  EXPECT_EQ(par::threads_from_env("abc"), 0u);
  EXPECT_EQ(par::threads_from_env("0"), 0u);
  EXPECT_EQ(par::threads_from_env("-4"), 0u);
  EXPECT_EQ(par::threads_from_env("8x"), 0u);
  EXPECT_EQ(par::threads_from_env("1"), 1u);
  EXPECT_EQ(par::threads_from_env("8"), 8u);
  EXPECT_EQ(par::threads_from_env("9999"), 256u);  // clamped
}

// --- parallel_for ------------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::set_max_threads(threads);
    for (const std::size_t n : {0u, 1u, 5u, 63u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      par::parallel_for(n, [&](par::Range r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n;
      }
    }
  }
}

TEST(ParallelFor, GrainBoundsChunkCount) {
  ThreadCountGuard guard;
  par::set_max_threads(8);
  std::mutex mu;
  std::size_t calls = 0;
  // 100 items at grain 40 -> at most ceil(100/40) = 3 chunks even with 8
  // threads available.
  par::parallel_for(100, 40, [&](par::Range r) {
    EXPECT_GE(r.size(), 1u);
    const std::lock_guard<std::mutex> lock(mu);
    ++calls;
  });
  EXPECT_LE(calls, 3u);
  EXPECT_GE(calls, 1u);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadCountGuard guard;
  par::set_max_threads(4);
  EXPECT_THROW(
      par::parallel_for(64, [](par::Range r) {
        if (r.begin == 0) throw CryptoError("boom");
      }),
      CryptoError);
  // The pool survives an exception and keeps working.
  std::atomic<std::size_t> total{0};
  par::parallel_for(64, [&](par::Range r) { total += r.size(); });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  par::set_max_threads(4);
  std::vector<std::atomic<int>> hits(16 * 8);
  par::parallel_for(16, [&](par::Range outer) {
    for (std::size_t i = outer.begin; i < outer.end; ++i) {
      par::parallel_for(8, [&](par::Range inner) {
        for (std::size_t j = inner.begin; j < inner.end; ++j) {
          hits[i * 8 + j].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- charge_parallel ---------------------------------------------------------

class ChargeParallelTest : public ::testing::Test {
 protected:
  ChargeParallelTest()
      : enclave_(clock_, sgx::SgxCostModel::hardware(3.8), "t", 1) {}

  sim::Clock clock_;
  sgx::EnclaveRuntime enclave_;
};

TEST_F(ChargeParallelTest, DefaultSingleTcsIsSerialSum) {
  ASSERT_EQ(enclave_.tcs_count(), 1u);
  const std::array<sim::Nanos, 4> costs{100.0, 50.0, 25.0, 25.0};
  const sim::Nanos t0 = clock_.now();
  const sim::Nanos charged = enclave_.charge_parallel(costs);
  EXPECT_DOUBLE_EQ(charged, 200.0);
  EXPECT_DOUBLE_EQ(clock_.now() - t0, 200.0);
}

TEST_F(ChargeParallelTest, MultiTcsChargesCriticalPathLane) {
  enclave_.set_tcs_count(2);
  // partition(4, 2, .) -> lanes {100, 50} and {25, 25}: critical path 150.
  const std::array<sim::Nanos, 4> costs{100.0, 50.0, 25.0, 25.0};
  const sim::Nanos t0 = clock_.now();
  EXPECT_DOUBLE_EQ(enclave_.charge_parallel(costs), 150.0);
  EXPECT_DOUBLE_EQ(clock_.now() - t0, 150.0);
}

TEST_F(ChargeParallelTest, LanesClampToTaskCount) {
  enclave_.set_tcs_count(8);
  // 2 tasks on 8 lanes: one task per lane, critical path = max.
  const std::array<sim::Nanos, 2> costs{30.0, 70.0};
  EXPECT_DOUBLE_EQ(enclave_.charge_parallel(costs), 70.0);
}

TEST_F(ChargeParallelTest, EmptyAndStats) {
  const auto regions_before = enclave_.stats().parallel_regions;
  EXPECT_DOUBLE_EQ(enclave_.charge_parallel({}), 0.0);
  EXPECT_EQ(enclave_.stats().parallel_regions, regions_before);
  const std::array<sim::Nanos, 1> one{5.0};
  (void)enclave_.charge_parallel(one);
  EXPECT_EQ(enclave_.stats().parallel_regions, regions_before + 1);
}

TEST_F(ChargeParallelTest, MoreLanesNeverSlower) {
  const std::vector<sim::Nanos> costs{90, 10, 40, 60, 5, 80, 20, 30, 70, 15};
  sim::Nanos prev = 1e300;
  for (const std::size_t tcs : {1u, 2u, 4u, 8u}) {
    enclave_.set_tcs_count(tcs);
    const sim::Nanos t = enclave_.charge_parallel(costs);
    EXPECT_LE(t, prev) << "tcs=" << tcs;
    prev = t;
  }
}

// --- parallel mirror sealing: IV discipline ---------------------------------

// Mirrors the persistent on-PM layout of MirrorModel (a stable format:
// crash-recovery depends on it). Used to read the sealed buffers' IVs back
// out of PM without going through the decryption path.
struct PmHeader {
  std::uint64_t magic;
  std::uint64_t iteration;
  std::uint64_t num_layers;
  std::uint64_t head;
};
struct PmLayerNode {
  std::uint64_t next;
  std::uint64_t num_buffers;
  std::uint64_t buf_off[8];
  std::uint64_t buf_sealed_len[8];
};

// Collects the GCM IV counters (big-endian bytes 4..11 of each sealed
// buffer's 12-byte IV prefix) in mirror list order.
std::vector<std::uint64_t> iv_counters(romulus::Romulus& rom) {
  const auto header_off = rom.root(MirrorModel::kRootSlot);
  const auto header = rom.read<PmHeader>(header_off);
  std::vector<std::uint64_t> counters;
  for (auto node_off = header.head; node_off != 0;) {
    const auto node = rom.read<PmLayerNode>(node_off);
    for (std::uint64_t b = 0; b < node.num_buffers; ++b) {
      const auto iv = rom.read<std::array<std::uint8_t, 12>>(node.buf_off[b]);
      std::uint64_t ctr = 0;
      for (int i = 4; i < 12; ++i) ctr = ctr << 8 | iv[i];
      counters.push_back(ctr);
    }
    node_off = node.next;
  }
  return counters;
}

TEST(ParallelSealing, IvCountersStrictlyMonotonicAcrossThreadedSaves) {
  ThreadCountGuard guard;
  par::set_max_threads(4);

  Platform platform(MachineProfile::sgx_emlpm(), 32 * 1024 * 1024);
  romulus::Romulus rom(platform.pm(), 0, 15 * 1024 * 1024,
                       romulus::PwbPolicy::clflushopt_sfence(), true);
  Bytes key(16);
  Rng(77).fill(key.data(), key.size());
  MirrorModel mirror(rom, platform.enclave(), crypto::AesGcm(key), MirrorOptions{true});

  Rng rng(1);
  ml::Network net = ml::build_network(ml::make_cnn_config(2, 4, 8), rng);
  mirror.alloc(net);
  sgx::ChargeStream stream = platform.enclave().open_stream(2);

  // Synchronous saves seal in the commit; pipelined saves seal a snapshot on
  // the pool first and commit later. Both draw from the same IV sequence.
  std::vector<std::uint64_t> all;
  for (std::uint64_t iter = 1; iter <= 6; ++iter) {
    if (iter % 2 == 0) {
      mirror.begin_async_save(net, iter, stream);
      ASSERT_TRUE(mirror.complete_async_save(stream));
    } else {
      mirror.mirror_out(net, iter);
    }
    const auto counters = iv_counters(rom);
    ASSERT_FALSE(counters.empty());
    // Within one save, IVs are assigned in buffer list order and each save
    // draws fresh counters — so the concatenation across saves is strictly
    // increasing iff no IV was ever reused or reordered by the parallel
    // sealing pass.
    all.insert(all.end(), counters.begin(), counters.end());
    for (const auto& e : mirror.sealed_extents()) {
      ASSERT_NE(e.replica_off, 0u);
      EXPECT_EQ(0, std::memcmp(rom.main_base() + e.primary_off,
                               rom.main_base() + e.replica_off, e.sealed_len))
          << "replica differs from its primary: save " << iter << ", layer " << e.layer
          << " buffer " << e.buffer;
    }
  }
  EXPECT_EQ(mirror.stats().async_saves, 3u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_GT(all[i], all[i - 1]) << "IV counter not strictly monotonic at " << i;
  }
  const std::set<std::uint64_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size()) << "IV reuse detected";

  // And the parallel-sealed mirror still authenticates and restores.
  Rng rng2(2);
  ml::Network net2 = ml::build_network(ml::make_cnn_config(2, 4, 8), rng2);
  EXPECT_EQ(mirror.mirror_in(net2), 6u);
}

// --- end-to-end determinism --------------------------------------------------

struct TrainOutcome {
  std::vector<float> weights;
  std::vector<float> losses;
  double clock_ns;
};

TrainOutcome run_training(std::size_t threads) {
  par::set_max_threads(threads);
  Platform platform(MachineProfile::sgx_emlpm(), 48u << 20, /*platform_seed=*/0xD0);
  ml::SynthDigitsOptions opt;
  opt.train_count = 48;
  opt.test_count = 1;
  const auto digits = make_synth_digits(opt);

  Trainer trainer(platform, ml::make_cnn_config(2, 4, 8), TrainerOptions{});
  trainer.load_dataset(digits.train);
  trainer.train(6);

  TrainOutcome out;
  out.losses = trainer.loss_history();
  out.clock_ns = platform.clock().now();
  ml::Network& net = trainer.network();
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    for (const auto& param : net.layer(l).parameters()) {
      out.weights.insert(out.weights.end(), param.values.begin(), param.values.end());
    }
  }
  return out;
}

TEST(TrainerDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const TrainOutcome serial = run_training(1);
  ASSERT_FALSE(serial.weights.empty());
  ASSERT_EQ(serial.losses.size(), 6u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    const TrainOutcome parallel = run_training(threads);
    ASSERT_EQ(parallel.weights.size(), serial.weights.size());
    EXPECT_EQ(0, std::memcmp(parallel.weights.data(), serial.weights.data(),
                             serial.weights.size() * sizeof(float)))
        << "weights diverged at " << threads << " host threads";
    EXPECT_EQ(0, std::memcmp(parallel.losses.data(), serial.losses.data(),
                             serial.losses.size() * sizeof(float)))
        << "loss history diverged at " << threads << " host threads";
    // Host threads must not leak into simulated time: exactly equal, not
    // approximately.
    EXPECT_EQ(parallel.clock_ns, serial.clock_ns)
        << "simulated clock diverged at " << threads << " host threads";
  }
}

// Simulated TCS lanes are independent of host threads: raising tcs_count
// shortens simulated time but cannot change the trained weights.
TEST(TrainerDeterminism, TcsCountChangesTimeNotWeights) {
  ThreadCountGuard guard;
  par::set_max_threads(2);

  auto run = [](std::size_t tcs) {
    Platform platform(MachineProfile::sgx_emlpm(), 48u << 20, /*platform_seed=*/0xD1);
    platform.enclave().set_tcs_count(tcs);
    ml::SynthDigitsOptions opt;
    opt.train_count = 48;
    opt.test_count = 1;
    const auto digits = make_synth_digits(opt);
    Trainer trainer(platform, ml::make_cnn_config(2, 4, 8), TrainerOptions{});
    trainer.load_dataset(digits.train);
    trainer.train(4);
    TrainOutcome out;
    out.losses = trainer.loss_history();
    out.clock_ns = platform.clock().now();
    ml::Network& net = trainer.network();
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      for (const auto& param : net.layer(l).parameters()) {
        out.weights.insert(out.weights.end(), param.values.begin(), param.values.end());
      }
    }
    return out;
  };

  const TrainOutcome one = run(1);
  const TrainOutcome four = run(4);
  ASSERT_EQ(one.weights.size(), four.weights.size());
  EXPECT_EQ(0, std::memcmp(one.weights.data(), four.weights.data(),
                           one.weights.size() * sizeof(float)));
  EXPECT_LT(four.clock_ns, one.clock_ns);
}

}  // namespace
}  // namespace plinius
