// Real wall-clock micro-benchmarks (google-benchmark) for the kernels the
// simulation's cost models abstract: AES-GCM sealing, SHA-256, GEMM,
// im2col/col2im, one conv and one connected layer's training step, PM-device
// set-up and store/flush bookkeeping, Romulus transactions (a small one, a
// 40 MB commit, and recovery from a torn 40 MB one), and the PM mirror's
// restore and pipelined save of an FC model. These measure the
// *host* machine, not the simulated one — useful for validating that the
// framework's real compute (which does run) is not a bottleneck for the
// experiment harnesses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "ml/gemm.h"
#include "ml/gemm_reference.h"
#include "ml/connected_layer.h"
#include "ml/conv_layer.h"
#include "ml/im2col.h"
#include "ml/network.h"
#include "ml/softmax_layer.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "pm/device.h"
#include "romulus/romulus.h"

namespace {

using namespace plinius;

// Sizes x every GCM kernel this CPU runs, portable included; the label
// names the kernel, so the JSON gives host throughput per kernel.
void gcm_kernel_args(benchmark::internal::Benchmark* b) {
  for (const crypto::GcmKernel kernel : crypto::detail::runnable_gcm_kernels()) {
    for (const std::int64_t bytes : {std::int64_t{4096}, std::int64_t{1} << 20}) {
      b->Args({bytes, static_cast<std::int64_t>(kernel)});
    }
  }
  b->ArgNames({"bytes", "kernel"});
}

const char* gcm_kernel_label(crypto::GcmKernel kernel) {
  switch (kernel) {
    case crypto::GcmKernel::kPortable: return "portable";
    case crypto::GcmKernel::kClmul8: return "clmul8";
    case crypto::GcmKernel::kVaes512: return "vaes512";
  }
  return "?";
}

void BM_AesGcmSeal(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto kernel = static_cast<crypto::GcmKernel>(state.range(1));
  Bytes key(16), plain(n);
  Rng rng(1);
  rng.fill(key.data(), key.size());
  rng.fill(plain.data(), plain.size());
  const crypto::AesGcm gcm(key, kernel);
  Bytes out(crypto::sealed_size(n));
  crypto::IvSequence iv_seq(2);
  for (auto _ : state) {
    crypto::seal_into(gcm, iv_seq, plain, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel(gcm_kernel_label(kernel));
}
BENCHMARK(BM_AesGcmSeal)->Apply(gcm_kernel_args);

void BM_AesGcmOpen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto kernel = static_cast<crypto::GcmKernel>(state.range(1));
  Bytes key(16), plain(n);
  Rng rng(1);
  rng.fill(key.data(), key.size());
  rng.fill(plain.data(), plain.size());
  const crypto::AesGcm gcm(key, kernel);
  crypto::IvSequence iv_seq(2);
  const Bytes sealed = crypto::seal(gcm, iv_seq, plain);
  Bytes out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::open_into(gcm, sealed, out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel(gcm_kernel_label(kernel));
}
BENCHMARK(BM_AesGcmOpen)->Apply(gcm_kernel_args);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Rng(3).fill(data.data(), data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Sha256)->Arg(1 << 16);

// C[m x n] += A[m x k] * B[k x n] on one thread. 16 x 2048 x 2048 is the
// input gradient of mirror_heavy's 2048 -> 2048 connected layer at batch 16:
// B's rows are 8 KiB apart, so it takes the panel-packed walk. 50 x 100 x 72
// leaves a row tail on both bands' tile heights (6 and 16) and a 4-column
// tail, so it times the remainder kernels.
void BM_GemmNN(benchmark::State& state) {
  const std::size_t saved = par::max_threads();
  par::set_max_threads(1);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
  Rng rng(4);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    ml::gemm_nn(m, n, k, 1.0f, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * n * k,
      benchmark::Counter::kIsRate);
  par::set_max_threads(saved);
}
BENCHMARK(BM_GemmNN)
    ->Args({64, 64, 64})
    ->Args({256, 256, 256})
    ->Args({16, 2048, 2048})
    ->Args({50, 100, 72})
    ->ArgNames({"m", "n", "k"})
    ->Unit(benchmark::kMicrosecond);

// The seed's scalar triple-loop kernel (ml/gemm_reference.cc), kept as the
// baseline the blocked/SIMD/parallel kernel is measured against.
void BM_GemmNNScalarRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  Rng rng(4);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    ml::reference::gemm_nn(n, n, n, 1.0f, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNNScalarRef)->Arg(64)->Arg(256);

// Host thread sweep of the blocked kernel (range(1) = thread count). The
// results are bitwise identical at every point of the sweep — only the
// wall-clock changes.
void BM_GemmNNThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = par::max_threads();
  par::set_max_threads(threads);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  Rng rng(4);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    ml::gemm_nn(n, n, n, 1.0f, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
  par::set_max_threads(saved);
}
BENCHMARK(BM_GemmNNThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

// INT8 GEMM panels: the square sizes of the float panels above, so the
// bench_json artifact carries a direct float-vs-int8 ratio per size, then
// the products QuantizedNetwork::forward issues for paper_5layer.cfg: its
// third conv layer (16 filters x 49 pixels x 144 taps) and, in BM_GemmS8NT,
// its connected layer at the cfg's batch of 128 (128 x 10 outputs x 512
// inputs). GOP/s counts one int8 multiply-accumulate as two ops, mirroring
// the float GFLOP/s counter.
void gemm_s8_bench(benchmark::State& state, bool transposed) {
  const std::size_t saved = par::max_threads();
  par::set_max_threads(1);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  std::vector<std::int8_t> a(m * k), b(k * n);
  std::vector<std::int32_t> c(m * n, 0);
  Rng rng(4);
  for (auto& v : a) v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  for (auto& v : b) v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  for (auto _ : state) {
    if (transposed) {
      ml::gemm_s8_nt(m, n, k, a.data(), b.data(), c.data());
    } else {
      ml::gemm_s8_nn(m, n, k, a.data(), b.data(), c.data());
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * n * k,
      benchmark::Counter::kIsRate);
  par::set_max_threads(saved);
}
void BM_GemmS8NN(benchmark::State& state) { gemm_s8_bench(state, false); }
void BM_GemmS8NT(benchmark::State& state) { gemm_s8_bench(state, true); }
BENCHMARK(BM_GemmS8NN)
    ->Args({64, 64, 64})
    ->Args({256, 256, 256})
    ->Args({16, 49, 144})
    ->ArgNames({"m", "n", "k"})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmS8NT)
    ->Args({128, 10, 512})
    ->ArgNames({"m", "n", "k"})
    ->Unit(benchmark::kMicrosecond);

void BM_GemmS8NNScalarRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int8_t> a(n * n), b(n * n);
  std::vector<std::int32_t> c(n * n, 0);
  Rng rng(4);
  for (auto& v : a) v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  for (auto& v : b) v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  for (auto _ : state) {
    ml::reference::gemm_s8_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmS8NNScalarRef)->Arg(64)->Arg(256);

void BM_GemmS8NNThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = par::max_threads();
  par::set_max_threads(threads);
  std::vector<std::int8_t> a(n * n), b(n * n);
  std::vector<std::int32_t> c(n * n, 0);
  Rng rng(4);
  for (auto& v : a) v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  for (auto& v : b) v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  for (auto _ : state) {
    ml::gemm_s8_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
  par::set_max_threads(saved);
}
BENCHMARK(BM_GemmS8NNThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

// The conv shapes the benchmarks train and serve, all 3x3 with pad 1, as
// {channels, height, width, stride}: paper_5layer.cfg's five layers, then the
// serving CNN's second (make_cnn_config(2, 4, .); its first is the paper's).
void conv_shapes(benchmark::internal::Benchmark* b) {
  for (const auto& [c, h, w, s] : {std::array<std::int64_t, 4>{1, 28, 28, 2},
                                   {8, 14, 14, 2},
                                   {16, 7, 7, 1},
                                   {16, 7, 7, 2},
                                   {32, 4, 4, 1},
                                   {4, 14, 14, 2}}) {
    b->Args({c, h, w, s});
  }
  b->ArgNames({"c", "h", "w", "stride"});
}

ml::LoweringPlan plan_for(const benchmark::State& state) {
  return ml::LoweringPlan(ml::ConvShape{static_cast<std::size_t>(state.range(0)),
                                        static_cast<std::size_t>(state.range(1)),
                                        static_cast<std::size_t>(state.range(2)), 3,
                                        static_cast<std::size_t>(state.range(3)), 1});
}

void BM_Im2col(benchmark::State& state) {
  const ml::LoweringPlan plan = plan_for(state);
  const ml::ConvShape& s = plan.shape();
  std::vector<float> im(s.channels * s.height * s.width), scratch(plan.scratch_size()),
      col(plan.col_size());
  Rng rng(5);
  for (auto& v : im) v = rng.normal();
  for (auto _ : state) {
    plan.im2col(im.data(), scratch.data(), col.data());
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * col.size()));
}
BENCHMARK(BM_Im2col)->Apply(conv_shapes);

void BM_Col2im(benchmark::State& state) {
  ml::LoweringPlan plan = plan_for(state);
  const ml::ConvShape& s = plan.shape();
  std::vector<float> im(s.channels * s.height * s.width), col(plan.col_size());
  Rng rng(5);
  for (auto& v : col) v = rng.normal();
  for (auto _ : state) {
    plan.col2im(col.data(), im.data());
    benchmark::DoNotOptimize(im.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * col.size()));
}
BENCHMARK(BM_Col2im)->Apply(conv_shapes);

// One ConvLayer training step's layer work, forward then backward, at the
// paper model's batch of 128 on one thread, over paper_5layer.cfg's five conv
// layers as {channels, height, width, filters, stride} (3x3, pad 1). The
// first layer, as in the network, computes no input gradient. Each
// iteration also copies a fixed seed into the layer's delta, which backward
// consumes in place.
void BM_ConvTrainStep(benchmark::State& state) {
  const std::size_t saved = par::max_threads();
  par::set_max_threads(1);
  const ml::Shape in{static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)),
                     static_cast<std::size_t>(state.range(2))};
  ml::ConvConfig cfg;
  cfg.filters = static_cast<std::size_t>(state.range(3));
  cfg.stride = static_cast<std::size_t>(state.range(4));
  constexpr std::size_t kBatch = 128;
  Rng rng(7);
  ml::ConvLayer layer(in, cfg, rng);
  layer.prepare(kBatch);
  std::vector<float> x(kBatch * in.size()), seed(layer.delta().size());
  for (auto& v : x) v = rng.normal();
  for (auto& v : seed) v = 0.01f * rng.normal();
  std::vector<float> input_delta(in.c == 1 ? 0 : x.size());
  for (auto _ : state) {
    layer.forward(x.data(), kBatch, /*train=*/true);
    std::copy(seed.begin(), seed.end(), layer.delta().begin());
    layer.backward(x.data(), input_delta.empty() ? nullptr : input_delta.data(), kBatch);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
  par::set_max_threads(saved);
}
BENCHMARK(BM_ConvTrainStep)
    ->Args({1, 28, 28, 8, 2})
    ->Args({8, 14, 14, 16, 2})
    ->Args({16, 7, 7, 16, 1})
    ->Args({16, 7, 7, 32, 2})
    ->Args({32, 4, 4, 32, 1})
    ->ArgNames({"c", "h", "w", "filters", "stride"})
    ->Unit(benchmark::kMicrosecond);

// One ConnectedLayer training step, forward + backward + update, of
// mirror_heavy's 2048 -> 2048 leaky layer at batch 16 on one thread. The
// layer computes its input gradient, as every layer but the first does.
void BM_ConnectedTrainStep(benchmark::State& state) {
  const std::size_t saved = par::max_threads();
  par::set_max_threads(1);
  const auto width = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  ml::ConnectedConfig cfg;
  cfg.outputs = width;
  cfg.activation = ml::Activation::kLeakyRelu;
  Rng rng(8);
  ml::ConnectedLayer layer(ml::Shape{width, 1, 1}, cfg, rng);
  layer.prepare(batch);
  std::vector<float> x(batch * width), seed(layer.delta().size());
  std::vector<float> input_delta(x.size());
  for (auto& v : x) v = rng.normal();
  for (auto& v : seed) v = 0.01f * rng.normal();
  const ml::SgdParams hyper{0.01f, 0.9f, 0.0005f};
  for (auto _ : state) {
    layer.forward(x.data(), batch, /*train=*/true);
    std::copy(seed.begin(), seed.end(), layer.delta().begin());
    layer.backward(x.data(), input_delta.data(), batch);
    layer.update(hyper, batch);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch));
  par::set_max_threads(saved);
}
BENCHMARK(BM_ConnectedTrainStep)
    ->Args({2048, 16})
    ->ArgNames({"width", "batch"})
    ->Unit(benchmark::kMicrosecond);

void BM_PmStoreFlushFence(benchmark::State& state) {
  sim::Clock clock;
  pm::PmDevice dev(clock, 1 << 20, pm::PmLatencyModel::optane());
  Bytes data(4096);
  Rng(6).fill(data.data(), data.size());
  for (auto _ : state) {
    dev.store(0, data.data(), data.size());
    dev.flush(0, data.size(), pm::FlushKind::kClflushOpt);
    dev.fence(pm::FenceKind::kSfence);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_PmStoreFlushFence);

void BM_RomulusTransaction(benchmark::State& state) {
  sim::Clock clock;
  constexpr std::size_t kMain = 1 << 20;
  pm::PmDevice dev(clock, romulus::Romulus::region_bytes(kMain),
                   pm::PmLatencyModel::optane());
  romulus::Romulus rom(dev, 0, kMain, romulus::PwbPolicy::clflushopt_sfence(), true);
  std::size_t off = 0;
  rom.run_transaction([&] { off = rom.pmalloc(4096); });
  std::uint64_t v = 0;
  for (auto _ : state) {
    rom.run_transaction([&] {
      for (int i = 0; i < 8; ++i) rom.tx_assign(off + 8 * i, ++v);
    });
  }
}
BENCHMARK(BM_RomulusTransaction);

// Setting up and tearing down one device of state.range(0) MB: mirror_heavy's
// is 176 MB, train_pipelined's 128 and serve_reload's 64. The image is
// demand-zero, so this times the bitmaps and an unpopulated mapping; a page
// is paid for at its first write (BM_PmFirstStore).
void BM_PmDeviceCreate(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0)) << 20;
  for (auto _ : state) {
    sim::Clock clock;
    pm::PmDevice dev(clock, bytes, pm::PmLatencyModel::optane());
    benchmark::DoNotOptimize(dev.data());
  }
}
BENCHMARK(BM_PmDeviceCreate)->Arg(64)->Arg(176)->ArgName("mb")->Unit(benchmark::kMillisecond);

// A 40 MB store of new bytes (mirror_heavy's sealed model) into a fresh
// device (touched:0), whose image pages are faulted in by the store, against
// the same store into a device that already stored, flushed and fenced other
// bytes there (touched:1). Both save the same undo entries; the fresh device
// also allocates their blocks. Setting up and tearing down are not timed.
void BM_PmFirstStore(benchmark::State& state) {
  constexpr std::size_t kBytes = 40u << 20;
  const bool touched = state.range(0) != 0;
  Bytes payload(kBytes);
  Bytes other(kBytes);
  Rng(21).fill(payload.data(), kBytes);
  Rng(22).fill(other.data(), kBytes);
  sim::Clock clock;
  for (auto _ : state) {
    state.PauseTiming();
    auto dev = std::make_unique<pm::PmDevice>(clock, kBytes, pm::PmLatencyModel::optane());
    if (touched) {
      dev->store(0, other.data(), kBytes);
      dev->flush(0, kBytes, pm::FlushKind::kClflushOpt);
      dev->fence(pm::FenceKind::kSfence);
    }
    state.ResumeTiming();
    dev->store(0, payload.data(), kBytes);
    benchmark::DoNotOptimize(dev->data());
    benchmark::ClobberMemory();
    state.PauseTiming();
    dev.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kBytes));
}
BENCHMARK(BM_PmFirstStore)->Arg(0)->Arg(1)->ArgName("touched")->Unit(benchmark::kMillisecond);

// 40 MB of main (mirror_heavy's sealed model) on a 176 MB device: two
// payloads that differ in every line, so each transaction changes them all.
constexpr std::size_t kTornMain = 88u << 20;
constexpr std::size_t kTornBytes = 40u << 20;

struct TornRig {
  TornRig()
      : dev(clock, romulus::Romulus::region_bytes(kTornMain), pm::PmLatencyModel::optane()),
        payload{Bytes(kTornBytes), Bytes(kTornBytes)} {
    Rng(13).fill(payload[0].data(), kTornBytes);
    Rng(14).fill(payload[1].data(), kTornBytes);
  }
  // One transaction's user stores: the payload written in place into main.
  void fill(romulus::Romulus& rom, std::size_t off, const Bytes& src) {
    rom.tx_fill(off, kTornBytes,
                [&](std::uint8_t* dst) { std::memcpy(dst, src.data(), kTornBytes); });
  }
  sim::Clock clock;
  pm::PmDevice dev;
  std::array<Bytes, 2> payload;
};

// A 40 MB tx_fill and its commit: the PWBs, the four fences and the copy of
// main into back. The rig's device is demand-zero, so one untimed
// transaction per payload first faults in main and back; the timed loop
// then measures commits only, not first-touch page faults.
void BM_RomulusCommit(benchmark::State& state) {
  TornRig rig;
  romulus::Romulus rom(rig.dev, 0, kTornMain, romulus::PwbPolicy::clflushopt_sfence(), true);
  std::size_t off = 0;
  rom.run_transaction([&] { off = rom.pmalloc(kTornBytes); });
  std::size_t i = 0;
  const auto commit = [&] {
    rom.begin_transaction();
    rig.fill(rom, off, rig.payload[++i % 2]);
    rom.end_transaction();
  };
  commit();
  commit();
  for (auto _ : state) commit();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kTornBytes));
}
BENCHMARK(BM_RomulusCommit)->Unit(benchmark::kMillisecond);

// Re-attaching after a power failure in the middle of a 40 MB transaction
// whose stores had all persisted: recovery restores main from back. Tearing
// the transaction is not timed.
void BM_RomulusRecoverMutating(benchmark::State& state) {
  TornRig rig;
  const auto policy = romulus::PwbPolicy::clflushopt_sfence();
  std::size_t off = 0;
  {
    romulus::Romulus rom(rig.dev, 0, kTornMain, policy, true);
    rom.run_transaction([&] { off = rom.pmalloc(kTornBytes); });
  }
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      romulus::Romulus rom(rig.dev, 0, kTornMain, policy, false);
      rom.begin_transaction();
      rig.fill(rom, off, rig.payload[++i % 2]);
      rig.dev.crash(pm::PmDevice::CrashOutcome::kPersistAll);
      rom.abandon_transaction();
    }
    state.ResumeTiming();
    romulus::Romulus recovered(rig.dev, 0, kTornMain, policy, false);
    benchmark::DoNotOptimize(recovered.main_base());
  }
}
BENCHMARK(BM_RomulusRecoverMutating)->Unit(benchmark::kMillisecond);

// The FC model of the mirror-bound workloads: 784 -> width x 3 -> 10 leaky
// connected layers and a softmax head (width 2048: ~40 MB of weights).
ml::Network fc_model(std::size_t width, Rng& rng) {
  ml::Network net(ml::Shape{784, 1, 1});
  ml::Shape in{784, 1, 1};
  for (const std::size_t outputs : {width, width, width, std::size_t{10}}) {
    ml::ConnectedConfig cfg;
    cfg.outputs = outputs;
    cfg.activation = outputs == 10 ? ml::Activation::kLinear : ml::Activation::kLeakyRelu;
    net.add(std::make_unique<ml::ConnectedLayer>(in, cfg, rng));
    in = ml::Shape{outputs, 1, 1};
  }
  net.add(std::make_unique<ml::SoftmaxLayer>(in));
  return net;
}

/// A PM device holding one Romulus region with room for `copies` sealed
/// copies of `net`.
struct MirrorRig {
  MirrorRig(ml::Network& net, std::size_t copies)
      : main_bytes(copies * net.parameter_bytes() + (8u << 20)),
        platform(MachineProfile::emlsgx_pm(), romulus::Romulus::region_bytes(main_bytes)),
        rom(platform.pm(), 0, main_bytes, romulus::PwbPolicy::clflushopt_sfence(), true) {}
  std::size_t main_bytes;
  Platform platform;
  romulus::Romulus rom;
};

// Recovery's mirror_in: a new MirrorModel restores the sealed model into a
// network just built for it. Building them is not timed.
void BM_MirrorRestore(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  ml::Network net = fc_model(width, rng);
  MirrorRig rig(net, 1);
  const Bytes key(16, 0x42);
  MirrorModel writer(rig.rom, rig.platform.enclave(), crypto::AesGcm(key));
  writer.alloc(net);
  writer.mirror_out(net, 1);
  std::optional<ml::Network> fresh;
  std::optional<MirrorModel> mirror;
  for (auto _ : state) {
    state.PauseTiming();
    fresh.reset();
    mirror.reset();
    fresh.emplace(fc_model(width, rng));
    mirror.emplace(rig.rom, rig.platform.enclave(), crypto::AesGcm(key));
    state.ResumeTiming();
    benchmark::DoNotOptimize(mirror->mirror_in(*fresh));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.parameter_bytes()));
}
BENCHMARK(BM_MirrorRestore)->Arg(2048)->ArgName("width")->Unit(benchmark::kMillisecond);

// One pipelined save of a replicated mirror on four TCS: stage and seal
// (begin_async_save), then join and commit (complete_async_save).
void BM_PipelinedSave(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  ml::Network net = fc_model(width, rng);
  MirrorRig rig(net, 2);  // primary + A/B replica
  rig.platform.enclave().set_tcs_count(4);
  MirrorModel mirror(rig.rom, rig.platform.enclave(), crypto::AesGcm(Bytes(16, 0x43)),
                     MirrorOptions{true});
  mirror.alloc(net);
  sgx::ChargeStream stream = rig.platform.enclave().open_stream(4);
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    mirror.begin_async_save(net, ++iteration, stream);
    benchmark::DoNotOptimize(mirror.complete_async_save(stream));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.parameter_bytes()));
}
BENCHMARK(BM_PipelinedSave)->Arg(1024)->ArgName("width")->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
