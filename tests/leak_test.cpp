// Leakage observatory tests: recorder coalescing/bounds, analyzer metrics,
// bitwise equivalence of the oblivious kernel variants, and the headline
// acceptance property — baseline kernels produce input-distinguishable
// traces, oblivious kernels produce bitwise input-independent ones — plus
// the determinism contract (thread-count invariance, recorded-vs-unrecorded
// bitwise identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/connected_layer.h"
#include "ml/conv_layer.h"
#include "ml/data.h"
#include "ml/im2col.h"
#include "ml/maxpool_layer.h"
#include "ml/network.h"
#include "ml/oblivious.h"
#include "ml/softmax_layer.h"
#include "obs/leakage.h"
#include "plinius/platform.h"
#include "serve/server.h"

#include "im2col_reference.h"

namespace plinius {
namespace {

using ml::ScopedObliviousKernels;
using obs::LeakEvent;
using obs::LeakKind;
using obs::LeakTrace;

// ---------------------------------------------------------------- recorder --

TEST(LeakRecorder, CoalescesContiguousPageRunsPerSite) {
  obs::PageTraceRecorder rec;
  rec.page_range("a", 0, 1);
  rec.page_range("a", 1, 2);  // extends 0..2
  rec.page_range("a", 5, 1);  // gap: new run
  rec.page_range("b", 6, 1);  // different site: new run
  const LeakTrace t = rec.events();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].value, 0u);
  EXPECT_EQ(t[0].count, 3u);
  EXPECT_EQ(t[1].value, 5u);
  EXPECT_STREQ(t[2].site, "b");
  EXPECT_EQ(rec.raw_page_events(), 5u);  // pre-coalescing page count
}

TEST(LeakRecorder, BranchRunsCoalesceByDirection) {
  obs::PageTraceRecorder rec;
  rec.branch("s", true);
  rec.branch("s", true);
  rec.branch("s", false);
  rec.branch("s", true);
  const LeakTrace t = rec.events();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].value, 1u);
  EXPECT_EQ(t[0].count, 2u);
  EXPECT_EQ(t[1].value, 0u);
  EXPECT_EQ(t[2].count, 1u);
  EXPECT_EQ(rec.raw_branch_events(), 4u);
}

TEST(LeakRecorder, MarksNeverCoalesceAndTouchPagesRounds) {
  obs::PageTraceRecorder rec;
  rec.mark("m");
  rec.mark("m");
  obs::set_page_trace_recorder(&rec);
  obs::touch_pages("p", 4090, 10);  // straddles the page boundary -> 2 pages
  obs::touch_pages("p", 0, 0);      // len 0: no event
  obs::set_page_trace_recorder(nullptr);
  const LeakTrace t = rec.events();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].kind, LeakKind::kMark);
  EXPECT_EQ(t[1].kind, LeakKind::kMark);
  EXPECT_EQ(t[2].value, 0u);
  EXPECT_EQ(t[2].count, 2u);
}

TEST(LeakRecorder, BoundedCapacityDropsNewestAndCounts) {
  obs::PageTraceRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) rec.mark("m");
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(LeakRecorder, ScopedRecorderInstallsAndRestores) {
  EXPECT_EQ(obs::page_trace_recorder(), nullptr);
  {
    obs::ScopedLeakRecorder outer;
    EXPECT_EQ(obs::page_trace_recorder(), &outer.recorder());
    {
      obs::ScopedLeakRecorder inner;
      EXPECT_EQ(obs::page_trace_recorder(), &inner.recorder());
    }
    EXPECT_EQ(obs::page_trace_recorder(), &outer.recorder());
  }
  EXPECT_EQ(obs::page_trace_recorder(), nullptr);
  // Hooks are no-ops (not crashes) with no recorder installed.
  obs::touch_pages("x", 0, 123);
  obs::leak_mark("x");
}

// ---------------------------------------------------------------- analyzer --

TEST(LeakAnalyzer, IdenticalTracesCarryNoInformation) {
  const LeakTrace t{{LeakKind::kPage, "a", 0, 3}, {LeakKind::kBranch, "b", 1, 7}};
  const std::vector<LeakTrace> traces(4, t);
  const obs::LeakageReport r = obs::analyze_traces(traces);
  EXPECT_EQ(r.traces, 4u);
  EXPECT_EQ(r.distinct, 1u);
  EXPECT_EQ(r.pairs, 6u);
  EXPECT_EQ(r.distinguishable_pairs, 0u);
  EXPECT_DOUBLE_EQ(r.score, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_edit_distance, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_position_entropy_bits, 0.0);
}

TEST(LeakAnalyzer, DistinctTracesAreFullyDistinguishable) {
  std::vector<LeakTrace> traces;
  for (std::uint32_t i = 0; i < 4; ++i) {
    traces.push_back({{LeakKind::kPage, "a", i, 1}, {LeakKind::kBranch, "b", i % 2, 3}});
  }
  const obs::LeakageReport r = obs::analyze_traces(traces);
  EXPECT_EQ(r.distinct, 4u);
  EXPECT_EQ(r.distinguishable_pairs, r.pairs);
  EXPECT_DOUBLE_EQ(r.score, 1.0);
  EXPECT_GT(r.mean_edit_distance, 0.0);
  EXPECT_GT(r.mean_position_entropy_bits, 0.0);
  EXPECT_LE(r.mean_position_entropy_bits, 2.0);  // log2(4) upper bound
}

TEST(LeakAnalyzer, FingerprintAndEqualityAreContentBased) {
  static const char site_a[] = "site";
  static const char site_b[] = "site";  // same content, different pointer
  const LeakTrace a{{LeakKind::kPage, site_a, 1, 2}};
  const LeakTrace b{{LeakKind::kPage, site_b, 1, 2}};
  EXPECT_TRUE(obs::traces_equal(a, b));
  EXPECT_EQ(obs::trace_fingerprint(a), obs::trace_fingerprint(b));
  const LeakTrace c{{LeakKind::kPage, site_a, 1, 3}};
  EXPECT_FALSE(obs::traces_equal(a, c));
  EXPECT_NE(obs::trace_fingerprint(a), obs::trace_fingerprint(c));
}

TEST(LeakAnalyzer, EditDistanceIsNormalizedAndSubsamples) {
  const LeakTrace a{{LeakKind::kBranch, "s", 1, 1}, {LeakKind::kBranch, "s", 0, 1}};
  EXPECT_DOUBLE_EQ(obs::trace_edit_distance(a, a), 0.0);
  const LeakTrace empty;
  EXPECT_DOUBLE_EQ(obs::trace_edit_distance(a, empty), 1.0);
  // Long traces go through subsampling without blowing up.
  LeakTrace big1, big2;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    big1.push_back({LeakKind::kPage, "p", i, 1});
    big2.push_back({LeakKind::kPage, "p", i + 1, 1});
  }
  const double d = obs::trace_edit_distance(big1, big2, /*max_symbols=*/256);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
}

// ------------------------------------------------- oblivious kernel parity --

// The rectifiers have three implementations that must agree bit for bit: the
// unrecorded default (branch-free), the recorded path (Darknet's sign branch,
// reported to the observatory) and the oblivious kernels — including on
// signed zeros, NaN, infinities and subnormals.
TEST(ObliviousKernels, ActivationBitwiseEqualToBaseline) {
  Rng rng(7);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 4,
                            -std::numeric_limits<float>::min() / 4};
  for (const ml::Activation act :
       {ml::Activation::kLeakyRelu, ml::Activation::kRelu}) {
    std::vector<float> x(512);
    for (auto& v : x) v = rng.normal();
    std::copy(std::begin(specials), std::end(specials), x.begin());
    std::vector<float> delta(x.size());
    for (auto& v : delta) v = rng.normal();
    // The special deltas sit where y is an ordinary value of either sign.
    std::copy(std::begin(specials), std::end(specials),
              delta.begin() + static_cast<std::ptrdiff_t>(std::size(specials)));

    auto run = [&](const char* path) {
      std::vector<float> y = x, d = delta;
      const std::string p = path;
      if (p == "oblivious") {
        ml::oblivious_activate(act, y.data(), y.size());
        ml::oblivious_activation_gradient(act, y.data(), d.data(), d.size());
      } else if (p == "recorded") {
        obs::ScopedLeakRecorder rec;
        ml::activate(act, y.data(), y.size());
        ml::gradient(act, y.data(), d.data(), d.size());
        EXPECT_EQ(rec.recorder().raw_branch_events(), 2 * x.size());
      } else {
        ml::activate(act, y.data(), y.size());
        ml::gradient(act, y.data(), d.data(), d.size());
      }
      y.insert(y.end(), d.begin(), d.end());
      return y;
    };
    const auto unrecorded = run("unrecorded");
    for (const char* path : {"recorded", "oblivious"}) {
      const auto other = run(path);
      EXPECT_EQ(std::memcmp(unrecorded.data(), other.data(),
                            unrecorded.size() * sizeof(float)),
                0)
          << ml::activation_name(act) << ": unrecorded vs " << path;
    }
  }
}

TEST(ObliviousKernels, MaxpoolForwardAndBackwardBitwiseEqual) {
  Rng rng(11);
  const ml::Shape in{3, 8, 8};
  const std::size_t batch = 2;
  std::vector<float> input(batch * in.size());
  for (auto& v : input) v = rng.normal();

  ml::MaxPoolLayer base(in, {2, 2});
  ml::MaxPoolLayer obl(in, {2, 2});
  base.prepare(batch);
  obl.prepare(batch);
  base.forward(input.data(), batch, true);
  {
    ScopedObliviousKernels scope;
    obl.forward(input.data(), batch, true);
  }
  ASSERT_EQ(base.output().size(), obl.output().size());
  EXPECT_EQ(std::memcmp(base.output().data(), obl.output().data(),
                        base.output().size() * sizeof(float)),
            0);

  // argmax_ equality is observable through backward's scatter.
  std::fill(base.delta().begin(), base.delta().end(), 1.0f);
  std::fill(obl.delta().begin(), obl.delta().end(), 1.0f);
  std::vector<float> d1(batch * in.size(), 0.0f), d2(batch * in.size(), 0.0f);
  base.backward(input.data(), d1.data(), batch);
  obl.backward(input.data(), d2.data(), batch);
  EXPECT_EQ(std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)), 0);
}

TEST(ObliviousKernels, FixedIm2colBitwiseEqualAcrossShapes) {
  Rng rng(13);
  for (const std::size_t ksize : {1u, 2u, 3u}) {
    for (const std::size_t stride : {1u, 2u}) {
      for (const std::size_t pad : {0u, 1u, 2u}) {
        const std::size_t c = 2, h = 7, w = 5;
        if (h + 2 * pad < ksize || w + 2 * pad < ksize) continue;
        std::vector<float> im(c * h * w);
        for (auto& v : im) v = rng.normal();
        const ml::LoweringPlan plan(ml::ConvShape{c, h, w, ksize, stride, pad});
        const std::size_t n = plan.col_size();
        std::vector<float> scratch(plan.scratch_size());
        std::vector<float> col_base(n, -1.0f), col_fixed(n, -2.0f);
        plan.im2col(im.data(), scratch.data(), col_base.data());
        ml::im2col_fixed(plan, im.data(), scratch.data(), col_fixed.data());
        EXPECT_EQ(std::memcmp(col_base.data(), col_fixed.data(), n * sizeof(float)),
                  0)
            << "k=" << ksize << " s=" << stride << " p=" << pad;
      }
    }
  }
}

// With a recorder attached, the plan's im2col emits exactly the per-row
// `im2col.pad_row` branch sequence of the per-element reference walk, and
// im2col_fixed exactly one `im2col.fixed` mark, on every shape of the grid
// (channels 1-3, height and width 1-9, ksize 1-5, stride 1-3, pad 0-2).
TEST(ObliviousKernels, Im2colPadRowTraceMatchesReferenceWalkOnShapeGrid) {
  const LeakTrace fixed_mark = {LeakEvent{LeakKind::kMark, "im2col.fixed", 0, 1}};
  std::size_t shapes = 0;
  for (std::size_t c = 1; c <= 3; ++c) {
    for (std::size_t h = 1; h <= 9; ++h) {
      for (std::size_t w = 1; w <= 9; ++w) {
        for (std::size_t k = 1; k <= 5; ++k) {
          for (std::size_t stride = 1; stride <= 3; ++stride) {
            for (std::size_t pad = 0; pad <= 2; ++pad) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const ml::ConvShape shape{c, h, w, k, stride, pad};
              const ml::LoweringPlan plan(shape);
              const std::vector<float> im(c * h * w, 1.0f);
              std::vector<float> scratch(plan.scratch_size()), col(plan.col_size());
              std::vector<bool> pad_rows;
              ml::reference::im2col(im.data(), shape, col.data(), &pad_rows);

              obs::PageTraceRecorder walk;
              for (const bool p : pad_rows) walk.branch("im2col.pad_row", p);
              const LeakTrace want = walk.events();
              const LeakTrace got = obs::record_leak_trace(
                  [&] { plan.im2col(im.data(), scratch.data(), col.data()); });
              const LeakTrace fixed = obs::record_leak_trace(
                  [&] { ml::im2col_fixed(plan, im.data(), scratch.data(), col.data()); });
              const std::string at = ml::reference::describe(shape);
              ASSERT_FALSE(want.empty()) << at;
              ASSERT_EQ(got, want) << at;
              ASSERT_EQ(fixed, fixed_mark) << at;
              ++shapes;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(shapes, 9000u);
}

ml::Dataset make_dataset(std::size_t rows, std::size_t x_cols, std::size_t y_cols,
                         std::uint64_t seed) {
  ml::Dataset d;
  d.x = ml::Matrix(rows, x_cols);
  d.y = ml::Matrix(rows, y_cols);
  Rng rng(seed);
  for (auto& v : d.x.values) v = rng.normal();
  for (std::size_t r = 0; r < rows; ++r) d.y.row(r)[rng.below(y_cols)] = 1.0f;
  return d;
}

std::multimap<float, std::vector<float>> row_multiset(const ml::Dataset& d) {
  std::multimap<float, std::vector<float>> rows;
  for (std::size_t r = 0; r < d.size(); ++r) {
    std::vector<float> row(d.x.row(r), d.x.row(r) + d.x.cols);
    row.insert(row.end(), d.y.row(r), d.y.row(r) + d.y.cols);
    rows.emplace(row[0], std::move(row));
  }
  return rows;
}

TEST(ObliviousKernels, ObliviousShufflePermutesAndIsSeedDeterministic) {
  const ml::Dataset original = make_dataset(23, 6, 3, 99);  // non-power-of-two
  ml::Dataset a = original, b = original, c = original;
  ml::oblivious_shuffle_dataset(a, 1);
  ml::oblivious_shuffle_dataset(b, 1);
  ml::oblivious_shuffle_dataset(c, 2);

  // Same multiset of (x, y) rows — nothing lost to the padding rows.
  EXPECT_EQ(row_multiset(a), row_multiset(original));
  EXPECT_EQ(row_multiset(c), row_multiset(original));
  // Same seed -> same permutation; different seed -> different one.
  EXPECT_EQ(a.x.values, b.x.values);
  EXPECT_EQ(a.y.values, b.y.values);
  EXPECT_NE(a.x.values, c.x.values);
  // And it actually permutes.
  EXPECT_NE(a.x.values, original.x.values);
}

TEST(ObliviousKernels, ShuffleTraceLeaksSeedOnlyInBaseline) {
  const ml::Dataset original = make_dataset(16, 300, 3, 7);
  std::vector<LeakTrace> baseline, oblivious;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    baseline.push_back(obs::record_leak_trace([&] {
      ml::Dataset d = original;
      ml::shuffle_dataset(d, seed);
    }));
    oblivious.push_back(obs::record_leak_trace([&] {
      ml::Dataset d = original;
      ScopedObliviousKernels scope;
      ml::shuffle_dataset(d, seed);
    }));
  }
  const obs::LeakageReport base_r = obs::analyze_traces(baseline);
  const obs::LeakageReport obl_r = obs::analyze_traces(oblivious);
  EXPECT_GE(base_r.distinct, 2u);
  EXPECT_GT(base_r.score, 0.5);
  EXPECT_EQ(obl_r.distinct, 1u);
  EXPECT_DOUBLE_EQ(obl_r.score, 0.0);
  EXPECT_DOUBLE_EQ(obl_r.mean_position_entropy_bits, 0.0);
  EXPECT_GT(obl_r.page_events, 0u);  // the trace is non-trivial, just constant
}

// ------------------------------------------------ network-level observatory --

ml::Network make_leak_net(std::uint64_t seed) {
  Rng rng(seed);
  ml::Network net(ml::Shape{1, 8, 8});
  ml::ConvConfig conv;
  conv.filters = 4;
  conv.ksize = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.batch_normalize = false;
  conv.activation = ml::Activation::kLeakyRelu;
  net.add(std::make_unique<ml::ConvLayer>(net.next_input_shape(), conv, rng));
  net.add(std::make_unique<ml::MaxPoolLayer>(net.next_input_shape(),
                                             ml::MaxPoolConfig{2, 2}));
  net.add(std::make_unique<ml::ConnectedLayer>(
      net.next_input_shape(), ml::ConnectedConfig{10, ml::Activation::kLinear}, rng));
  net.add(std::make_unique<ml::SoftmaxLayer>(net.next_input_shape()));
  return net;
}

std::vector<std::vector<float>> make_secret_inputs(std::size_t n, std::size_t len,
                                                   std::uint64_t seed) {
  std::vector<std::vector<float>> inputs(n, std::vector<float>(len));
  Rng rng(seed);
  for (auto& in : inputs) {
    for (auto& v : in) v = rng.normal();
  }
  return inputs;
}

TEST(LeakObservatory, BaselineForwardDistinguishesInputsObliviousDoesNot) {
  ml::Network net = make_leak_net(21);
  const auto inputs = make_secret_inputs(4, net.input_shape().size(), 5);

  std::vector<LeakTrace> baseline, oblivious;
  for (const auto& in : inputs) {
    baseline.push_back(
        obs::record_leak_trace([&] { net.forward(in.data(), 1, false); }));
    oblivious.push_back(obs::record_leak_trace([&] {
      ScopedObliviousKernels scope;
      net.forward(in.data(), 1, false);
    }));
  }
  const obs::LeakageReport base_r = obs::analyze_traces(baseline);
  EXPECT_GE(base_r.distinct, 2u);
  EXPECT_GE(base_r.score, 0.5);
  EXPECT_GT(base_r.branch_events, 0u);

  const obs::LeakageReport obl_r = obs::analyze_traces(oblivious);
  EXPECT_EQ(obl_r.distinct, 1u);
  EXPECT_DOUBLE_EQ(obl_r.score, 0.0);
  EXPECT_DOUBLE_EQ(obl_r.mean_position_entropy_bits, 0.0);
  EXPECT_EQ(obl_r.branch_events, 0u);  // every secret-dependent branch removed
  EXPECT_GT(obl_r.page_events, 0u);
}

TEST(LeakObservatory, BaselineForwardDistinguishesWeightPerturbations) {
  const auto input = make_secret_inputs(1, 64, 17)[0];
  std::vector<LeakTrace> baseline, oblivious;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ml::Network net = make_leak_net(seed);  // different weights per secret
    baseline.push_back(
        obs::record_leak_trace([&] { net.forward(input.data(), 1, false); }));
    oblivious.push_back(obs::record_leak_trace([&] {
      ScopedObliviousKernels scope;
      net.forward(input.data(), 1, false);
    }));
  }
  EXPECT_GE(obs::analyze_traces(baseline).score, 0.5);
  EXPECT_DOUBLE_EQ(obs::analyze_traces(oblivious).score, 0.0);
}

TEST(LeakObservatory, ObliviousVariantsPreserveForwardBitwise) {
  ml::Network base = make_leak_net(33);
  ml::Network obl = make_leak_net(33);
  const auto input = make_secret_inputs(1, base.input_shape().size(), 3)[0];
  base.forward(input.data(), 1, false);
  {
    ScopedObliviousKernels scope;
    obl.forward(input.data(), 1, false);
  }
  ASSERT_EQ(base.output().size(), obl.output().size());
  EXPECT_EQ(std::memcmp(base.output().data(), obl.output().data(),
                        base.output().size() * sizeof(float)),
            0);
}

std::vector<float> train_and_collect_weights(bool traced, std::uint64_t seed) {
  ml::Network net = make_leak_net(seed);
  const auto data = make_dataset(32, net.input_shape().size(), 10, seed + 1);
  obs::PageTraceRecorder rec;
  if (traced) obs::set_page_trace_recorder(&rec);
  for (int step = 0; step < 4; ++step) {
    net.train_batch(data.x.values.data(), data.y.values.data(), 8);
  }
  if (traced) obs::set_page_trace_recorder(nullptr);
  std::vector<float> weights;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    for (const auto& p : net.layer(l).parameters()) {
      weights.insert(weights.end(), p.values.begin(), p.values.end());
    }
  }
  if (traced) {
    EXPECT_GT(rec.size(), 0u);
  }
  return weights;
}

TEST(LeakObservatory, RecordingNeverPerturbsTrainingResults) {
  const auto untraced = train_and_collect_weights(false, 55);
  const auto traced = train_and_collect_weights(true, 55);
  ASSERT_EQ(untraced.size(), traced.size());
  EXPECT_EQ(std::memcmp(untraced.data(), traced.data(),
                        untraced.size() * sizeof(float)),
            0);
}

LeakTrace record_thread_sweep_workload() {
  return obs::record_leak_trace([] {
    ml::Network net = make_leak_net(77);
    const auto data = make_dataset(32, net.input_shape().size(), 10, 78);
    for (int step = 0; step < 2; ++step) {
      net.train_batch(data.x.values.data(), data.y.values.data(), 8);
    }
    ml::Dataset d = data;
    ml::shuffle_dataset(d, 5);
    net.forward(d.x.values.data(), 4, false);
  });
}

TEST(LeakObservatory, TraceIdenticalAcrossThreadCounts) {
  const std::size_t original = par::max_threads();
  std::vector<LeakTrace> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::set_max_threads(threads);
    runs.push_back(record_thread_sweep_workload());
  }
  par::set_max_threads(original);
  ASSERT_GT(runs.front().size(), 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(obs::traces_equal(runs[i], runs.front())) << "threads run " << i;
  }
}

TEST(LeakObservatory, ServePathEmitsMarksAndEnclavePageEvents) {
  Platform platform(MachineProfile::sgx_emlpm(), 64u << 20);
  ml::Network net = make_leak_net(91);
  const Bytes key(16, 0);
  crypto::AesGcm gcm(key);
  serve::InferenceServer server(platform, net, gcm, serve::ServerOptions{});
  const auto input = make_secret_inputs(1, net.input_shape().size(), 9)[0];
  crypto::IvSequence client_iv(3);
  serve::Request req;
  req.arrival_ns = platform.clock().now();
  req.sealed_query = crypto::seal(gcm, client_iv, float_bytes(input));

  std::vector<serve::Completion> done;
  const LeakTrace t = obs::record_leak_trace(
      [&] { done = server.run(std::span<const serve::Request>(&req, 1)); });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].served());
  // The server prices the model touch with touch_task_ns (no sgx.touch
  // event); the page events come from the model's own layers.
  bool saw_batch = false, saw_model_pages = false;
  for (const LeakEvent& ev : t) {
    if (ev.kind == LeakKind::kMark && std::strcmp(ev.site, "serve.batch") == 0) {
      saw_batch = true;
    }
    if (ev.kind == LeakKind::kPage && (std::strcmp(ev.site, "conv.weights") == 0 ||
                                       std::strcmp(ev.site, "fc.weights") == 0)) {
      saw_model_pages = true;
    }
  }
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_model_pages);
}

}  // namespace
}  // namespace plinius
