// Observability subsystem tests: tracer nesting/determinism, bounded ring,
// zero-cost-when-disabled bitwise identity of trainer+serve timings,
// registry series semantics, and the exporters (Chrome trace JSON, category
// rollup, subtree attribution).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/stats_bridge.h"
#include "obs/trace.h"
#include "pm/device.h"
#include "plinius/platform.h"
#include "plinius/pm_data.h"
#include "plinius/trainer.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace plinius {
namespace {

// ---------------------------------------------------------------- tracer --

TEST(Tracer, NestingParentDepthAndAttrs) {
  obs::Tracer t;
  const std::uint64_t a = t.open(obs::Category::kTrainIter, "outer", 100);
  const std::uint64_t b = t.open(obs::Category::kGcm, "inner", 150);
  t.close(b, 180);
  const obs::Attr attr{"bytes", 4096};
  t.close(a, 200, &attr, 1);

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Ring order is completion order: inner closes first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, a);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_DOUBLE_EQ(spans[0].begin_ns, 150);
  EXPECT_DOUBLE_EQ(spans[0].end_ns, 180);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].depth, 0u);
  ASSERT_EQ(spans[1].num_attrs, 1u);
  EXPECT_STREQ(spans[1].attrs[0].key, "bytes");
  EXPECT_DOUBLE_EQ(spans[1].attrs[0].value, 4096);
}

TEST(Tracer, CompleteNestsUnderInnermostOpenSpan) {
  obs::Tracer t;
  const std::uint64_t a = t.open(obs::Category::kMirrorSave, "save", 0);
  const std::uint64_t leaf =
      t.complete(obs::Category::kGcm, "seal.gcm", 10, 20);
  t.close(a, 30);

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, leaf);
  EXPECT_EQ(spans[0].parent, a);
  // An explicit parent wins over the open stack.
  const std::uint64_t c = t.open(obs::Category::kOther, "open", 40);
  const std::uint64_t leaf2 =
      t.complete(obs::Category::kGcm, "explicit", 41, 42, /*parent=*/a);
  t.close(c, 50);
  for (const auto& s : t.spans()) {
    if (s.id == leaf2) {
      EXPECT_EQ(s.parent, a);
    }
  }
}

TEST(Tracer, RaiiSpanReadsClockAndNeverAdvancesIt) {
  sim::Clock clock;
  obs::Tracer t;
  clock.set_tracer(&t);
  clock.advance(100);
  {
    obs::Span s(clock, obs::Category::kCompute, "work");
    clock.advance(50);
    s.attr("macs", 1e6);
  }
  EXPECT_DOUBLE_EQ(clock.now(), 150);  // spans only observe the clock
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].begin_ns, 100);
  EXPECT_DOUBLE_EQ(spans[0].end_ns, 150);
  clock.set_tracer(nullptr);
}

TEST(Tracer, DisabledTracerAndDetachedClockRecordNothing) {
  sim::Clock clock;
  obs::Tracer t;
  clock.set_tracer(&t);
  t.set_enabled(false);
  {
    obs::Span s(clock, obs::Category::kCompute, "off");
    clock.advance(10);
  }
  obs::trace_complete(clock, obs::Category::kGcm, "off2", 0, 5);
  EXPECT_EQ(t.size(), 0u);
  clock.set_tracer(nullptr);
  t.set_enabled(true);
  {
    obs::Span s(clock, obs::Category::kCompute, "no-tracer");
    clock.advance(10);
  }
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, BoundedRingEvictsOldestAndCountsDrops) {
  obs::Tracer t(/*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    t.complete(obs::Category::kOther, "leaf", i, i + 1);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  EXPECT_EQ(t.total_recorded(), 20u);
  const auto spans = t.spans();
  // Newest 8 survive, oldest first; ids keep growing across eviction.
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_DOUBLE_EQ(spans.front().begin_ns, 12);
  EXPECT_DOUBLE_EQ(spans.back().begin_ns, 19);
  EXPECT_LT(spans.front().id, spans.back().id);

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, CancelDiscardsInnermostOpenSpan) {
  obs::Tracer t;
  const std::uint64_t a = t.open(obs::Category::kRomulusTx, "tx", 0);
  const std::uint64_t b = t.open(obs::Category::kGcm, "inner", 1);
  t.cancel(b);  // crash path: discard without committing
  t.close(a, 10);
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "tx");
  EXPECT_EQ(t.cancelled(), 1u);
  t.clear();
  EXPECT_EQ(t.cancelled(), 0u);
}

// tools/validate_obs.py checks every trace event's `cat` against its own
// CATEGORIES set, a hand-kept copy of the obs::Category names.
TEST(Tracer, ValidatorCategoriesMatchCategoryNames) {
  std::ifstream in(PLINIUS_DATA_DIR "/../tools/validate_obs.py");
  ASSERT_TRUE(in) << "cannot open tools/validate_obs.py";
  std::ostringstream text;
  text << in.rdbuf();
  const std::string py = text.str();
  const std::size_t begin = py.find("CATEGORIES = {");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = py.find('}', begin);
  ASSERT_NE(end, std::string::npos);

  std::set<std::string> validator;
  for (std::size_t q = py.find('"', begin); q < end; q = py.find('"', q + 1)) {
    const std::size_t close = py.find('"', q + 1);
    ASSERT_LT(close, end);
    validator.insert(py.substr(q + 1, close - q - 1));
    q = close;
  }
  std::set<std::string> names;
  for (std::size_t c = 0; c < obs::kCategoryCount; ++c) {
    names.insert(obs::to_string(static_cast<obs::Category>(c)));
  }
  EXPECT_EQ(validator, names);
}

TEST(Tracer, RingAccountingPublishesAsGauges) {
  obs::Tracer t(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    t.complete(obs::Category::kOther, "leaf", i, i + 1);
  }
  const std::uint64_t open = t.open(obs::Category::kGcm, "doomed", 10);
  t.cancel(open);

  obs::Registry reg;
  obs::publish(reg, t, {{"platform", "test"}});
  EXPECT_DOUBLE_EQ(reg.gauge("obs.trace.recorded", {{"platform", "test"}}), 10.0);
  EXPECT_DOUBLE_EQ(reg.gauge("obs.trace.evicted", {{"platform", "test"}}), 6.0);
  EXPECT_DOUBLE_EQ(reg.gauge("obs.trace.cancelled", {{"platform", "test"}}), 1.0);
}

// ------------------------------------------------------------- workloads --

struct WorkloadResult {
  double final_clock_ns = 0;
  float accuracy = 0;
  double serve_goodput = 0;
  double serve_p99_ns = 0;
  std::uint64_t spans = 0;
  std::vector<obs::SpanRecord> trace;
};

/// Short train + serve run; `tracer` null means tracing detached entirely.
WorkloadResult run_workload(obs::Tracer* tracer) {
  const MachineProfile profile = MachineProfile::sgx_emlpm();
  Platform platform(profile, 64u << 20);
  platform.enclave().set_tcs_count(4);
  if (tracer != nullptr) platform.clock().set_tracer(tracer);

  ml::SynthDigitsOptions dopt;
  dopt.train_count = 256;
  dopt.test_count = 64;
  const auto digits = ml::make_synth_digits(dopt);
  Trainer trainer(platform, ml::make_cnn_config(1, 2, 16), TrainerOptions{});
  trainer.load_dataset(digits.train);

  WorkloadResult r;
  r.accuracy = trainer.train(6);

  crypto::AesGcm gcm(trainer.data_key());
  serve::LoadGenOptions lg;
  lg.rate_qps = 2.0e4;
  lg.count = 32;
  lg.start_ns = 0;
  lg.seed = 7;
  crypto::IvSequence client_iv(0xC11E27);
  const auto reqs = serve::poisson_workload(digits.test, gcm, client_iv, lg);
  serve::ServerOptions opt;
  opt.workers = 2;
  opt.batch = {.max_batch = 4, .max_wait_ns = 20'000};
  opt.admission = {.max_queue = 64, .deadline_aware = false};
  serve::InferenceServer server(platform, trainer.network(), gcm, opt,
                                &trainer.mirror(), nullptr);
  const auto done = server.run(reqs);
  const serve::SloReport rep = serve::make_slo_report(reqs, done);

  r.final_clock_ns = platform.clock().now();
  r.serve_goodput = rep.goodput_qps;
  r.serve_p99_ns = rep.p99_ns;
  if (tracer != nullptr) {
    r.spans = tracer->total_recorded();
    r.trace = tracer->spans();
    platform.clock().set_tracer(nullptr);
  }
  return r;
}

// Tracing off (or detached) must leave every simulated result bitwise
// identical to a traced run: spans read the clock, never advance it.
TEST(TracerContract, DisabledModeIsBitwiseIdentical) {
  obs::Tracer tracer;
  const WorkloadResult traced = run_workload(&tracer);
  const WorkloadResult untraced = run_workload(nullptr);

  EXPECT_GT(traced.spans, 0u);
  // Bitwise, not approximate: same doubles out of the simulation.
  EXPECT_EQ(traced.final_clock_ns, untraced.final_clock_ns);
  EXPECT_EQ(traced.accuracy, untraced.accuracy);
  EXPECT_EQ(traced.serve_goodput, untraced.serve_goodput);
  EXPECT_EQ(traced.serve_p99_ns, untraced.serve_p99_ns);

  // A tracer that is attached but disabled must also record nothing.
  obs::Tracer off;
  off.set_enabled(false);
  const WorkloadResult disabled = run_workload(&off);
  EXPECT_EQ(off.total_recorded(), 0u);
  EXPECT_EQ(disabled.final_clock_ns, untraced.final_clock_ns);
}

// Simulated time is charged only by the orchestrating thread, so the span
// stream (names, categories, timestamps, nesting) is a pure function of the
// workload — identical at any worker-pool size.
TEST(TracerContract, SpanStreamDeterministicAcrossThreadCounts) {
  const std::size_t original = par::max_threads();
  std::vector<WorkloadResult> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::set_max_threads(threads);
    obs::Tracer tracer;
    runs.push_back(run_workload(&tracer));
  }
  par::set_max_threads(original);

  const WorkloadResult& base = runs.front();
  ASSERT_GT(base.trace.size(), 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const WorkloadResult& r = runs[i];
    EXPECT_EQ(r.final_clock_ns, base.final_clock_ns) << "threads run " << i;
    ASSERT_EQ(r.trace.size(), base.trace.size()) << "threads run " << i;
    for (std::size_t j = 0; j < base.trace.size(); ++j) {
      const obs::SpanRecord& a = base.trace[j];
      const obs::SpanRecord& b = r.trace[j];
      ASSERT_STREQ(a.name, b.name) << "span " << j;
      ASSERT_EQ(a.category, b.category) << "span " << j;
      ASSERT_EQ(a.id, b.id) << "span " << j;
      ASSERT_EQ(a.parent, b.parent) << "span " << j;
      ASSERT_EQ(a.begin_ns, b.begin_ns) << "span " << j;
      ASSERT_EQ(a.end_ns, b.end_ns) << "span " << j;
      ASSERT_EQ(a.track, b.track) << "span " << j;
    }
  }
}

// The mirror-save subtree must decompose into GCM + paging + PM time via
// the generic attribution query — the mechanism behind Table Ia.
TEST(TracerContract, MirrorSaveSubtreeAttributesEncryptionTime) {
  obs::Tracer tracer;
  const WorkloadResult r = run_workload(&tracer);
  ASSERT_GT(r.trace.size(), 0u);
  const obs::CostReport save = obs::attribute_under(r.trace, "mirror.save");
  EXPECT_GT(save.spans, 0u);
  EXPECT_GT(save.total_ns, 0.0);
  EXPECT_GT(save.ns(obs::Category::kGcm), 0.0);
  EXPECT_GT(save.ns(obs::Category::kPmStore) + save.ns(obs::Category::kPmFlush),
            0.0);
  const double enc =
      save.share_of({obs::Category::kGcm, obs::Category::kEpcPaging});
  EXPECT_GT(enc, 0.0);
  EXPECT_LE(enc, 1.0);
}

// ------------------------------------------------------------- registry --

TEST(Registry, SeriesIdentityIsNamePlusSortedLabels) {
  obs::Registry reg;
  reg.set_counter("ecalls", 3, {{"platform", "a"}});
  reg.add_counter("ecalls", 2, {{"platform", "a"}});
  reg.set_counter("ecalls", 7, {{"platform", "b"}});
  EXPECT_EQ(reg.counter("ecalls", {{"platform", "a"}}), 5u);
  EXPECT_EQ(reg.counter("ecalls", {{"platform", "b"}}), 7u);
  EXPECT_EQ(reg.counter("ecalls"), 0u);  // unlabelled series is distinct

  // Label order must not matter.
  reg.set_gauge("sps", 1.5, {{"x", "1"}, {"y", "2"}});
  EXPECT_DOUBLE_EQ(reg.gauge("sps", {{"y", "2"}, {"x", "1"}}), 1.5);

  reg.record("lat", 100, {{"w", "0"}});
  reg.record("lat", 300, {{"w", "0"}});
  LatencyHistogram other;
  other.record(200);
  reg.merge_histogram("lat", other, {{"w", "0"}});
  EXPECT_EQ(reg.histogram("lat", {{"w", "0"}}).count(), 3u);
  // Two counter series + one gauge + one histogram; const lookups of
  // absent series must not create them.
  EXPECT_EQ(reg.series_count(), 4u);
  reg.clear();
  EXPECT_EQ(reg.series_count(), 0u);
}

TEST(Registry, SnapshotJsonContainsAllSeries) {
  obs::Registry reg;
  reg.set_counter("pm.stores", 42, {{"platform", "sgx-emlPM"}});
  reg.set_gauge("fig6.sps", 1234.5);
  reg.record("serve.latency", 1000);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"pm.stores\""), std::string::npos);
  EXPECT_NE(json.find("\"sgx-emlPM\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Registry, StatsBridgePublishesCanonicalNames) {
  const MachineProfile profile = MachineProfile::sgx_emlpm();
  Platform platform(profile, 16u << 20);
  const sgx::EnclaveBuffer buf(platform.enclave(), 1 << 20);
  Bytes data(4096, 0xAB);
  platform.enclave().copy_into_enclave(data.size());
  platform.enclave().charge_ecall();

  obs::Registry reg;
  obs::publish(reg, platform.enclave().stats(), {{"platform", profile.name}});
  EXPECT_EQ(reg.counter("enclave.ecalls", {{"platform", profile.name}}), 1u);
  EXPECT_GE(reg.counter("enclave.bytes_copied_in", {{"platform", profile.name}}),
            data.size());

  // The PM, sealed-dataset and serving overloads, each field a distinct
  // nonzero value, so a field published under the wrong name shows.
  const obs::Labels labels{{"run", "bridge"}};
  pm::PmStats pm;
  pm.stores = 101;
  pm.bytes_stored = 102;
  pm.flushes = 103;
  pm.lines_flushed = 104;
  pm.fences = 105;
  pm.bytes_read = 106;
  pm.crashes = 107;
  pm.media_bit_flips = 108;
  pm.media_torn_lines = 109;
  pm.media_poisoned_lines = 110;
  pm.poison_cleared = 111;
  pm.scrub_bytes = 112;
  obs::Registry pm_reg;
  obs::publish(pm_reg, pm, labels);
  const std::pair<const char*, std::uint64_t> pm_counters[] = {
      {"pm.stores", 101},          {"pm.bytes_stored", 102},
      {"pm.flushes", 103},         {"pm.lines_flushed", 104},
      {"pm.fences", 105},          {"pm.bytes_read", 106},
      {"pm.crashes", 107},         {"pm.media_bit_flips", 108},
      {"pm.media_torn_lines", 109}, {"pm.media_poisoned_lines", 110},
      {"pm.poison_cleared", 111},  {"pm.scrub_bytes", 112},
  };
  for (const auto& [name, value] : pm_counters) {
    EXPECT_EQ(pm_reg.counter(name, labels), value) << name;
  }
  EXPECT_EQ(pm_reg.series_count(), std::size(pm_counters));

  PmDataStats pm_data;
  pm_data.decrypt_ns = 201.5;
  pm_data.batches = 202;
  pm_data.records = 203;
  pm_data.corrupt_records = 204;
  pm_data.resampled = 205;
  obs::Registry data_reg;
  obs::publish(data_reg, pm_data, labels);
  EXPECT_DOUBLE_EQ(data_reg.gauge("data.decrypt_ns", labels), 201.5);
  EXPECT_EQ(data_reg.counter("data.batches", labels), 202u);
  EXPECT_EQ(data_reg.counter("data.records", labels), 203u);
  EXPECT_EQ(data_reg.counter("data.corrupt_records", labels), 204u);
  EXPECT_EQ(data_reg.counter("data.resampled", labels), 205u);
  EXPECT_EQ(data_reg.series_count(), 5u);

  serve::ServerStats serve;
  serve.arrived = 301;
  serve.completed = 302;
  serve.shed_queue_full = 303;
  serve.shed_deadline = 304;
  serve.expired = 305;
  serve.auth_failed = 306;
  serve.batches = 307;
  serve.reloads = 308;
  serve.reload_failures = 309;
  serve.busy_ns = 310.5;
  serve.span_ns = 311.5;
  // Histogram i holds i + 1 samples starting at 1000 (i + 1), so each has
  // its own count, sum, min and max.
  LatencyHistogram* const hists[] = {&serve.total_hist,   &serve.queue_hist,
                                     &serve.decrypt_hist, &serve.forward_hist,
                                     &serve.seal_hist,    &serve.batch_hist};
  for (std::size_t i = 0; i < std::size(hists); ++i) {
    for (std::size_t v = 0; v <= i; ++v) {
      hists[i]->record(static_cast<sim::Nanos>(1000 * (i + 1) + v));
    }
  }
  obs::Registry serve_reg;
  obs::publish(serve_reg, serve, labels);
  const std::pair<const char*, std::uint64_t> serve_counters[] = {
      {"serve.arrived", 301},         {"serve.completed", 302},
      {"serve.shed_queue_full", 303}, {"serve.shed_deadline", 304},
      {"serve.expired", 305},         {"serve.auth_failed", 306},
      {"serve.batches", 307},         {"serve.reloads", 308},
      {"serve.reload_failures", 309},
  };
  for (const auto& [name, value] : serve_counters) {
    EXPECT_EQ(serve_reg.counter(name, labels), value) << name;
  }
  EXPECT_DOUBLE_EQ(serve_reg.gauge("serve.busy_ns", labels), 310.5);
  EXPECT_DOUBLE_EQ(serve_reg.gauge("serve.span_ns", labels), 311.5);
  const char* const hist_names[] = {"serve.latency.total",   "serve.latency.queue",
                                    "serve.latency.decrypt", "serve.latency.forward",
                                    "serve.latency.seal",    "serve.batch_size"};
  for (std::size_t i = 0; i < std::size(hists); ++i) {
    const LatencyHistogram got = serve_reg.histogram(hist_names[i], labels);
    EXPECT_EQ(got.count(), hists[i]->count()) << hist_names[i];
    EXPECT_DOUBLE_EQ(got.sum(), hists[i]->sum()) << hist_names[i];
    EXPECT_DOUBLE_EQ(got.min(), hists[i]->min()) << hist_names[i];
    EXPECT_DOUBLE_EQ(got.max(), hists[i]->max()) << hist_names[i];
  }
  EXPECT_EQ(serve_reg.series_count(), std::size(serve_counters) + 2 + std::size(hists));
}

// ------------------------------------------------------------- exporters --

TEST(Export, RollupUsesSelfTimeNotInclusiveTime) {
  obs::Tracer t;
  const std::uint64_t p = t.open(obs::Category::kMirrorSave, "save", 0);
  t.complete(obs::Category::kGcm, "gcm", 10, 60);
  t.complete(obs::Category::kPmStore, "store", 60, 80);
  t.close(p, 100);

  const obs::CostReport rep = obs::rollup(t);
  EXPECT_DOUBLE_EQ(rep.ns(obs::Category::kGcm), 50);
  EXPECT_DOUBLE_EQ(rep.ns(obs::Category::kPmStore), 20);
  // Parent self = 100 - (50 + 20): children subtract exactly once.
  EXPECT_DOUBLE_EQ(rep.ns(obs::Category::kMirrorSave), 30);
  EXPECT_DOUBLE_EQ(rep.total_ns, 100);
  EXPECT_DOUBLE_EQ(
      rep.share_of({obs::Category::kGcm, obs::Category::kPmStore}), 0.7);
}

TEST(Export, AttributeUnderSelectsOnlyNamedSubtrees) {
  obs::Tracer t;
  const std::uint64_t a = t.open(obs::Category::kMirrorSave, "mirror.save", 0);
  t.complete(obs::Category::kGcm, "gcm", 0, 40);
  t.close(a, 50);
  const std::uint64_t b = t.open(obs::Category::kTrainIter, "train.iteration", 50);
  t.complete(obs::Category::kGcm, "gcm", 50, 60);
  t.close(b, 100);

  const obs::CostReport save = obs::attribute_under(t, "mirror.save");
  EXPECT_DOUBLE_EQ(save.total_ns, 50);
  EXPECT_DOUBLE_EQ(save.ns(obs::Category::kGcm), 40);
  EXPECT_DOUBLE_EQ(save.ns(obs::Category::kTrainIter), 0);
  const obs::CostReport none = obs::attribute_under(t, "no.such.root");
  EXPECT_DOUBLE_EQ(none.total_ns, 0);
  EXPECT_EQ(none.spans, 0u);
}

TEST(Export, ChromeTraceIsWellFormedCompleteEvents) {
  obs::Tracer t;
  const std::uint64_t p = t.open(obs::Category::kServeBatch, "serve.batch", 1000);
  const obs::Attr attr{"batch", 8};
  t.close(p, 3000, &attr, 1);
  t.complete(obs::Category::kServeQueue, "serve.queue", 0, 500, 0, /*track=*/2);

  const std::string json = obs::to_chrome_trace(t);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.batch\""), std::string::npos);
  // ts/dur are microseconds of simulated time; track becomes tid.
  EXPECT_NE(json.find("\"ts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
  // Balanced braces/brackets as a cheap structural check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace plinius
