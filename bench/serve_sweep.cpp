// Serving throughput-latency sweep (secure inference serving subsystem).
//
// Open-loop Poisson clients offer load to an InferenceServer across a grid
// of offered rate x batch size x worker count, on both paper platforms.
// Each point reports goodput, latency percentiles (p50/p95/p99) and the
// per-stage breakdown (queue/decrypt/forward/seal) from the server's
// latency recorder; window records are persisted through the PM ServeLog.
//
// Two headline results the JSON encodes:
//   * batching_speedup_at_fixed_p99: sustainable throughput (highest swept
//     goodput whose p99 meets the SLO) of the best batched config over
//     batch=1 — on emlSGX-PM the per-call GCM setup dominates and batching
//     spreads it across TCS lanes, so the ratio is large (>= 3x); on
//     sgx-emlPM the MEE-throttled per-byte copy-in bounds the win near 2x;
//   * overload: p99 at ~2x capacity with a bounded admission queue vs an
//     effectively unbounded one — shedding pins the tail, the unbounded
//     queue lets it grow with the backlog.
//
// Usage: serve_sweep [--smoke] [--json <path>] [--metrics <path>]
//
// --metrics additionally snapshots every point's ServerStats (counters,
// stage/latency histograms) into the unified obs::Registry, labelled by
// {platform, offered_qps, batch, workers}, and writes the registry JSON.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ml/config.h"
#include "ml/quant.h"
#include "ml/synth_digits.h"
#include "plinius/quant_mirror.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/stats_bridge.h"
#include "plinius/metrics_log.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace {

using namespace plinius;
using namespace plinius::serve;

constexpr double kSloP99Us = 150.0;

obs::Registry g_registry;

struct Point {
  double offered_qps;
  std::size_t batch;
  std::size_t workers;
  SloReport rep;
};

/// One matched float-vs-int8 serving point (same workload, same config).
struct Int8Point {
  double offered_qps;
  std::size_t batch;
  SloReport rep;        // int8 serving
  SloReport float_rep;  // the matched float point from the main sweep
};

struct SweepResult {
  std::string platform;
  std::vector<Point> points;
  double batch1_sustainable_qps = 0;
  double batched_sustainable_qps = 0;
  double overload_qps = 0;
  SloReport overload_bounded;
  SloReport overload_unbounded;
  std::size_t serve_log_windows = 0;
  std::vector<Int8Point> int8_points;
  double float_accuracy = 0;
  double int8_accuracy = 0;
  bool int8_forward_faster = true;  // every matched pair: int8 forward < float

  [[nodiscard]] double batching_speedup() const {
    return batch1_sustainable_qps > 0
               ? batched_sustainable_qps / batch1_sustainable_qps
               : 0.0;
  }
};

SweepResult sweep_platform(const MachineProfile& profile,
                           const std::vector<double>& rates, std::size_t count) {
  SweepResult result;
  result.platform = profile.name;

  Platform platform(profile, 64u << 20);
  platform.enclave().set_tcs_count(8);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 1024;
  dopt.test_count = 512;
  const auto digits = ml::make_synth_digits(dopt);
  Trainer trainer(platform, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits.train);
  (void)trainer.train(20);
  crypto::AesGcm gcm(trainer.data_key());

  ServeLog serve_log(trainer.romulus());
  serve_log.create(256);

  auto run_point = [&](double rate, std::size_t batch, std::size_t workers,
                       std::size_t max_queue, const char* phase = "sweep") {
    LoadGenOptions lg;
    lg.rate_qps = rate;
    lg.count = count;
    lg.start_ns = 0;
    lg.seed = static_cast<std::uint64_t>(rate) ^ (batch << 20) ^ (workers << 28);
    crypto::IvSequence client_iv(
        static_cast<std::uint32_t>(lg.seed ^ 0xC11E27));
    const auto reqs = poisson_workload(digits.test, gcm, client_iv, lg);

    ServerOptions opt;
    opt.workers = workers;
    opt.batch = {.max_batch = batch, .max_wait_ns = 20'000};
    opt.admission = {.max_queue = max_queue, .deadline_aware = false};
    InferenceServer server(platform, trainer.network(), gcm, opt,
                           &trainer.mirror(), &serve_log);
    const auto done = server.run(reqs);

    char rate_s[32], batch_s[32], workers_s[32];
    std::snprintf(rate_s, sizeof(rate_s), "%.0f", rate);
    std::snprintf(batch_s, sizeof(batch_s), "%zu", batch);
    std::snprintf(workers_s, sizeof(workers_s), "%zu", workers);
    obs::publish(g_registry, server.stats(),
                 {{"platform", profile.name},
                  {"phase", phase},
                  {"model", "float32"},
                  {"offered_qps", rate_s},
                  {"batch", batch_s},
                  {"workers", workers_s}});

    return make_slo_report(reqs, done);
  };

  std::printf("\n===== %s: offered x batch x workers =====\n",
              profile.name.c_str());
  std::printf("%10s %6s %8s %12s %9s %9s %9s %7s\n", "offered", "batch",
              "workers", "goodput", "p50(us)", "p99(us)", "shed", "acc%");
  for (const double rate : rates) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        const SloReport rep = run_point(rate, batch, workers, 64);
        result.points.push_back({rate, batch, workers, rep});
        std::printf("%10.0f %6zu %8zu %12.0f %9.1f %9.1f %7llu %6.1f\n", rate,
                    batch, workers, rep.goodput_qps, rep.p50_ns / 1e3,
                    rep.p99_ns / 1e3,
                    static_cast<unsigned long long>(rep.shed_total()),
                    100.0 * rep.accuracy);
      }
    }
  }

  // Sustainable throughput at the p99 SLO: best swept goodput whose tail
  // meets it. Fixed at workers=1 so the ratio isolates what *batching*
  // buys, not extra workers (batch=1 x 4 workers also scales).
  for (const Point& p : result.points) {
    if (p.workers != 1) continue;
    if (p.rep.p99_ns > kSloP99Us * 1e3 || p.rep.served == 0) continue;
    if (p.batch == 1) {
      result.batch1_sustainable_qps =
          std::max(result.batch1_sustainable_qps, p.rep.goodput_qps);
    } else {
      result.batched_sustainable_qps =
          std::max(result.batched_sustainable_qps, p.rep.goodput_qps);
    }
  }

  // Overload: tail with a bounded queue vs an effectively unbounded one.
  // 6x the top swept rate sits well past batched capacity on both platforms
  // even in the short --smoke run.
  result.overload_qps = rates.back() * 6;
  result.overload_bounded =
      run_point(result.overload_qps, 16, 1, 32, "overload_bounded");
  result.overload_unbounded =
      run_point(result.overload_qps, 16, 1, 1u << 20, "overload_unbounded");
  result.serve_log_windows = serve_log.size();

  std::printf(
      "sustainable@p99<=%.*fus: batch=1 %.0f q/s, batched %.0f q/s (%.1fx)\n", 0,
      kSloP99Us, result.batch1_sustainable_qps, result.batched_sustainable_qps,
      result.batching_speedup());
  std::printf(
      "overload %.0f q/s: p99 bounded-queue %.0fus (shed %llu) vs unbounded "
      "%.0fus (shed %llu)\n",
      result.overload_qps, result.overload_bounded.p99_ns / 1e3,
      static_cast<unsigned long long>(result.overload_bounded.shed_total()),
      result.overload_unbounded.p99_ns / 1e3,
      static_cast<unsigned long long>(result.overload_unbounded.shed_total()));
  std::printf("serve-log windows persisted: %zu\n", result.serve_log_windows);

  // --- INT8 panel: quantize the trained model (train-set calibration),
  // seal it through the QuantMirror, and re-serve matched points. The int8
  // forward runs at int8_gemm_speedup and touches ~4x fewer model bytes, so
  // its forward stage must beat the float point on identical workloads.
  ml::QuantizedNetwork qnet = ml::quantize_network(
      trainer.network(), digits.train.x.values.data(),
      std::min<std::size_t>(256, digits.train.size()));
  QuantMirror qmirror(trainer.romulus(), platform.enclave(), gcm);
  qmirror.save(qnet, qnet.iterations());
  result.float_accuracy = trainer.network().accuracy(
      digits.test.x.values.data(), digits.test.y.values.data(), digits.test.size());
  result.int8_accuracy = qnet.accuracy(digits.test.x.values.data(),
                                       digits.test.y.values.data(),
                                       digits.test.size());

  auto run_int8_point = [&](double rate, std::size_t batch) {
    LoadGenOptions lg;
    lg.rate_qps = rate;
    lg.count = count;
    lg.start_ns = 0;
    // Same seed scheme as the matched float point -> identical workload.
    lg.seed = static_cast<std::uint64_t>(rate) ^ (batch << 20) ^ (1ull << 28);
    crypto::IvSequence client_iv(
        static_cast<std::uint32_t>(lg.seed ^ 0xC11E27));
    const auto reqs = poisson_workload(digits.test, gcm, client_iv, lg);

    ServerOptions opt;
    opt.workers = 1;
    opt.batch = {.max_batch = batch, .max_wait_ns = 20'000};
    opt.admission = {.max_queue = 64, .deadline_aware = false};
    InferenceServer server(platform, qnet, gcm, opt, &qmirror, &serve_log);
    const auto done = server.run(reqs);

    char rate_s[32], batch_s[32];
    std::snprintf(rate_s, sizeof(rate_s), "%.0f", rate);
    std::snprintf(batch_s, sizeof(batch_s), "%zu", batch);
    obs::publish(g_registry, server.stats(),
                 {{"platform", profile.name},
                  {"phase", "int8"},
                  {"model", "int8"},
                  {"offered_qps", rate_s},
                  {"batch", batch_s},
                  {"workers", "1"}});
    return make_slo_report(reqs, done);
  };

  std::printf("\n-- int8 panel (workers=1): acc float %.1f%% vs int8 %.1f%% --\n",
              100.0 * result.float_accuracy, 100.0 * result.int8_accuracy);
  std::printf("%10s %6s %12s %12s %11s %11s\n", "offered", "batch", "f-goodput",
              "i-goodput", "f-fwd(us)", "i-fwd(us)");
  for (const double rate : {rates.front(), rates.back()}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      const SloReport rep = run_int8_point(rate, batch);
      const auto it = std::find_if(
          result.points.begin(), result.points.end(), [&](const Point& p) {
            return p.offered_qps == rate && p.batch == batch && p.workers == 1;
          });
      const SloReport& frep = it->rep;
      result.int8_points.push_back({rate, batch, rep, frep});
      if (rep.served > 0 && frep.served > 0 &&
          rep.mean_forward_ns >= frep.mean_forward_ns) {
        result.int8_forward_faster = false;
      }
      std::printf("%10.0f %6zu %12.0f %12.0f %11.2f %11.2f\n", rate, batch,
                  frep.goodput_qps, rep.goodput_qps, frep.mean_forward_ns / 1e3,
                  rep.mean_forward_ns / 1e3);
    }
  }
  return result;
}

void append_report_json(std::string& out, const SloReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"served\": %llu, \"shed\": %llu, \"goodput_qps\": %.1f, "
                "\"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, "
                "\"stage_us\": {\"queue\": %.2f, \"decrypt\": %.2f, "
                "\"forward\": %.2f, \"seal\": %.2f, \"other\": %.2f}}",
                static_cast<unsigned long long>(r.served),
                static_cast<unsigned long long>(r.shed_total()), r.goodput_qps,
                r.p50_ns / 1e3, r.p95_ns / 1e3, r.p99_ns / 1e3,
                r.mean_queue_ns / 1e3, r.mean_decrypt_ns / 1e3,
                r.mean_forward_ns / 1e3, r.mean_seal_ns / 1e3,
                r.mean_other_ns / 1e3);
  out += buf;
}

std::string to_json(const std::vector<SweepResult>& results) {
  std::string out = "{\n  \"slo_p99_us\": " + std::to_string(kSloP99Us) +
                    ",\n  \"platforms\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& res = results[i];
    out += "    {\n      \"platform\": \"" + res.platform + "\",\n";
    std::snprintf(buf, sizeof(buf),
                  "      \"batch1_sustainable_qps\": %.1f,\n"
                  "      \"batched_sustainable_qps\": %.1f,\n"
                  "      \"batching_speedup_at_fixed_p99\": %.2f,\n"
                  "      \"serve_log_windows\": %zu,\n",
                  res.batch1_sustainable_qps, res.batched_sustainable_qps,
                  res.batching_speedup(), res.serve_log_windows);
    out += buf;
    std::snprintf(buf, sizeof(buf), "      \"overload\": {\"offered_qps\": %.0f, ",
                  res.overload_qps);
    out += buf;
    out += "\"bounded_queue\": ";
    append_report_json(out, res.overload_bounded);
    out += ", \"unbounded_queue\": ";
    append_report_json(out, res.overload_unbounded);
    out += "},\n";
    std::snprintf(buf, sizeof(buf),
                  "      \"int8\": {\"float_accuracy\": %.4f, "
                  "\"int8_accuracy\": %.4f, \"forward_faster\": %s, "
                  "\"points\": [\n",
                  res.float_accuracy, res.int8_accuracy,
                  res.int8_forward_faster ? "true" : "false");
    out += buf;
    for (std::size_t j = 0; j < res.int8_points.size(); ++j) {
      const Int8Point& p = res.int8_points[j];
      std::snprintf(buf, sizeof(buf),
                    "        {\"offered_qps\": %.0f, \"batch\": %zu, "
                    "\"report\": ",
                    p.offered_qps, p.batch);
      out += buf;
      append_report_json(out, p.rep);
      out += ", \"float_report\": ";
      append_report_json(out, p.float_rep);
      out += j + 1 < res.int8_points.size() ? "},\n" : "}\n";
    }
    out += "      ]},\n      \"points\": [\n";
    for (std::size_t j = 0; j < res.points.size(); ++j) {
      const Point& p = res.points[j];
      std::snprintf(buf, sizeof(buf),
                    "        {\"offered_qps\": %.0f, \"batch\": %zu, "
                    "\"workers\": %zu, \"report\": ",
                    p.offered_qps, p.batch, p.workers);
      out += buf;
      append_report_json(out, p.rep);
      out += j + 1 < res.points.size() ? "},\n" : "}\n";
    }
    out += "      ]\n    }";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    }
  }

  std::printf("# Secure inference serving sweep: open-loop Poisson load vs\n");
  std::printf("# dynamic batching, worker pool and admission control.\n");

  std::vector<SweepResult> results;
  if (smoke) {
    results.push_back(sweep_platform(MachineProfile::emlsgx_pm(),
                                     {2.0e4, 1.6e5}, 100));
  } else {
    results.push_back(sweep_platform(
        MachineProfile::emlsgx_pm(),
        {1.0e4, 2.0e4, 4.0e4, 8.0e4, 1.6e5, 3.2e5}, 400));
    results.push_back(sweep_platform(
        MachineProfile::sgx_emlpm(), {5.0e3, 1.0e4, 2.0e4, 4.0e4, 8.0e4}, 400));
  }

  const std::string json = to_json(results);
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  if (metrics_path != nullptr) {
    if (!obs::write_text_file(metrics_path, g_registry.snapshot_json())) return 1;
    std::printf("wrote %s\n", metrics_path);
  }

  // The smoke run doubles as a CI check on the headline properties.
  const SweepResult& eml = results.front();
  const bool batching_ok = eml.batching_speedup() >= 3.0;
  const bool shedding_ok =
      eml.overload_bounded.p99_ns < eml.overload_unbounded.p99_ns &&
      eml.overload_bounded.shed_total() > 0;
  bool int8_ok = eml.int8_forward_faster;
  for (const Int8Point& p : eml.int8_points) {
    if (p.rep.served == 0) int8_ok = false;
  }
  std::printf(
      "batching >=3x at fixed p99: %s; shedding bounds p99: %s; "
      "int8 forward beats float: %s\n",
      batching_ok ? "PASS" : "FAIL", shedding_ok ? "PASS" : "FAIL",
      int8_ok ? "PASS" : "FAIL");
  return batching_ok && shedding_ok && int8_ok ? 0 : 1;
}
