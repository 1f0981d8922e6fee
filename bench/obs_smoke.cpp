// Observability smoke: one short traced training + serving run.
//
// Attaches an obs::Tracer to the platform clock, trains a small CNN for a
// handful of iterations (mirroring to PM every iteration), serves a small
// encrypted inference workload, then writes the two machine-readable
// artifacts the CI schema check validates:
//   * a Chrome trace-event JSON of every span (loadable in Perfetto);
//   * a unified registry snapshot (counters/gauges/histograms) built from
//     the subsystem stats structs via obs/stats_bridge.
// Also prints the cost-attribution rollup so a human can eyeball where the
// simulated nanoseconds went.
//
// Usage: obs_smoke [--trace <path>] [--metrics <path>]
#include <cstdio>
#include <cstring>
#include <string>

#include "ml/config.h"
#include "ml/synth_digits.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/stats_bridge.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "serve/loadgen.h"
#include "serve/server.h"

using namespace plinius;

int main(int argc, char** argv) {
  const char* trace_path = "obs_trace.json";
  const char* metrics_path = "obs_metrics.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    }
  }

  const MachineProfile profile = MachineProfile::sgx_emlpm();
  Platform platform(profile, 64u << 20);
  platform.enclave().set_tcs_count(4);

  obs::Tracer tracer;
  platform.clock().set_tracer(&tracer);

  // -- traced training --------------------------------------------------
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 512;
  dopt.test_count = 128;
  const auto digits = ml::make_synth_digits(dopt);
  Trainer trainer(platform, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits.train);
  const float acc = trainer.train(24);

  // -- traced serving ---------------------------------------------------
  crypto::AesGcm gcm(trainer.data_key());
  serve::LoadGenOptions lg;
  lg.rate_qps = 2.0e4;
  lg.count = 64;
  lg.start_ns = 0;
  lg.seed = 42;
  crypto::IvSequence client_iv(0xC11E27);
  const auto reqs = serve::poisson_workload(digits.test, gcm, client_iv, lg);

  serve::ServerOptions opt;
  opt.workers = 2;
  opt.batch = {.max_batch = 8, .max_wait_ns = 20'000};
  opt.admission = {.max_queue = 64, .deadline_aware = false};
  serve::InferenceServer server(platform, trainer.network(), gcm, opt,
                                &trainer.mirror(), nullptr);
  const auto done = server.run(reqs);
  const serve::SloReport rep = serve::make_slo_report(reqs, done);

  // -- artifacts --------------------------------------------------------
  obs::Registry registry;
  const obs::Labels labels{{"platform", profile.name}};
  obs::publish(registry, platform.enclave().stats(), labels);
  obs::publish(registry, platform.pm().stats(), labels);
  obs::publish(registry, trainer.mirror().stats(), labels);
  obs::publish(registry, trainer.data().stats(), labels);
  obs::publish(registry, server.stats(), labels);
  obs::publish(registry, tracer, labels);
  registry.set_gauge("train.accuracy", acc, labels);
  registry.set_counter("train.iterations", 24, labels);
  registry.set_gauge("serve.goodput_qps", rep.goodput_qps, labels);
  registry.set_gauge("serve.p99_us", rep.p99_ns / 1e3, labels);

  const obs::CostReport report = obs::rollup(tracer);
  std::printf("# obs smoke: %llu spans (%llu evicted), %.2f ms simulated\n",
              static_cast<unsigned long long>(tracer.total_recorded()),
              static_cast<unsigned long long>(tracer.dropped()),
              platform.clock().now() / 1e6);
  std::printf("%s", report.to_table().c_str());
  std::printf("# train accuracy %.3f; serve goodput %.0f q/s p99 %.1f us\n", acc,
              rep.goodput_qps, rep.p99_ns / 1e3);

  bool ok = obs::write_text_file(trace_path, obs::to_chrome_trace(tracer));
  ok = obs::write_text_file(metrics_path, registry.snapshot_json()) && ok;
  std::printf("# trace -> %s, metrics -> %s\n", trace_path, metrics_path);

  platform.clock().set_tracer(nullptr);
  return ok && tracer.total_recorded() > 0 && rep.served > 0 ? 0 : 1;
}
