// serve_reload: a training enclave and a serving replica share one PM
// mirror. Open-loop Poisson windows at three fixed rates alternate with
// two training iterations, so every window starts with a hot reload
// (MirrorModel::mirror_in_snapshot) of the model the trainer just
// mirrored. A fixed-seed bisection then finds the highest rate that meets
// the SLO. Latency counts from each request's scheduled arrival on the
// simulated clock, so the load generator is never late.
#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.h"
#include "e2e.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "obs/trace.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace plinius::e2e {
namespace {

constexpr std::size_t kBatch = 32;
// At 40 warm-up iterations the windows of some seeds served below 70%
// accuracy; at 100 (and the lower rate below) seeds 1-20 all served above 93%.
constexpr std::uint64_t kWarmupIterations = 100;
constexpr std::uint64_t kItersPerWindow = 2;
constexpr int kCycles = 5;
constexpr double kRates[] = {50e3, 100e3, 150e3};
constexpr const char* kRateNames[] = {"50k", "100k", "150k"};
constexpr double kSloP99Ns = 150e3;
// Requests per second of --seconds; a quarter go to the fixed-rate windows,
// the rest to the bisection probes, whose p99 needs the larger sample.
constexpr double kRequestsPerSecond = 4.0e4;
constexpr double kProbeShare = 0.75;
constexpr int kProbesExpected = 6;
constexpr double kMinAccuracy = 0.7;

ml::ModelConfig serve_config() {
  ml::ModelConfig config = ml::make_cnn_config(2, 4, kBatch);
  // make_cnn_config's rate of 0.1 diverges on some seeds at batch 32.
  for (auto& section : config.sections) {
    if (section.name == "net") section.options["learning_rate"] = "0.05";
  }
  return config;
}

/// One set-up: platform, seeded dataset, trainer warmed up in PM, and a
/// serving replica restored from the mirror.
struct Rig {
  std::unique_ptr<Platform> platform;
  ml::SynthDigits digits;
  TrainerOptions options;
  std::unique_ptr<Trainer> trainer;
  std::unique_ptr<Rng> batch_rng;  // the replay's stand-in for the Trainer's
  std::unique_ptr<ml::Network> replica;
};

/// Trainer::train, or its traced replay when `ledger` is set.
void train_to(Rig& rig, std::uint64_t target, Ledger* ledger, LayerTimes& lt,
              std::vector<float>& losses) {
  const IterationCallback record = [&](std::uint64_t, float loss) {
    losses.push_back(loss);
  };
  if (ledger == nullptr) {
    (void)rig.trainer->train(target, record);
  } else {
    replay_train(*rig.trainer, {kBatch, false, 1, 0}, target, *rig.batch_rng, *ledger,
                 lt, record);
  }
}

Rig set_up(std::uint64_t seed, bool replay, std::vector<float>& losses) {
  Rig rig;
  rig.platform = std::make_unique<Platform>(MachineProfile::emlsgx_pm(), 64u << 20,
                                            0x5367E0ULL ^ seed);
  rig.platform->enclave().set_tcs_count(4);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 4096;
  dopt.test_count = 2048;
  dopt.seed = 1234 + seed;
  rig.digits = ml::make_synth_digits(dopt);
  rig.options.init_seed = 42 + seed;
  rig.options.batch_seed = 43 + seed;
  rig.trainer = std::make_unique<Trainer>(*rig.platform, serve_config(), rig.options);
  rig.trainer->load_dataset(rig.digits.train);
  (void)rig.trainer->resume_or_init();
  rig.batch_rng = std::make_unique<Rng>(rig.options.batch_seed);
  // The warm-up is part of set-up; the traced pass replays it too so its
  // batch generator stays in step with the Trainer's.
  Ledger warmup_spans;  // discarded: set-up is not part of the per-layer table
  LayerTimes lt;
  train_to(rig, kWarmupIterations, replay ? &warmup_spans : nullptr, lt, losses);
  Rng init(7);
  rig.replica =
      std::make_unique<ml::Network>(ml::build_network(serve_config(), init));
  (void)rig.trainer->mirror().mirror_in(*rig.replica);
  return rig;
}

serve::ServerOptions server_options() {
  serve::ServerOptions o;
  o.workers = 2;
  o.batch = {.max_batch = 16, .max_wait_ns = 20'000};
  o.admission = {.max_queue = 64, .deadline_aware = false};
  return o;
}

}  // namespace

WorkloadInfo serve_workload_info() {
  // A query is one sealed 28x28 image; the largest serve GEMM is the second
  // convolution over a 16-request batch.
  return {crypto::sealed_size(ml::kDigitPixels * sizeof(float)), 8, 49, 36,
          false};
}

PassResult run_serve_workload(const RunOptions& opt, Ledger* ledger, int setups) {
  PassResult out;
  std::vector<double> setup_times;
  std::optional<Rig> kept;  // reset() tears a Rig down trainer-first
  for (int i = 0; i < setups; ++i) {
    kept.reset();
    out.losses.clear();
    const double t0 = host_now();
    kept.emplace(set_up(opt.seed, ledger != nullptr, out.losses));
    setup_times.push_back(host_now() - t0);
  }
  Rig& rig = *kept;
  out.setup_host_s = median(setup_times);

  Platform& platform = *rig.platform;
  sim::Clock& clock = platform.clock();
  Trainer& trainer = *rig.trainer;
  const crypto::AesGcm gcm(trainer.data_key());
  crypto::IvSequence client_iv(0xC11E27u ^ static_cast<std::uint32_t>(opt.seed));
  serve::InferenceServer server(platform, *rig.replica, gcm, server_options(),
                                &trainer.mirror());

  const double scale = opt.smoke ? 0.05 : 1.0;
  const double budget = kRequestsPerSecond * opt.seconds * scale;
  const auto window = static_cast<std::size_t>(std::max(
      500.0, std::round(budget * (1 - kProbeShare) / (kCycles * std::size(kRates)))));
  const auto probe = static_cast<std::size_t>(
      std::max(2000.0, std::round(budget * kProbeShare / kProbesExpected)));

  std::optional<obs::Tracer> tracer;
  if (ledger != nullptr) {
    tracer.emplace();
    clock.set_tracer(&*tracer);
  }
  const StackBaseline stack0 = capture_stack(platform);
  const sim::Nanos sim0 = clock.now();
  const double host0 = host_now();

  LayerTimes layer_times;
  double serve_host_s = 0;
  std::uint64_t served = 0;
  std::uint64_t offered = 0;
  std::vector<double> request_host_ms;  // per window: host time / requests
  const auto serve_window = [&](double rate, std::size_t count, std::uint64_t seed) {
    serve::LoadGenOptions lg;
    lg.rate_qps = rate;
    lg.count = count;
    lg.start_ns = clock.now();
    lg.seed = seed;
    const auto reqs = serve::poisson_workload(rig.digits.test, gcm, client_iv, lg);
    Scope sc(ledger, Module::kServe, "serve.run", clock);
    const double t0 = host_now();
    const auto done = server.run(reqs);
    const double dt = host_now() - t0;
    serve_host_s += dt;
    request_host_ms.push_back(dt * 1e3 / static_cast<double>(count));
    serve::SloReport rep = serve::make_slo_report(reqs, done);
    // Exact percentiles: the report's histogram rounds them up by as much
    // as 1/16, which would snap the sustained rate to a few grid values.
    std::vector<double> latency;
    for (const auto& c : done) {
      if (c.served()) latency.push_back(c.latency());
    }
    rep.p50_ns = percentile(latency, 0.5);
    rep.p99_ns = percentile(latency, 0.99);
    served += rep.served;
    offered += rep.offered;
    return rep;
  };

  // --- fixed-rate windows, each after two training iterations -------------
  server.reset_stats();
  std::vector<serve::SloReport> reports[std::size(kRates)];
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t r = 0; r < std::size(kRates); ++r) {
      train_to(rig, trainer.network().iterations() + kItersPerWindow, ledger, layer_times,
               out.losses);
      reports[r].push_back(serve_window(
          kRates[r], window, opt.seed * 1000 + static_cast<std::uint64_t>(c) * 10 + r));
    }
  }
  const serve::ServerStats cycle_stats = server.stats();
  const std::uint64_t windows = kCycles * std::size(kRates);

  // --- sustained rate: highest offered load meeting the SLO -----------------
  // Bracketed by the fixed rates (median p99 over the cycles), widened
  // upward while the top still meets the SLO, then bisected in log space to
  // 1% on probe schedules drawn from the run seed. The rate reported is
  // where the p99 crosses the SLO between the bracket's ends, so it does not
  // snap to the bisection grid.
  struct Probe {
    double rate;
    double p99_ns;  // 0: not measured
    bool meets;
  };
  std::vector<Probe> fixed;
  for (std::size_t r = 0; r < std::size(kRates); ++r) {
    std::vector<double> p99;
    std::uint64_t rejected = 0;
    for (const auto& rep : reports[r]) {
      p99.push_back(rep.p99_ns);
      rejected += rep.shed_total() + rep.auth_failed;
    }
    fixed.push_back({kRates[r], median(p99), rejected == 0 && median(p99) <= kSloP99Ns});
  }
  Probe lo{kRates[0] / 2, 0, true};
  for (const Probe& p : fixed) {
    if (p.meets) lo = p;
  }
  std::optional<Probe> hi;
  for (const Probe& p : fixed) {
    if (p.rate > lo.rate) {
      hi = p;
      break;
    }
  }
  std::uint64_t probe_seed = opt.seed * 1000 + 900;
  const auto probe_at = [&](double rate) {
    const serve::SloReport rep = serve_window(rate, probe, ++probe_seed);
    return Probe{rate, rep.p99_ns,
                 rep.shed_total() == 0 && rep.auth_failed == 0 && rep.p99_ns <= kSloP99Ns};
  };
  while (!hi || hi->rate / lo.rate > 1.01) {
    const Probe p = probe_at(hi ? std::sqrt(lo.rate * hi->rate) : 2 * lo.rate);
    if (p.meets) {
      lo = p;
    } else {
      hi = p;
    }
  }
  double sustained = lo.rate;
  if (lo.p99_ns > 0 && hi->p99_ns > kSloP99Ns) {
    sustained += (hi->rate - lo.rate) * (kSloP99Ns - lo.p99_ns) / (hi->p99_ns - lo.p99_ns);
  }

  out.measured_host_s = host_now() - host0;
  out.sim_end = clock.now();
  const sim::Nanos sim_ns = out.sim_end - sim0;
  if (ledger != nullptr) clock.set_tracer(nullptr);

  // --- correctness -----------------------------------------------------------
  std::uint64_t failed_requests = 0;
  std::uint64_t cycle_offered = 0;
  double correct = 0;
  double cycle_served = 0;
  for (const auto& per_rate : reports) {
    for (const auto& rep : per_rate) {
      failed_requests += rep.shed_total() + rep.auth_failed;
      cycle_offered += rep.offered;
      correct += rep.accuracy * static_cast<double>(rep.served);
      cycle_served += static_cast<double>(rep.served);
    }
  }
  const double accuracy = cycle_served > 0 ? correct / cycle_served : 0;
  out.attempted = cycle_offered + (trainer.network().iterations() - kWarmupIterations);
  out.failed = failed_requests;
  if (cycle_stats.auth_failed > 0) out.failures.push_back("requests failed authentication");
  if (!(accuracy >= kMinAccuracy)) {
    out.failures.push_back("served accuracy " + std::to_string(accuracy) + " below " +
                           std::to_string(kMinAccuracy));
  }
  if (cycle_stats.reloads != windows) {
    out.failures.push_back("hot reloads " + std::to_string(cycle_stats.reloads) +
                           " != windows " + std::to_string(windows));
  }
  if (server.served_version() != trainer.network().iterations()) {
    out.failures.push_back("serving model is not the newest mirrored iteration");
  }
  for (const float l : out.losses) {
    if (!std::isfinite(l)) {
      out.failures.push_back("non-finite training loss");
      break;
    }
  }
  {
    Rng init(7);
    ml::Network restored = ml::build_network(serve_config(), init);
    Scope sc(ledger, Module::kMirrorRestore, "mirror.mirror_in", clock);
    (void)trainer.mirror().mirror_in(restored);
    if (!same_parameters(restored, trainer.network()) ||
        !same_parameters(restored, *rig.replica)) {
      out.failures.push_back("mirror_in does not restore the live parameters bitwise");
    }
  }

  // --- end-to-end metrics (untraced pass) ----------------------------------------
  if (ledger == nullptr) {
    double mean_100k = 0;
    for (const auto& rep : reports[1]) mean_100k += rep.mean_ns;
    mean_100k /= static_cast<double>(reports[1].size());
    out.metrics["throughput.sim"] = {sustained, "1/s"};
    out.metrics["throughput.host"] = {static_cast<double>(served) / serve_host_s, "1/s"};
    out.metrics["op_ms.sim.mean"] = {mean_100k / 1e6, "ms"};
    // Median over every window, probes included, so that it samples the
    // whole measured phase rather than its first third.
    out.metrics["op_ms.host.p50"] = {median(request_host_ms), "ms"};
    return out;
  }

  // --- per-layer metrics (traced pass) -----------------------------------------
  Metrics& m = out.metrics;
  add_layer_shares(*ledger, *tracer, out.measured_host_s, sim_ns, m);
  add_stack_counts(platform, stack0, static_cast<double>(offered), m);
  add_ml_layer_metrics(layer_times, trainer.network(), m);
  LifeTotals totals;
  totals.add(trainer);
  add_trainer_counts(totals, trainer, static_cast<double>(offered), m);
  double stages[5] = {0, 0, 0, 0, 0};
  for (const auto& per_rate : reports) {
    for (const auto& rep : per_rate) {
      const double w = static_cast<double>(rep.served);
      stages[0] += rep.mean_queue_ns * w;
      stages[1] += rep.mean_decrypt_ns * w;
      stages[2] += rep.mean_forward_ns * w;
      stages[3] += rep.mean_seal_ns * w;
      stages[4] += rep.mean_other_ns * w;
    }
  }
  const double stage_sum = stages[0] + stages[1] + stages[2] + stages[3] + stages[4];
  const char* stage_names[] = {"queue", "decrypt", "forward", "seal", "other"};
  for (int i = 0; i < 5; ++i) {
    m[std::string("serve.") + stage_names[i] + "_pct.sim"] = {
        stage_sum > 0 ? 100.0 * stages[i] / stage_sum : 0, "%"};
  }
  for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    std::vector<double> ratio;
    for (const auto& rep : reports[r]) ratio.push_back(rep.p99_ns / rep.p50_ns);
    m[std::string("serve.tail_ratio.") + kRateNames[r]] = {median(ratio), "ratio"};
  }
  m["serve.mean_batch"] = {cycle_stats.mean_batch(), "count"};
  // ServerStats::span_ns covers the last run only; busy_ns sums every run.
  sim::Nanos cycle_span_ns = 0;
  for (const auto& per_rate : reports) {
    for (const auto& rep : per_rate) cycle_span_ns += rep.span_ns;
  }
  m["serve.busy_frac"] = {
      cycle_stats.busy_ns / (cycle_span_ns * static_cast<double>(server.workers())),
      "ratio"};
  m["serve.reloads"] = {static_cast<double>(cycle_stats.reloads), "count"};
  m["serve.reload_failures"] = {static_cast<double>(cycle_stats.reload_failures), "count"};
  m["serve.shed"] = {static_cast<double>(cycle_stats.shed_total()), "count"};
  return out;
}

}  // namespace plinius::e2e
