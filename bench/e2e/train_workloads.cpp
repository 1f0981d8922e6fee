// Training workloads: train_paper, mirror_heavy, train_pipelined.
//
// Each trains one model with the PM mirror on and takes seeded power
// failures: at a seeded iteration of every `crash_every`-iteration block,
// a pm::FaultInjector crashes the device before a seeded persistence op of
// that iteration (a crash point uniform over the iteration's stores,
// flushes and fences), the PM loses its unfenced lines, and a fresh Trainer
// recovers through the ladder. The seed therefore moves where each crash
// lands and so how much work is lost, which is the only way it moves the
// simulated clock: every other simulated cost is a function of the model
// and batch shapes.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/error.h"
#include "common/rng.h"
#include "e2e.h"
#include "ml/config.h"
#include "ml/softmax_layer.h"
#include "ml/synth_digits.h"
#include "obs/trace.h"
#include "pm/faultpoint.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"

namespace plinius::e2e {
namespace {

struct TrainSpec {
  bool paper_profile;  // sgx-emlPM; else emlSGX-PM
  std::string config;  // Darknet config text
  std::size_t tcs;
  std::size_t rows;      // synthetic training records in PM
  std::size_t pm_bytes;  // PM device size
  bool pipelined;
  std::size_t lanes;
  bool replicate;
  std::size_t ssd_every;
  double iters_per_second;  // sizes the measured phase to --seconds
  std::size_t crash_every;  // one power failure per block of this many
  double max_final_loss;    // 0 = no loss-quality check
  std::size_t gcm_bytes;    // calibration: the workload's sealed buffer size
  std::size_t gemm_m, gemm_n, gemm_k;  // calibration: its largest GEMM
};

std::string fc_config(std::size_t width, std::size_t batch, const char* lr) {
  std::string cfg = "[net]\nbatch=" + std::to_string(batch) + "\nlearning_rate=" + lr +
                    "\nmomentum=0.9\ndecay=0.0005\nheight=28\nwidth=28\nchannels=1\n";
  for (int i = 0; i < 3; ++i) {
    cfg += "\n[connected]\noutput=" + std::to_string(width) + "\nactivation=leaky\n";
  }
  cfg += "\n[connected]\noutput=10\nactivation=linear\n\n[softmax]\n";
  return cfg;
}

std::string read_paper_config() {
  // The checked-in Fig. 8/9 model; the benchmark runs from the repo root.
  return ml::ModelConfig::from_file("data/models/paper_5layer.cfg").to_string();
}

TrainSpec spec_for(const std::string& name) {
  if (name == "train_paper") {
    return {.paper_profile = true, .config = read_paper_config(), .tcs = 1,
            .rows = 8192, .pm_bytes = 96u << 20, .pipelined = false,
            .lanes = 1, .replicate = false, .ssd_every = 0, .iters_per_second = 34,
            .crash_every = 100, .max_final_loss = 0.05, .gcm_bytes = 3204,
            .gemm_m = 16, .gemm_n = 196, .gemm_k = 72};
  }
  if (name == "mirror_heavy") {
    return {.paper_profile = false, .config = fc_config(2048, 16, "0.01"), .tcs = 1,
            .rows = 2048, .pm_bytes = 176u << 20, .pipelined = false,
            .lanes = 1, .replicate = false, .ssd_every = 0, .iters_per_second = 4.3,
            .crash_every = 10, .max_final_loss = 0, .gcm_bytes = 2048 * 2048 * 4,
            .gemm_m = 16, .gemm_n = 2048, .gemm_k = 2048};
  }
  if (name == "train_pipelined") {
    return {.paper_profile = true, .config = fc_config(1024, 64, "0.01"), .tcs = 4,
            .rows = 4096, .pm_bytes = 128u << 20, .pipelined = true,
            .lanes = 4, .replicate = true, .ssd_every = 25, .iters_per_second = 12,
            .crash_every = 50, .max_final_loss = 0, .gcm_bytes = 1024 * 1024 * 4,
            .gemm_m = 64, .gemm_n = 1024, .gemm_k = 1024};
  }
  throw Error("plinius_e2e: unknown training workload " + name);
}

MachineProfile profile_of(const TrainSpec& s) {
  return s.paper_profile ? MachineProfile::sgx_emlpm() : MachineProfile::emlsgx_pm();
}

/// One set-up: platform, seeded dataset, trainer with its data in PM.
struct Rig {
  std::unique_ptr<Platform> platform;
  ml::ModelConfig config;
  ml::SynthDigits digits;
  TrainerOptions options;
  std::unique_ptr<Trainer> trainer;
};

Rig set_up(const TrainSpec& s, std::uint64_t seed) {
  Rig rig;
  rig.platform =
      std::make_unique<Platform>(profile_of(s), s.pm_bytes, 0x5367E0ULL ^ seed);
  rig.platform->enclave().set_tcs_count(s.tcs);
  rig.config = ml::ModelConfig::parse(s.config);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = s.rows;
  dopt.test_count = 1;
  dopt.seed = 1234 + seed;
  rig.digits = ml::make_synth_digits(dopt);
  rig.options.pipeline_mirror = s.pipelined;
  rig.options.pipeline_lanes = s.lanes;
  rig.options.replicate_mirror = s.replicate;
  rig.options.ssd_checkpoint_every = s.ssd_every;
  rig.options.init_seed = 42 + seed;
  rig.options.batch_seed = 43 + seed;
  rig.trainer = std::make_unique<Trainer>(*rig.platform, rig.config, rig.options);
  rig.trainer->load_dataset(rig.digits.train);
  (void)rig.trainer->resume_or_init();
  return rig;
}

std::uint64_t pm_ops(const pm::PmDevice& dev) {
  const pm::PmStats& st = dev.stats();
  return st.stores + st.flushes + st.fences;
}

}  // namespace

WorkloadInfo train_workload_info(const std::string& name) {
  const TrainSpec s = spec_for(name);
  return {s.gcm_bytes, s.gemm_m, s.gemm_n, s.gemm_k, s.paper_profile};
}

PassResult run_train_workload(const RunOptions& opt, Ledger* ledger, int setups) {
  const TrainSpec s = spec_for(opt.workload);
  PassResult out;

  std::vector<double> setup_times;
  std::optional<Rig> kept;  // reset() tears a Rig down trainer-first
  for (int i = 0; i < setups; ++i) {
    kept.reset();
    const double t0 = host_now();
    kept.emplace(set_up(s, opt.seed));
    setup_times.push_back(host_now() - t0);
  }
  Rig& rig = *kept;
  out.setup_host_s = median(setup_times);

  Platform& platform = *rig.platform;
  sim::Clock& clock = platform.clock();
  const std::size_t batch = rig.config.batch();
  const double scale = opt.smoke ? 0.05 : 1.0;
  // Smoke runs still take one power failure.
  const std::size_t crash_every =
      opt.smoke ? std::max<std::size_t>(5, s.crash_every / 10) : s.crash_every;
  const auto target = static_cast<std::uint64_t>(
      std::max(static_cast<double>(crash_every),
               std::round(s.iters_per_second * opt.seconds * scale)));

  // Crash schedule: one power failure per block, at a seeded iteration and
  // a seeded fraction of that iteration's PM ops. The block's first two
  // iterations are skipped: a pipelined save of iteration 1 commits only
  // during iteration 2, and a crash before that commit leaves no mirror to
  // recover from.
  Rng crash_rng(0xC4A5ULL ^ (opt.seed * 0x9E3779B97F4A7C15ULL));
  struct Crash {
    std::uint64_t iteration;
    double op_fraction;
  };
  std::vector<Crash> crashes;
  for (std::uint64_t b = 0; (b + 1) * crash_every <= target; ++b) {
    crashes.push_back({b * crash_every + 3 + crash_rng.below(crash_every - 2),
                       crash_rng.uniform()});
  }

  std::optional<obs::Tracer> tracer;
  if (ledger != nullptr) {
    tracer.emplace();
    clock.set_tracer(&*tracer);
  }
  const StackBaseline stack0 = capture_stack(platform);
  const sim::Nanos sim0 = clock.now();
  const double host0 = host_now();
  const std::uint64_t start_iter = rig.trainer->network().iterations();

  LifeTotals totals;
  LayerTimes layer_times;
  std::vector<double> iter_host_ms;
  std::size_t next_crash = 0;
  std::uint64_t executed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recoveries_at_mirror = 0;
  std::uint64_t rungs_failed = 0;
  std::unique_ptr<pm::FaultInjector> injector;
  std::uint64_t ops_last = pm_ops(platform.pm());
  std::uint64_t ops_per_iter = 1;
  double iter_t0 = host_now();

  const IterationCallback on_iteration = [&](std::uint64_t iter, float loss) {
    const double now = host_now();
    iter_host_ms.push_back((now - iter_t0) * 1e3);
    iter_t0 = now;
    ++executed;
    out.losses.push_back(loss);
    const std::uint64_t ops = pm_ops(platform.pm());
    ops_per_iter = std::max<std::uint64_t>(1, ops - ops_last);
    ops_last = ops;
    if (next_crash < crashes.size() && crashes[next_crash].iteration == iter + 1) {
      // The crashing iteration runs untraced: a crash point inside
      // Romulus::begin/end_transaction leaves its romulus.tx span open, and
      // the enclosing obs::Span would then close out of order.
      clock.set_tracer(nullptr);
      injector = std::make_unique<pm::FaultInjector>(platform.pm());
      injector->arm(1 + static_cast<std::uint64_t>(crashes[next_crash].op_fraction *
                                                   static_cast<double>(ops_per_iter)));
      ++next_crash;
    }
  };

  std::uint64_t resume = start_iter;
  while (true) {
    Trainer& t = *rig.trainer;
    Rng batch_rng(rig.options.batch_seed);  // a Trainer's own draw sequence
    bool crashed = false;
    iter_t0 = host_now();
    ops_last = pm_ops(platform.pm());
    try {
      if (ledger != nullptr) {
        replay_train(t, {batch, s.pipelined, s.lanes, s.ssd_every}, target, batch_rng,
                     *ledger, layer_times, on_iteration);
      } else {
        (void)t.train(target, on_iteration);
      }
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    if (!crashed) {
      totals.add(t);
      break;
    }
    // Power failure. Each completed save moved the durable point one
    // iteration past `resume`. A save whose Romulus commit was cut short
    // (an attempt beyond the completed saves and the still-pending
    // pipelined seal) may or may not have reached its commit point, so
    // recovery may land on either side of it — never anywhere else.
    ++executed;  // the iteration the crash interrupted
    const MirrorStats& ms = t.mirror().stats();
    const bool commit_in_flight =
        ms.save_attempts - ms.saves > (t.mirror().async_save_pending() ? 1u : 0u);
    const std::uint64_t durable = resume + ms.saves;
    const std::uint64_t durable_hi = durable + (commit_in_flight ? 1 : 0);
    totals.add(t);
    Scope sc(ledger, Module::kRecovery, "recovery", clock);
    injector.reset();
    platform.pm().crash();
    if (tracer) clock.set_tracer(&*tracer);
    rig.trainer.reset();
    rig.trainer = std::make_unique<Trainer>(platform, rig.config, rig.options);
    rig.trainer->load_dataset(rig.digits.train);
    resume = rig.trainer->resume_or_init();
    const RecoveryReport& rep = rig.trainer->last_recovery();
    ++recoveries;
    rungs_failed += rep.rungs_failed.size();
    if (rep.tier == RecoveryTier::kMirror) ++recoveries_at_mirror;
    if (rep.tier != RecoveryTier::kMirror || resume < durable || resume > durable_hi) {
      ++out.failed;
      out.failures.push_back("recovery " + std::to_string(recoveries) + " at tier " +
                             to_string(rep.tier) + " resumed at " +
                             std::to_string(resume) + ", last durable " +
                             std::to_string(durable) + ".." + std::to_string(durable_hi));
    }
  }
  Trainer& t = *rig.trainer;
  out.measured_host_s = host_now() - host0;
  out.sim_end = clock.now();
  const sim::Nanos sim_ns = out.sim_end - sim0;
  if (ledger != nullptr) clock.set_tracer(nullptr);

  const std::uint64_t durable_iters = t.network().iterations() - start_iter;
  out.attempted = executed + recoveries;

  // --- correctness -------------------------------------------------------
  for (const float l : out.losses) {
    if (!std::isfinite(l)) {
      out.failures.push_back("non-finite training loss");
      ++out.failed;
      break;
    }
  }
  if (s.max_final_loss > 0 && !opt.smoke && out.losses.size() >= 10) {
    double tail = 0;
    for (std::size_t i = out.losses.size() - 10; i < out.losses.size(); ++i) {
      tail += out.losses[i];
    }
    tail /= 10;
    if (!(tail <= s.max_final_loss)) {
      out.failures.push_back("final loss (mean of last 10) " + std::to_string(tail) +
                             " above " + std::to_string(s.max_final_loss));
    }
  }
  if (t.network().iterations() != target) {
    out.failures.push_back("training stopped at iteration " +
                           std::to_string(t.network().iterations()));
  }
  {
    Rng init(7);
    ml::Network restored = ml::build_network(rig.config, init);
    Scope sc(ledger, Module::kMirrorRestore, "mirror.mirror_in", clock);
    const std::uint64_t it = t.mirror().mirror_in(restored);
    if (it != t.network().iterations() || !same_parameters(restored, t.network())) {
      out.failures.push_back("mirror_in does not restore the live parameters bitwise");
    }
  }

  // --- end-to-end metrics (untraced pass) -------------------------------------
  if (ledger == nullptr) {
    const double samples = static_cast<double>(durable_iters * batch);
    out.metrics["throughput.sim"] = {samples / (sim_ns / 1e9), "1/s"};
    out.metrics["throughput.host"] = {samples / out.measured_host_s, "1/s"};
    out.metrics["op_ms.sim.mean"] = {sim_ns / 1e6 / static_cast<double>(durable_iters),
                                     "ms"};
    out.metrics["op_ms.host.p50"] = {median(iter_host_ms), "ms"};
    return out;
  }

  // --- per-layer metrics (traced pass) ---------------------------------------
  Metrics& m = out.metrics;
  add_layer_shares(*ledger, *tracer, out.measured_host_s, sim_ns, m);
  const double ops = static_cast<double>(durable_iters);
  add_stack_counts(platform, stack0, ops, m);
  add_trainer_counts(totals, t, ops, m);
  m["recovery.count"] = {static_cast<double>(recoveries), "count"};
  m["recovery.redone_iterations"] = {static_cast<double>(executed - durable_iters),
                                     "count"};
  m["recovery.off_mirror_tier"] = {static_cast<double>(recoveries - recoveries_at_mirror),
                                   "count"};
  m["recovery.rungs_failed"] = {static_cast<double>(rungs_failed), "count"};

  add_ml_layer_metrics(layer_times, t.network(), m);
  return out;
}

}  // namespace plinius::e2e
