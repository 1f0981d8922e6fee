// Shared pieces of the plinius_e2e benchmark: the run options, the
// dual-clock span ledger the traced run records into, the metric sink, and
// the workload entry points.
//
// Every workload runs the same way in two modes:
//   * untraced — the modules are driven through their top-level entry
//     points (Trainer::train, InferenceServer::run); only end-to-end metrics
//     are taken, on both clocks;
//   * traced — the training loop is replayed from the modules' public
//     functions (PmDataStore::sample_batch, Layer::forward/backward,
//     MirrorModel::mirror_out, ...) with a span around each call, and an
//     obs::Tracer is attached to the simulated clock for the category
//     rollup. The traced replay must end on the same simulated clock and
//     the same loss history, bit for bit, as the untraced run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"

namespace plinius::obs {
class Tracer;
}

namespace plinius::e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // host time the measured phase is sized to
  bool smoke = false;   // ~20x less work: a fast self-check
};

/// Host wall time in seconds (steady_clock).
[[nodiscard]] double host_now();

/// A module a span is attributed to (the "layer" of the per-layer table).
enum class Module : std::uint8_t {
  kPmData,        // PmDataStore::sample_batch
  kCompute,       // Platform::charge_compute + the enclave model touch
  kMl,            // Layer::forward/backward/update (host work of SGD)
  kMirrorSave,    // MirrorModel::mirror_out / begin+complete_async_save
  kMirrorRestore, // MirrorModel::mirror_in (bitwise restore check)
  kMetricsLog,    // MetricsLog::append
  kCheckpoint,    // SsdCheckpointer::save
  kRecovery,      // power failure -> fresh Trainer -> resume_or_init
  kServe,         // InferenceServer::run over one window
};

[[nodiscard]] const char* to_string(Module m) noexcept;

/// One bench-side span: a call into a module, on both clocks.
struct LedgerSpan {
  Module module;
  const char* name;
  double host_begin;
  double host_end;
  sim::Nanos sim_begin;
  sim::Nanos sim_end;
};

/// In-memory span store for the traced run; written out once at exit.
class Ledger {
 public:
  void add(Module m, const char* name, double host_begin, double host_end,
           sim::Nanos sim_begin, sim::Nanos sim_end) {
    spans_.push_back({m, name, host_begin, host_end, sim_begin, sim_end});
  }
  /// Sum of span durations per module on the host (s) and sim (ns) clocks.
  [[nodiscard]] double host_s(Module m) const;
  [[nodiscard]] sim::Nanos sim_ns(Module m) const;
  /// Chrome trace-event JSON: pid 1 is the host clock, pid 2 the sim clock.
  [[nodiscard]] std::string to_chrome_trace() const;

 private:
  std::vector<LedgerSpan> spans_;
};

/// RAII span: brackets one module call on both clocks. A null ledger makes
/// it inert (the untraced run).
class Scope {
 public:
  Scope(Ledger* ledger, Module m, const char* name, const sim::Clock& clock)
      : ledger_(ledger), module_(m), name_(name), clock_(&clock) {
    if (ledger_ != nullptr) {
      host_begin_ = host_now();
      sim_begin_ = clock.now();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (ledger_ != nullptr) {
      ledger_->add(module_, name_, host_begin_, host_now(), sim_begin_, clock_->now());
    }
  }

 private:
  Ledger* ledger_;
  Module module_;
  const char* name_;
  const sim::Clock* clock_;
  double host_begin_ = 0;
  sim::Nanos sim_begin_ = 0;
};

/// Metric values of one run, keyed by name, each with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one pass over a workload produced. `sim_end` and `losses` are the
/// traced-vs-untraced equality witnesses.
struct PassResult {
  Metrics metrics;
  std::vector<std::string> failures;  // correctness-check violations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  sim::Nanos sim_end = 0;
  std::vector<float> losses;
  double measured_host_s = 0;  // host time of the measured phase
  double setup_host_s = 0;     // host time of this pass's set-up
};

/// Runs one pass of a training workload (train_paper, mirror_heavy,
/// train_pipelined) or of serve_reload. `ledger` selects the traced replay
/// (non-null) or the untraced path (null). The set-up is repeated `setups`
/// times; the last one is kept and measured, and setup_host_s is the median.
PassResult run_train_workload(const RunOptions& opt, Ledger* ledger, int setups);
PassResult run_serve_workload(const RunOptions& opt, Ledger* ledger, int setups);

/// The buffer and matrix sizes a workload's calibration panel measures at.
/// Throws plinius::Error for unknown names.
struct WorkloadInfo {
  std::size_t gcm_bytes;
  std::size_t gemm_m, gemm_n, gemm_k;
  bool paper_profile;  // sgx-emlPM (true) or emlSGX-PM
};
[[nodiscard]] WorkloadInfo train_workload_info(const std::string& name);
[[nodiscard]] WorkloadInfo serve_workload_info();

// --- traced replay of Trainer::train (replay.cpp) ------------------------------

using IterationCallback = std::function<void(std::uint64_t, float)>;

/// Network layers reported one by one; deeper layers are lumped into the last.
inline constexpr std::size_t kMaxLayers = 7;

/// Host time of each network layer's SGD work in a traced replay.
struct LayerTimes {
  std::vector<double> fwd_s = std::vector<double>(kMaxLayers, 0.0);
  std::vector<double> bwd_s = std::vector<double>(kMaxLayers, 0.0);
  double update_s = 0;
};

/// The TrainerOptions the replay must honour (PM-mirror backend,
/// mirror_every == 1, no augmentation).
struct ReplayConfig {
  std::size_t batch;
  bool pipelined;
  std::size_t lanes;
  std::size_t ssd_every;
};

/// Trainer::train replayed from the modules' public functions, with a
/// ledger span around each call. `batch_rng` stands in for the Trainer's
/// own batch generator: seed it with TrainerOptions::batch_seed once per
/// Trainer and keep it across calls.
void replay_train(Trainer& t, const ReplayConfig& cfg, std::uint64_t target,
                  Rng& batch_rng, Ledger& ledger, LayerTimes& lt,
                  const IterationCallback& on_iteration);

/// True when both networks hold bitwise-identical parameters.
[[nodiscard]] bool same_parameters(ml::Network& a, ml::Network& b);

/// ml.layerN.{fwd,bwd}_pct.host, ml.layerN.mmacs and ml.update_pct.host.
void add_ml_layer_metrics(const LayerTimes& lt, ml::Network& net, Metrics& out);

/// Mirror, PM-data and checkpoint counters summed over trainer lives (a
/// power failure ends a life, and each new Trainer starts its stats at 0).
struct LifeTotals {
  MirrorStats mirror;
  PmDataStats data;
  std::uint64_t ckpt_saves = 0;
  void add(Trainer& t);
};
/// mirror.*, pm_data.* and ckpt.* counters; `ops` normalizes the per-op ones.
void add_trainer_counts(const LifeTotals& totals, Trainer& t, double ops, Metrics& out);

/// Enclave and PM counters at the start of a measured phase.
struct StackBaseline {
  sgx::EnclaveStats enclave;
  pm::PmStats pm;
};
[[nodiscard]] StackBaseline capture_stack(Platform& p);
/// sgx.* and pm.* per-op counters since `base`, over `ops` operations.
void add_stack_counts(Platform& p, const StackBaseline& base, double ops, Metrics& out);

// --- helpers shared by the workload files ------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mb();

/// Per-layer metrics derived from a traced pass: each module's share of the
/// measured phase on both clocks, and the foreground category rollup of the
/// obs::Tracer attached to the simulated clock.
void add_layer_shares(const Ledger& ledger, const obs::Tracer& tracer,
                      double measured_host_s, sim::Nanos measured_sim_ns,
                      Metrics& out);

/// Host AES-GCM and GEMM throughput at a workload's buffer/matrix sizes,
/// with their ratios to the cost model's constants (reported, never gated).
struct Calibration {
  double gcm_seal_gbps = 0;
  double gcm_open_gbps = 0;
  double gemm_gflops = 0;
  double gcm_host_over_model = 0;
  double gemm_host_over_model = 0;
};
[[nodiscard]] Calibration calibrate(std::size_t gcm_bytes, std::size_t gemm_m,
                                    std::size_t gemm_n, std::size_t gemm_k,
                                    double model_crypto_gib_s, double model_macs_per_s);

/// Hex fingerprint of both MachineProfiles' cost constants. Simulated
/// metrics from runs with different fingerprints are not comparable.
[[nodiscard]] std::string profile_fingerprint();

}  // namespace plinius::e2e
