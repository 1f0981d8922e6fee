// Secure inference server (paper §VI, "Secure inference"): the one inference
// path, a loaded, batched, multi-worker service on the simulated clock.
//
// The server is a discrete-event simulation driven by an arrival schedule
// (serve/loadgen.h generates open-loop Poisson traffic). Per request:
//
//   arrival -> admission (bounded queue, deadline shed; admission.h)
//           -> dynamic batcher (size-or-timeout; batcher.h)
//           -> a worker: one ecall, batched copy-in, parallel GCM decrypt,
//              one batched forward through ml::Network, parallel reply
//              sealing with serially pre-drawn IVs, batched copy-out
//           -> sealed reply + per-stage latency record.
//
// Workers map onto the enclave's TCS lanes: `workers` concurrent batches
// are in flight, and each worker prices its intra-batch crypto/forward
// parallelism over tcs_count / workers lanes with the same static partition
// as EnclaveRuntime::charge_parallel (parallel_cost_ns). Worker concurrency
// itself is expressed through per-worker busy-until times in the event
// loop — simulated time advances along the critical path, never the sum.
// The decrypt/forward/seal work itself executes for real (host-parallel via
// common/parallel); only its time is modelled, like everywhere else.
//
// Between batches a worker polls the PM mirror and, when a concurrent
// trainer has advanced it, hot-reloads the model with
// MirrorModel::mirror_in_snapshot — the staged-install restore that can
// never leave torn weights — so training and serving share one model
// without downtime.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/histogram.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "ml/network.h"
#include "ml/quant.h"
#include "plinius/metrics_log.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/quant_mirror.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/request.h"

namespace plinius::serve {

struct ServerOptions {
  /// Concurrent worker batches in flight; clamped to [1, tcs_count].
  std::size_t workers = 1;
  BatchPolicy batch;
  AdmissionOptions admission;
};

struct ServerStats {
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;       // served with kOk
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t expired = 0;
  std::uint64_t auth_failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t reloads = 0;         // hot model reloads from the mirror
  std::uint64_t reload_failures = 0; // snapshot restores rejected (corrupt
                                     // mirror); the old model kept serving
  sim::Nanos busy_ns = 0;            // summed worker service time
  sim::Nanos span_ns = 0;            // first arrival -> last completion

  // Latency recorder (served requests): total and per-stage breakdown.
  LatencyHistogram total_hist;
  LatencyHistogram queue_hist;
  LatencyHistogram decrypt_hist;
  LatencyHistogram forward_hist;
  LatencyHistogram seal_hist;
  LatencyHistogram batch_hist;       // dispatched batch sizes

  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_queue_full + shed_deadline + expired;
  }
  [[nodiscard]] double mean_batch() const noexcept {
    return batches == 0 ? 0.0 : batch_hist.mean();
  }
};

class InferenceServer {
 public:
  /// `net` is the serving model (restored from the mirror or trained in
  /// place); `gcm` is the data key clients seal queries with. `mirror`
  /// (optional) enables hot reload; `serve_log` (optional) gets one
  /// ServeWindowRecord appended per run().
  InferenceServer(Platform& platform, ml::Network& net, crypto::AesGcm gcm,
                  ServerOptions options, MirrorModel* mirror = nullptr,
                  ServeLog* serve_log = nullptr);

  /// Quantized serving: same pipeline, but the forward runs the int8 path —
  /// priced at the int8 MAC rate (compute_macs_per_s * int8_gemm_speedup)
  /// and touching ~4x fewer model bytes per batch. `qmirror` (optional)
  /// enables hot reload from the quantized PM snapshot.
  InferenceServer(Platform& platform, ml::QuantizedNetwork& qnet, crypto::AesGcm gcm,
                  ServerOptions options, QuantMirror* qmirror = nullptr,
                  ServeLog* serve_log = nullptr);

  /// Serves a full arrival schedule (sorted by arrival_ns; absolute
  /// simulated times). Returns one Completion per request — served, shed,
  /// expired, or auth-failed; nothing is dropped without a sealed reply.
  /// Advances the platform clock to the last completion time.
  std::vector<Completion> run(std::span<const Request> workload);

  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = ServerStats{}; }

  /// Model version currently served: starts at the serving network's
  /// iteration count (net.iterations() at construction) and tracks the
  /// mirror's iteration after each successful hot reload.
  [[nodiscard]] std::uint64_t served_version() const noexcept { return served_version_; }

  /// TCS lanes each worker's intra-batch parallelism is priced over.
  [[nodiscard]] std::size_t lanes_per_worker() const noexcept;
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

 private:
  struct BatchCost {
    sim::Nanos decrypt_ns = 0;
    sim::Nanos forward_ns = 0;
    sim::Nanos seal_ns = 0;
    sim::Nanos other_ns = 0;  // reload + ecall + copies + model touch
    [[nodiscard]] sim::Nanos total() const noexcept {
      return decrypt_ns + forward_ns + seal_ns + other_ns;
    }
  };

  /// Decrypt/forward/seal one batch (real work + cost model); fills one
  /// Completion per request. `dispatch_ns` is the batch start time.
  BatchCost service_batch(std::span<const Request* const> batch,
                          sim::Nanos dispatch_ns, std::size_t worker,
                          std::vector<Completion>& out);
  /// Sealed shed/expired reply (costed, but off the worker lanes).
  Completion shed_completion(const Request& request, ReplyStatus status,
                             sim::Nanos decision_ns);
  void maybe_reload();
  void log_window(std::span<const Request> workload,
                  std::span<const Completion> completions);

  /// Model-kind dispatch helpers (float net_ vs quantized qnet_).
  [[nodiscard]] bool quantized() const noexcept { return qnet_ != nullptr; }
  [[nodiscard]] std::size_t model_input_size() const;
  [[nodiscard]] std::size_t model_forward_macs() const;
  [[nodiscard]] std::size_t model_parameter_bytes() const;
  /// Effective MAC rate of the serving forward (int8 models run faster).
  [[nodiscard]] double model_macs_per_s() const;

  Platform* platform_;
  ml::Network* net_;
  ml::QuantizedNetwork* qnet_ = nullptr;
  QuantMirror* qmirror_ = nullptr;
  crypto::AesGcm gcm_;
  ServerOptions options_;
  std::size_t workers_;
  MirrorModel* mirror_;
  ServeLog* serve_log_;
  AdmissionQueue queue_;
  crypto::IvSequence reply_iv_;
  std::uint64_t served_version_ = 0;
  sim::Nanos reload_pending_ns_ = 0;  // last hot-reload cost, charged to the next batch
  sim::Nanos service_ewma_ns_ = 0;
  ServerStats stats_;
};

}  // namespace plinius::serve
