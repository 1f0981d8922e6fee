#include "serve/server.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/leakage.h"
#include "obs/trace.h"

namespace plinius::serve {

namespace {
// EWMA weight of the newest batch in the admission service estimate.
constexpr double kEstimateAlpha = 0.25;
}  // namespace

InferenceServer::InferenceServer(Platform& platform, ml::Network& net,
                                 crypto::AesGcm gcm, ServerOptions options,
                                 MirrorModel* mirror, ServeLog* serve_log)
    : platform_(&platform),
      net_(&net),
      gcm_(std::move(gcm)),
      options_(options),
      workers_(std::clamp<std::size_t>(options.workers, 1,
                                       platform.enclave().tcs_count())),
      mirror_(mirror),
      serve_log_(serve_log),
      queue_(options.admission),
      reply_iv_(crypto::IvSequence::salted(platform.enclave().rng())),
      // The model handed in is the one at net.iterations() (e.g. restored by
      // the trainer); only a mirror advanced *past* it triggers a reload.
      served_version_(net.iterations()) {
  expects(options_.batch.max_batch >= 1,
          "InferenceServer: batch.max_batch must be >= 1");
}

InferenceServer::InferenceServer(Platform& platform, ml::QuantizedNetwork& qnet,
                                 crypto::AesGcm gcm, ServerOptions options,
                                 QuantMirror* qmirror, ServeLog* serve_log)
    : platform_(&platform),
      net_(nullptr),
      qnet_(&qnet),
      qmirror_(qmirror),
      gcm_(std::move(gcm)),
      options_(options),
      workers_(std::clamp<std::size_t>(options.workers, 1,
                                       platform.enclave().tcs_count())),
      mirror_(nullptr),
      serve_log_(serve_log),
      queue_(options.admission),
      reply_iv_(crypto::IvSequence::salted(platform.enclave().rng())),
      served_version_(qnet.iterations()) {
  expects(options_.batch.max_batch >= 1,
          "InferenceServer: batch.max_batch must be >= 1");
  expects(qnet.num_layers() > 0, "InferenceServer: empty quantized network");
}

std::size_t InferenceServer::model_input_size() const {
  return quantized() ? qnet_->input_shape().size() : net_->input_shape().size();
}

std::size_t InferenceServer::model_forward_macs() const {
  return quantized() ? qnet_->forward_macs() : net_->forward_macs();
}

std::size_t InferenceServer::model_parameter_bytes() const {
  return quantized() ? qnet_->parameter_bytes() : net_->parameter_bytes();
}

double InferenceServer::model_macs_per_s() const {
  const double base = platform_->profile().compute_macs_per_s;
  return quantized() ? base * platform_->profile().sgx.int8_gemm_speedup : base;
}

std::size_t InferenceServer::lanes_per_worker() const noexcept {
  const std::size_t tcs = platform_->enclave().tcs_count();
  return std::max<std::size_t>(1, tcs / workers_);
}

void InferenceServer::maybe_reload() {
  if (quantized()) {
    if (qmirror_ == nullptr || !qmirror_->exists()) return;
    if (qmirror_->version() == served_version_) return;
    // QuantMirror::load authenticates the sealed v2 model blob into staging
    // and decodes it before touching the serving model — the same torn-write
    // guarantee as the float snapshot restore below.
    sim::Stopwatch qsw(platform_->clock());
    try {
      served_version_ = qmirror_->load(*qnet_);
      ++stats_.reloads;
    } catch (const Error&) {
      ++stats_.reload_failures;
    }
    reload_pending_ns_ += qsw.elapsed();
    return;
  }
  if (mirror_ == nullptr || !mirror_->exists()) return;
  if (mirror_->iteration() == served_version_) return;
  // Snapshot restore: authenticates everything into staging before touching
  // a single layer array, so a corrupt mirror cannot torn-write the serving
  // model — on failure we keep serving the current version and retry at the
  // next batch (the trainer's scrub/repair path may fix the mirror).
  sim::Stopwatch sw(platform_->clock());
  try {
    served_version_ = mirror_->mirror_in_snapshot(*net_);
    ++stats_.reloads;
  } catch (const Error&) {
    ++stats_.reload_failures;
  }
  reload_pending_ns_ += sw.elapsed();
}

Completion InferenceServer::shed_completion(const Request& request,
                                            ReplyStatus status,
                                            sim::Nanos decision_ns) {
  auto& enclave = platform_->enclave();
  // The shed reply is sealed on the acceptor path, not on a worker's TCS
  // lanes: it never waits for a batch slot, only for its own small seal +
  // boundary copy.
  const sim::Nanos seal_ns = enclave.crypto_task_ns(kReplyPlainSize);
  const sim::Nanos out_ns = enclave.copy_out_task_ns(kReplySealedSize);

  Completion c;
  c.id = request.id;
  c.status = status;
  c.arrival_ns = request.arrival_ns;
  c.done_ns = decision_ns + seal_ns + out_ns;
  c.stages.queue_ns = decision_ns - request.arrival_ns;
  c.stages.seal_ns = seal_ns;
  c.stages.other_ns = out_ns;
  c.sealed_reply = seal_reply(gcm_, reply_iv_, status, 0);

  switch (status) {
    case ReplyStatus::kShedQueueFull: ++stats_.shed_queue_full; break;
    case ReplyStatus::kShedDeadline: ++stats_.shed_deadline; break;
    case ReplyStatus::kExpired: ++stats_.expired; break;
    default: throw Error("InferenceServer: bad shed status");
  }
  return c;
}

InferenceServer::BatchCost InferenceServer::service_batch(
    std::span<const Request* const> batch, sim::Nanos dispatch_ns,
    std::size_t worker, std::vector<Completion>& out) {
  auto& enclave = platform_->enclave();
  const std::size_t b = batch.size();
  obs::leak_mark("serve.batch");
  const std::size_t lanes = lanes_per_worker();
  const std::size_t in_floats = model_input_size();
  const std::size_t plain_len = in_floats * sizeof(float);
  const std::size_t sealed_len = crypto::sealed_size(plain_len);

  BatchCost cost;
  // A hot reload that happened since the last batch is charged to this
  // batch: the worker that refreshed the model is the one that stalls.
  cost.other_ns += reload_pending_ns_;
  reload_pending_ns_ = 0;
  // One ecall and one model touch for the whole batch — the amortization
  // batching exists for.
  cost.other_ns += enclave.ecall_task_ns();
  for (const Request* r : batch) {
    cost.other_ns += enclave.copy_in_task_ns(r->sealed_query.size());
  }

  // Stage 1: parallel GCM open of the batch into one [b x input] matrix.
  // Per-request costs are priced over this worker's share of the TCS lanes.
  std::vector<sim::Nanos> tasks(b);
  for (std::size_t i = 0; i < b; ++i) {
    tasks[i] = enclave.crypto_task_ns(batch[i]->sealed_query.size());
  }
  cost.decrypt_ns = sgx::EnclaveRuntime::parallel_cost_ns(tasks, lanes);

  std::vector<float> batch_x(b * in_floats, 0.0f);
  std::vector<std::uint8_t> ok(b, 0);
  par::parallel_for(b, [&](par::Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const Bytes& sealed = batch[i]->sealed_query;
      if (sealed.size() != sealed_len) continue;  // wrong size: auth failure
      auto dst = MutableByteSpan(
          reinterpret_cast<std::uint8_t*>(batch_x.data() + i * in_floats),
          plain_len);
      ok[i] = crypto::open_into(gcm_, sealed, dst) ? 1 : 0;
    }
  });

  // Stage 2: one batched forward. Auth-failed rows already occupy their
  // batch slot (zeroed input), so the forward runs — and is priced — over
  // the full batch, data-parallel across this worker's lanes.
  std::vector<std::size_t> preds(b, 0);
  if (quantized()) {
    qnet_->predict(batch_x.data(), b, preds.data());
  } else {
    net_->predict(batch_x.data(), b, preds.data());
  }
  cost.forward_ns = static_cast<double>(b) *
                    static_cast<double>(model_forward_macs()) /
                    (model_macs_per_s() * static_cast<double>(lanes)) * 1e9;
  cost.other_ns += enclave.touch_task_ns(model_parameter_bytes());

  // Stage 3: seal the replies — IVs drawn serially (the per-key counter
  // must stay monotonic), the GCM passes in parallel.
  std::vector<std::array<std::uint8_t, crypto::kGcmIvSize>> ivs(b);
  for (std::size_t i = 0; i < b; ++i) reply_iv_.next(ivs[i].data());
  for (std::size_t i = 0; i < b; ++i) {
    tasks[i] = enclave.crypto_task_ns(kReplyPlainSize);
  }
  cost.seal_ns = sgx::EnclaveRuntime::parallel_cost_ns(tasks, lanes);

  std::vector<Bytes> replies(b);
  par::parallel_for(b, [&](par::Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const ReplyStatus status =
          ok[i] ? ReplyStatus::kOk : ReplyStatus::kAuthFailed;
      replies[i] = seal_reply_iv(gcm_, ivs[i].data(), status,
                                 ok[i] ? preds[i] : 0);
    }
  });
  for (std::size_t i = 0; i < b; ++i) {
    cost.other_ns += enclave.copy_out_task_ns(replies[i].size());
  }

  // Every request in the batch occupies the worker for the whole pass.
  const sim::Nanos done_ns = dispatch_ns + cost.total();

  // Per-worker trace timeline. The event loop prices batches on worker
  // busy-until times rather than the shared clock, so these spans carry
  // explicit timestamps and land on track worker+1 (track 0 stays the
  // orchestrator's). Stage children split the batch bracket exactly.
  if (obs::Tracer* tracer = platform_->clock().tracer();
      tracer != nullptr && tracer->enabled()) {
    const auto track = static_cast<std::uint32_t>(worker + 1);
    const obs::Attr ba[] = {{"batch", static_cast<double>(b)},
                            {"worker", static_cast<double>(worker)}};
    const std::uint64_t bid =
        tracer->complete(obs::Category::kServeBatch, "serve.batch", dispatch_ns,
                         done_ns, /*parent=*/0, track, ba, 2);
    struct Stage {
      obs::Category cat;
      const char* name;
      sim::Nanos dur;
    };
    const Stage stages[] = {
        {obs::Category::kServeOther, "serve.other", cost.other_ns},
        {obs::Category::kServeDecrypt, "serve.decrypt", cost.decrypt_ns},
        {obs::Category::kServeForward, "serve.forward", cost.forward_ns},
        {obs::Category::kServeSeal, "serve.seal", cost.seal_ns},
    };
    sim::Nanos t = dispatch_ns;
    for (const Stage& st : stages) {
      if (st.dur > 0) {
        tracer->complete(st.cat, st.name, t, t + st.dur, bid, track);
      }
      t += st.dur;
    }
    for (const Request* r : batch) {
      if (dispatch_ns > r->arrival_ns) {
        tracer->complete(obs::Category::kServeQueue, "serve.queue",
                         r->arrival_ns, dispatch_ns, /*parent=*/0, track);
      }
    }
  }

  for (std::size_t i = 0; i < b; ++i) {
    const Request& req = *batch[i];
    Completion c;
    c.id = req.id;
    c.status = ok[i] ? ReplyStatus::kOk : ReplyStatus::kAuthFailed;
    c.arrival_ns = req.arrival_ns;
    c.done_ns = done_ns;
    c.stages.queue_ns = dispatch_ns - req.arrival_ns;
    c.stages.decrypt_ns = cost.decrypt_ns;
    c.stages.forward_ns = cost.forward_ns;
    c.stages.seal_ns = cost.seal_ns;
    c.stages.other_ns = cost.other_ns;
    c.batch_size = b;
    c.worker = worker;
    c.prediction = preds[i];
    c.sealed_reply = std::move(replies[i]);

    if (ok[i]) {
      ++stats_.completed;
      stats_.total_hist.record(c.latency());
      stats_.queue_hist.record(c.stages.queue_ns);
      stats_.decrypt_hist.record(c.stages.decrypt_ns);
      stats_.forward_hist.record(c.stages.forward_ns);
      stats_.seal_hist.record(c.stages.seal_ns);
    } else {
      ++stats_.auth_failed;
    }
    out.push_back(std::move(c));
  }

  ++stats_.batches;
  stats_.batch_hist.record(static_cast<sim::Nanos>(b));
  stats_.busy_ns += cost.total();
  return cost;
}

std::vector<Completion> InferenceServer::run(std::span<const Request> workload) {
  std::vector<Completion> out;
  out.reserve(workload.size());
  if (workload.empty()) return out;
  for (std::size_t i = 1; i < workload.size(); ++i) {
    expects(workload[i - 1].arrival_ns <= workload[i].arrival_ns,
            "InferenceServer::run: workload must be sorted by arrival_ns");
  }
  stats_.arrived += workload.size();
  obs::Span run_span(platform_->clock(), obs::Category::kOther, "serve.run");
  run_span.attr("requests", static_cast<double>(workload.size()));

  // Event-driven simulation on the server's own timeline: per-worker
  // busy-until times express worker concurrency; the shared platform clock
  // is advanced to the final event at the end (it is an accumulator of
  // charged work, so concurrent lanes must not each advance it).
  std::vector<sim::Nanos> worker_free(workers_, 0.0);
  std::size_t next = 0;  // next workload index not yet offered to admission

  auto admit_until = [&](sim::Nanos t) {
    while (next < workload.size() && workload[next].arrival_ns <= t) {
      const Request& r = workload[next++];
      if (auto shed = queue_.offer(r)) {
        out.push_back(shed_completion(r, *shed, r.arrival_ns));
      }
    }
  };

  std::vector<const Request*> expired;
  std::vector<const Request*> batch;
  while (true) {
    if (queue_.empty()) {
      if (next >= workload.size()) break;  // drained: arrivals and queue
      admit_until(workload[next].arrival_ns);
      continue;  // may have been shed at admission — re-check
    }

    // Earliest-free worker takes the next batch (lowest index breaks ties,
    // which keeps the schedule deterministic).
    std::size_t w = 0;
    for (std::size_t i = 1; i < workers_; ++i) {
      if (worker_free[i] < worker_free[w]) w = i;
    }

    // Fixed point: the dispatch-time candidate stands only if no arrival
    // lands before it; otherwise admit through the candidate and re-evaluate
    // (the arrival may fill the batch or get shed — either changes nothing
    // or moves dispatch earlier).
    sim::Nanos dispatch = 0;
    for (;;) {
      const sim::Nanos next_arrival =
          next < workload.size() ? workload[next].arrival_ns : kNoArrival;
      dispatch = batch_dispatch_ns(options_.batch, worker_free[w],
                                   queue_.depth(), queue_.oldest_enqueue_ns(),
                                   queue_.fill_enqueue_ns(options_.batch.max_batch),
                                   next_arrival);
      if (next_arrival > dispatch) break;
      admit_until(dispatch);
    }

    // Form the batch; requests whose deadline passed while queued are
    // expired here, before any enclave time is spent on them.
    expired.clear();
    batch.clear();
    while (batch.size() < options_.batch.max_batch) {
      const Request* r = queue_.pop(dispatch, expired);
      if (r == nullptr) break;
      batch.push_back(r);
    }
    for (const Request* e : expired) {
      out.push_back(shed_completion(*e, ReplyStatus::kExpired, dispatch));
    }
    if (batch.empty()) continue;

    maybe_reload();
    const BatchCost cost = service_batch(batch, dispatch, w, out);
    worker_free[w] = dispatch + cost.total();

    // Feed the measured per-request service time back to the deadline test.
    const sim::Nanos per_request =
        cost.total() / static_cast<sim::Nanos>(batch.size());
    service_ewma_ns_ =
        service_ewma_ns_ == 0
            ? per_request
            : kEstimateAlpha * per_request +
                  (1.0 - kEstimateAlpha) * service_ewma_ns_;
    queue_.set_service_estimate_ns(service_ewma_ns_);
  }

  sim::Nanos final_ns = workload.front().arrival_ns;
  for (const Completion& c : out) final_ns = std::max(final_ns, c.done_ns);
  stats_.span_ns = final_ns - workload.front().arrival_ns;

  // Sync the platform clock to the end of the serving window (charges made
  // during the run — shed seals, hot reloads — may already have advanced it).
  auto& clock = platform_->clock();
  if (final_ns > clock.now()) clock.advance(final_ns - clock.now());

  log_window(workload, out);
  return out;
}

void InferenceServer::log_window(std::span<const Request> workload,
                                 std::span<const Completion> completions) {
  if (serve_log_ == nullptr || !serve_log_->exists()) return;
  LatencyHistogram served;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  for (const Completion& c : completions) {
    if (c.served()) {
      ++completed;
      served.record(c.latency());
    } else if (c.status != ReplyStatus::kAuthFailed) {
      ++shed;
    }
  }
  ServeWindowRecord rec;
  rec.window = serve_log_->next_window();
  rec.arrived = workload.size();
  rec.completed = completed;
  rec.shed = shed;
  rec.model_version = served_version_;
  rec.p50_us = static_cast<float>(served.percentile(50.0) / 1000.0);
  rec.p95_us = static_cast<float>(served.percentile(95.0) / 1000.0);
  rec.p99_us = static_cast<float>(served.percentile(99.0) / 1000.0);
  serve_log_->append(rec);
}

}  // namespace plinius::serve
