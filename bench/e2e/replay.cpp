// Traced replay of Trainer::train and the per-layer counters shared by the
// training and serving workloads.
#include <algorithm>
#include <cstring>
#include <optional>

#include "e2e.h"
#include "ml/softmax_layer.h"
#include "obs/trace.h"

namespace plinius::e2e {

namespace {

/// Network::train_batch, one Layer call at a time with each timed on the
/// host. Same calls in the same order, so the arithmetic is bitwise equal.
float replay_train_batch(ml::Network& net, const float* x, const float* y,
                         std::size_t batch, LayerTimes& lt) {
  if (net.lr_schedule()) net.hyper().learning_rate = net.lr_schedule()->at(net.iterations());
  const std::size_t n = net.num_layers();
  const float* input = x;
  for (std::size_t i = 0; i < n; ++i) {
    ml::Layer& l = net.layer(i);
    // Network::forward re-prepares exactly when the batch size changes.
    if (l.output().size() != batch * l.output_shape().size()) {
      l.prepare(batch);
    } else {
      std::fill(l.delta().begin(), l.delta().end(), 0.0f);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = host_now();
    net.layer(i).forward(input, batch, /*train=*/true);
    lt.fwd_s[std::min(i, kMaxLayers - 1)] += host_now() - t0;
    input = net.layer(i).output().data();
  }
  auto* softmax = dynamic_cast<ml::SoftmaxLayer*>(&net.layer(n - 1));
  if (softmax == nullptr) throw MlError("plinius_e2e: last layer must be softmax");
  const float loss = softmax->loss_and_delta(y, batch);
  for (std::size_t i = n; i-- > 0;) {
    const double t0 = host_now();
    const float* in = i == 0 ? x : net.layer(i - 1).output().data();
    float* in_delta = i == 0 ? nullptr : net.layer(i - 1).delta().data();
    net.layer(i).backward(in, in_delta, batch);
    lt.bwd_s[std::min(i, kMaxLayers - 1)] += host_now() - t0;
  }
  const double t0 = host_now();
  for (std::size_t i = 0; i < n; ++i) net.layer(i).update(net.hyper(), batch);
  lt.update_s += host_now() - t0;
  net.set_iterations(net.iterations() + 1);
  return loss;
}

}  // namespace

// Must stay step-for-step identical to Trainer::train (plinius/trainer.cc);
// the traced-vs-untraced check in main.cpp enforces that.
void replay_train(Trainer& t, const ReplayConfig& s, std::uint64_t target,
                  Rng& batch_rng, Ledger& ledger, LayerTimes& lt,
                  const IterationCallback& on_iteration) {
  const std::size_t batch = s.batch;
  Platform& platform = t.platform();
  sim::Clock& clock = platform.clock();
  auto& enclave = platform.enclave();
  ml::Network& net = t.network();
  PmDataStore& data = t.data();
  MirrorModel& mirror = t.mirror();
  std::vector<float> bx(batch * data.x_cols());
  std::vector<float> by(batch * data.y_cols());
  const sgx::EnclaveBuffer batch_buf(enclave, (bx.size() + by.size()) * sizeof(float));
  std::optional<sgx::ChargeStream> stream;
  if (s.pipelined) stream.emplace(enclave.open_stream(s.lanes));

  const auto drain = [&] {
    Scope sc(&ledger, Module::kMirrorSave, "mirror.complete_async_save", clock);
    (void)mirror.complete_async_save(*stream);
  };
  try {
    while (net.iterations() < target) {
      obs::Span iter_span(clock, obs::Category::kTrainIter, "train.iteration");
      iter_span.attr("iteration", static_cast<double>(net.iterations()));
      iter_span.attr("batch", static_cast<double>(batch));
      {
        Scope sc(&ledger, Module::kPmData, "pm_data.sample_batch", clock);
        data.sample_batch(batch, batch_rng, bx.data(), by.data());
      }
      {
        Scope sc(&ledger, Module::kCompute, "platform.charge_compute", clock);
        platform.charge_compute(3.0 * static_cast<double>(net.forward_macs()) *
                                static_cast<double>(batch));
        enclave.touch_enclave(net.parameter_bytes());
      }
      float loss = 0;
      {
        Scope sc(&ledger, Module::kMl, "ml.train_batch", clock);
        loss = replay_train_batch(net, bx.data(), by.data(), batch, lt);
      }
      const std::uint64_t iter = net.iterations();
      const bool last = iter >= target;
      if (s.pipelined) {
        drain();
        {
          Scope sc(&ledger, Module::kMirrorSave, "mirror.begin_async_save", clock);
          mirror.begin_async_save(net, iter, *stream);
        }
        if (last) drain();
      } else {
        Scope sc(&ledger, Module::kMirrorSave, "mirror.mirror_out", clock);
        mirror.mirror_out(net, iter);
      }
      {
        Scope sc(&ledger, Module::kMetricsLog, "metrics_log.append", clock);
        try {
          MetricsLog& log = t.metrics();
          if (log.exists() && log.size() < log.capacity()) {
            log.append({iter, loss, net.hyper().learning_rate});
          }
        } catch (const Error&) {
        }
      }
      if (s.ssd_every > 0 && (iter % s.ssd_every == 0 || last)) {
        if (s.pipelined) drain();
        Scope sc(&ledger, Module::kCheckpoint, "ckpt.save", clock);
        t.checkpointer().save(net);
      }
      on_iteration(iter, loss);
    }
    if (s.pipelined) drain();
  } catch (...) {
    if (s.pipelined) mirror.abandon_async_save();
    throw;
  }
}

bool same_parameters(ml::Network& a, ml::Network& b) {
  if (a.num_layers() != b.num_layers()) return false;
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    const auto pa = a.layer(i).parameters();
    const auto pb = b.layer(i).parameters();
    if (pa.size() != pb.size()) return false;
    for (std::size_t j = 0; j < pa.size(); ++j) {
      if (pa[j].values.size() != pb[j].values.size() ||
          std::memcmp(pa[j].values.data(), pb[j].values.data(),
                      pa[j].values.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

void add_ml_layer_metrics(const LayerTimes& lt, ml::Network& net, Metrics& out) {
  double ml_s = lt.update_s;
  for (std::size_t i = 0; i < kMaxLayers; ++i) {
    ml_s += lt.fwd_s[i] + lt.bwd_s[i];
  }
  const auto ml_pct = [&](double v) { return Metric{ml_s > 0 ? 100.0 * v / ml_s : 0, "%"}; };
  std::vector<double> macs(kMaxLayers, 0.0);
  for (std::size_t j = 0; j < net.num_layers(); ++j) {
    macs[std::min(j, kMaxLayers - 1)] +=
        static_cast<double>(net.layer(j).forward_macs());
  }
  for (std::size_t i = 0; i < kMaxLayers; ++i) {
    const std::string base = "ml.layer" + std::to_string(i);
    out[base + ".fwd_pct.host"] = ml_pct(lt.fwd_s[i]);
    out[base + ".bwd_pct.host"] = ml_pct(lt.bwd_s[i]);
    out[base + ".mmacs"] = {macs[i] / 1e6, "Mmac"};
  }
  out["ml.update_pct.host"] = ml_pct(lt.update_s);
}

StackBaseline capture_stack(Platform& p) {
  return {p.enclave().stats(), p.pm().stats()};
}

void add_stack_counts(Platform& p, const StackBaseline& base, double ops, Metrics& out) {
  const sgx::EnclaveStats& enc = p.enclave().stats();
  const pm::PmStats& pm = p.pm().stats();
  const auto per_op = [&](std::uint64_t now, std::uint64_t then, double unit) {
    return static_cast<double>(now - then) / unit / ops;
  };
  out["sgx.ecalls_per_op"] = {per_op(enc.ecalls, base.enclave.ecalls, 1), "count"};
  out["sgx.ocalls_per_op"] = {per_op(enc.ocalls, base.enclave.ocalls, 1), "count"};
  out["sgx.epc_faults_per_op"] = {per_op(enc.epc_faults, base.enclave.epc_faults, 1),
                                  "count"};
  out["sgx.copy_in_mb_per_op"] = {
      per_op(enc.bytes_copied_in, base.enclave.bytes_copied_in, 1e6), "MB"};
  out["pm.store_mb_per_op"] = {per_op(pm.bytes_stored, base.pm.bytes_stored, 1e6), "MB"};
  out["pm.flushes_per_op"] = {per_op(pm.flushes, base.pm.flushes, 1), "count"};
  out["pm.fences_per_op"] = {per_op(pm.fences, base.pm.fences, 1), "count"};
}

void LifeTotals::add(Trainer& t) {
  const MirrorStats& m = t.mirror().stats();
  mirror.save_attempts += m.save_attempts;
  mirror.saves += m.saves;
  mirror.async_saves += m.async_saves;
  mirror.replica_repairs += m.replica_repairs;
  data.records += t.data().stats().records;
  data.corrupt_records += t.data().stats().corrupt_records;
  ckpt_saves += t.checkpointer().stats().saves;
}

void add_trainer_counts(const LifeTotals& totals, Trainer& t, double ops, Metrics& out) {
  out["pm_data.records_per_op"] = {static_cast<double>(totals.data.records) / ops, "count"};
  out["pm_data.corrupt_records"] = {static_cast<double>(totals.data.corrupt_records),
                                  "count"};
  double sealed = 0;
  for (const auto& e : t.mirror().sealed_extents()) {
    sealed += static_cast<double>(e.sealed_len) * (e.replica_off != 0 ? 2.0 : 1.0);
  }
  out["mirror.sealed_mb_per_save"] = {sealed / 1e6, "MB"};
  out["mirror.save_completion"] = {
      static_cast<double>(totals.mirror.saves) /
          static_cast<double>(std::max<std::uint64_t>(1, totals.mirror.save_attempts)),
      "ratio"};
  out["mirror.async_saves"] = {static_cast<double>(totals.mirror.async_saves), "count"};
  out["mirror.replica_repairs"] = {static_cast<double>(totals.mirror.replica_repairs),
                                 "count"};
  out["ckpt.saves"] = {static_cast<double>(totals.ckpt_saves), "count"};
}

}  // namespace plinius::e2e
