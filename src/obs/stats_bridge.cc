#include "obs/stats_bridge.h"

#include "plinius/checkpoint.h"
#include "plinius/fleet/fleet.h"
#include "plinius/mirror.h"
#include "plinius/pm_data.h"
#include "plinius/scrub.h"
#include "plinius/trainer.h"
#include "pm/device.h"
#include "serve/fleet/fleet_server.h"
#include "serve/fleet/registry.h"
#include "serve/fleet/router.h"
#include "serve/server.h"
#include "obs/trace.h"
#include "sgx/enclave.h"

namespace plinius::obs {

void publish(Registry& reg, const Tracer& t, const Labels& labels) {
  reg.set_gauge("obs.trace.recorded", static_cast<double>(t.total_recorded()),
                labels);
  reg.set_gauge("obs.trace.evicted", static_cast<double>(t.dropped()), labels);
  reg.set_gauge("obs.trace.cancelled", static_cast<double>(t.cancelled()), labels);
}

void publish(Registry& reg, const sgx::EnclaveStats& s, const Labels& labels) {
  reg.set_counter("enclave.ecalls", s.ecalls, labels);
  reg.set_counter("enclave.ocalls", s.ocalls, labels);
  reg.set_counter("enclave.epc_faults", s.epc_faults, labels);
  reg.set_counter("enclave.bytes_copied_in", s.bytes_copied_in, labels);
  reg.set_counter("enclave.bytes_copied_out", s.bytes_copied_out, labels);
  reg.set_counter("enclave.crypto_bytes", s.crypto_bytes, labels);
  reg.set_counter("enclave.parallel_regions", s.parallel_regions, labels);
  reg.set_counter("enclave.stream_submits", s.stream_submits, labels);
}

void publish(Registry& reg, const pm::PmStats& s, const Labels& labels) {
  reg.set_counter("pm.stores", s.stores, labels);
  reg.set_counter("pm.bytes_stored", s.bytes_stored, labels);
  reg.set_counter("pm.flushes", s.flushes, labels);
  reg.set_counter("pm.lines_flushed", s.lines_flushed, labels);
  reg.set_counter("pm.fences", s.fences, labels);
  reg.set_counter("pm.bytes_read", s.bytes_read, labels);
  reg.set_counter("pm.crashes", s.crashes, labels);
  reg.set_counter("pm.media_bit_flips", s.media_bit_flips, labels);
  reg.set_counter("pm.media_torn_lines", s.media_torn_lines, labels);
  reg.set_counter("pm.media_poisoned_lines", s.media_poisoned_lines, labels);
  reg.set_counter("pm.poison_cleared", s.poison_cleared, labels);
  reg.set_counter("pm.scrub_bytes", s.scrub_bytes, labels);
}

void publish(Registry& reg, const MirrorStats& s, const Labels& labels) {
  reg.set_gauge("mirror.encrypt_ns", s.encrypt_ns, labels);
  reg.set_gauge("mirror.write_ns", s.write_ns, labels);
  reg.set_gauge("mirror.read_ns", s.read_ns, labels);
  reg.set_gauge("mirror.decrypt_ns", s.decrypt_ns, labels);
  reg.set_gauge("mirror.pipeline_stall_ns", s.pipeline_stall_ns, labels);
  reg.set_counter("mirror.save_attempts", s.save_attempts, labels);
  reg.set_counter("mirror.restore_attempts", s.restore_attempts, labels);
  reg.set_counter("mirror.saves", s.saves, labels);
  reg.set_counter("mirror.restores", s.restores, labels);
  reg.set_counter("mirror.async_saves", s.async_saves, labels);
  reg.set_counter("mirror.replica_repairs", s.replica_repairs, labels);
}

void publish(Registry& reg, const MirrorScrubReport& s, const Labels& labels) {
  reg.set_counter("scrub.mirror.buffers_checked", s.buffers_checked, labels);
  reg.set_counter("scrub.mirror.auth_failures", s.auth_failures, labels);
  reg.set_counter("scrub.mirror.repaired", s.repaired, labels);
  reg.set_counter("scrub.mirror.unrecoverable", s.unrecoverable, labels);
}

void publish(Registry& reg, const CheckpointStats& s, const Labels& labels) {
  reg.set_gauge("checkpoint.encrypt_ns", s.encrypt_ns, labels);
  reg.set_gauge("checkpoint.write_ns", s.write_ns, labels);
  reg.set_gauge("checkpoint.read_ns", s.read_ns, labels);
  reg.set_gauge("checkpoint.decrypt_ns", s.decrypt_ns, labels);
  reg.set_counter("checkpoint.save_attempts", s.save_attempts, labels);
  reg.set_counter("checkpoint.restore_attempts", s.restore_attempts, labels);
  reg.set_counter("checkpoint.saves", s.saves, labels);
  reg.set_counter("checkpoint.restores", s.restores, labels);
}

void publish(Registry& reg, const PmDataStats& s, const Labels& labels) {
  reg.set_gauge("data.decrypt_ns", s.decrypt_ns, labels);
  reg.set_counter("data.batches", s.batches, labels);
  reg.set_counter("data.records", s.records, labels);
  reg.set_counter("data.corrupt_records", s.corrupt_records, labels);
  reg.set_counter("data.resampled", s.resampled, labels);
}

void publish(Registry& reg, const ScrubReport& s, const Labels& labels) {
  reg.set_counter("scrub.header_ok", s.header_ok ? 1 : 0, labels);
  reg.set_counter("scrub.allocator_ok", s.allocator_ok ? 1 : 0, labels);
  reg.set_counter("scrub.mirror_layout_ok", s.mirror_layout_ok ? 1 : 0, labels);
  reg.set_counter("scrub.twin_restored", s.twin_restored ? 1 : 0, labels);
  reg.set_counter("scrub.twins_resynced", s.twins_resynced ? 1 : 0, labels);
  reg.set_counter("scrub.dataset_layout_ok", s.dataset_layout_ok ? 1 : 0, labels);
  reg.set_counter("scrub.corrupt_records", s.corrupt_records.size(), labels);
  reg.set_counter("scrub.poisoned_lines", s.poisoned_lines, labels);
  reg.set_counter("scrub.healthy", s.healthy() ? 1 : 0, labels);
  if (s.mirror_present) publish(reg, s.mirror, labels);
}

void publish(Registry& reg, const RecoveryReport& s, const Labels& labels) {
  reg.set_counter("recovery.tier", static_cast<std::uint64_t>(s.tier), labels);
  reg.set_counter("recovery.resume_iteration", s.resume_iteration, labels);
  reg.set_counter("recovery.replica_repairs", s.replica_repairs, labels);
  reg.set_counter("recovery.region_reformatted", s.region_reformatted ? 1 : 0, labels);
  reg.set_counter("recovery.mirror_rebuilt", s.mirror_rebuilt ? 1 : 0, labels);
  reg.set_counter("recovery.dataset_lost", s.dataset_lost ? 1 : 0, labels);
  reg.set_counter("recovery.rungs_failed", s.rungs_failed.size(), labels);
}

void publish(Registry& reg, const ClusterStats& s, const Labels& labels) {
  reg.set_counter("cluster.peer_provisions", s.peer_provisions, labels);
  reg.set_counter("cluster.peer_retries", s.peer_retries, labels);
  reg.set_counter("cluster.peer_provision_failures", s.peer_provision_failures,
                  labels);
  reg.set_counter("cluster.peer_backoff_capped", s.peer_backoff_capped, labels);
  // Gauge mirrors of the peer-channel counters so CI can assert their
  // presence with validate_obs.py --require-gauge (which checks gauges only).
  reg.set_gauge("cluster.peer_provisions",
                static_cast<double>(s.peer_provisions), labels);
  reg.set_gauge("cluster.peer_retries", static_cast<double>(s.peer_retries),
                labels);
  reg.set_gauge("cluster.peer_provision_failures",
                static_cast<double>(s.peer_provision_failures), labels);
}

void publish(Registry& reg, const fleet::FleetReport& s, const Labels& labels) {
  // Local tier-name table: the canonical to_string(RecoveryTier) lives in the
  // trainer library, which this bridge deliberately does not link against.
  static constexpr const char* kTierNames[] = {
      "none", "mirror", "replica", "ssd-checkpoint", "fresh-start", "peer"};
  reg.set_gauge("fleet.live_workers", static_cast<double>(s.live_workers),
                labels);
  reg.set_gauge("fleet.workers", static_cast<double>(s.workers.size()), labels);
  reg.set_gauge("fleet.elapsed_ns", s.elapsed_ns, labels);
  reg.set_gauge("fleet.completed", s.completed ? 1.0 : 0.0, labels);
  reg.set_counter("fleet.rounds_total", s.rounds_total, labels);
  reg.set_counter("fleet.rounds_skipped_quorum", s.rounds_skipped_quorum, labels);
  reg.set_counter("fleet.sync_rounds", s.sync_rounds, labels);
  reg.set_counter("fleet.kills", s.kills, labels);
  reg.set_counter("fleet.revives", s.revives, labels);
  reg.set_counter("fleet.executed_iterations", s.executed_iterations, labels);
  reg.set_counter("fleet.redone_iterations", s.redone_iterations, labels);
  reg.set_gauge("fleet.redone_iterations",
                static_cast<double>(s.redone_iterations), labels);
  for (std::size_t t = 0; t < s.recoveries_by_tier.size(); ++t) {
    Labels tiered = labels;
    tiered.emplace_back("tier", kTierNames[t]);
    reg.set_counter("fleet.recoveries", s.recoveries_by_tier[t], tiered);
    // Per-tier recovery histogram: one sample at the tier ordinal per revival.
    for (std::uint64_t k = 0; k < s.recoveries_by_tier[t]; ++k) {
      reg.record("fleet.recovery_tier", static_cast<sim::Nanos>(t), labels);
    }
  }
  for (const fleet::RoundLog& r : s.rounds) {
    reg.record("fleet.round_ns", r.end_ns - r.start_ns, labels);
  }
  for (const fleet::WorkerReport& w : s.workers) {
    Labels wl = labels;
    wl.emplace_back("worker", std::to_string(w.worker));
    reg.set_counter("fleet.worker.executed_iterations", w.executed_iterations, wl);
    reg.set_counter("fleet.worker.redone_iterations", w.redone_iterations, wl);
    reg.set_counter("fleet.worker.kills", w.kills, wl);
    reg.set_counter("fleet.worker.revives", w.revives, wl);
    reg.set_counter("fleet.worker.rounds_participated", w.rounds_participated, wl);
    reg.set_counter("fleet.worker.rounds_missed", w.rounds_missed, wl);
  }
  publish(reg, s.cluster, labels);
}

void publish(Registry& reg, const serve::ServerStats& s, const Labels& labels) {
  reg.set_counter("serve.arrived", s.arrived, labels);
  reg.set_counter("serve.completed", s.completed, labels);
  reg.set_counter("serve.shed_queue_full", s.shed_queue_full, labels);
  reg.set_counter("serve.shed_deadline", s.shed_deadline, labels);
  reg.set_counter("serve.expired", s.expired, labels);
  reg.set_counter("serve.auth_failed", s.auth_failed, labels);
  reg.set_counter("serve.batches", s.batches, labels);
  reg.set_counter("serve.reloads", s.reloads, labels);
  reg.set_counter("serve.reload_failures", s.reload_failures, labels);
  reg.set_gauge("serve.busy_ns", s.busy_ns, labels);
  reg.set_gauge("serve.span_ns", s.span_ns, labels);
  reg.merge_histogram("serve.latency.total", s.total_hist, labels);
  reg.merge_histogram("serve.latency.queue", s.queue_hist, labels);
  reg.merge_histogram("serve.latency.decrypt", s.decrypt_hist, labels);
  reg.merge_histogram("serve.latency.forward", s.forward_hist, labels);
  reg.merge_histogram("serve.latency.seal", s.seal_hist, labels);
  reg.merge_histogram("serve.batch_size", s.batch_hist, labels);
}

void publish(Registry& reg, const serve::fleet::RouterStats& s, const Labels& labels) {
  reg.set_counter("router.routed", s.routed, labels);
  reg.set_counter("router.shed", s.shed, labels);
  for (std::size_t c = 0; c < serve::fleet::kSloClasses; ++c) {
    Labels cl = labels;
    cl.emplace_back("class",
                    serve::fleet::to_string(static_cast<serve::fleet::SloClass>(c)));
    reg.set_counter("router.routed_by_class", s.routed_by_class[c], cl);
    reg.set_counter("router.shed_by_class", s.shed_by_class[c], cl);
  }
}

void publish(Registry& reg, const serve::fleet::RegistryStats& s, const Labels& labels) {
  reg.set_gauge("registry.versions", static_cast<double>(s.versions), labels);
  reg.set_gauge("registry.serving_version",
                static_cast<double>(s.serving_version), labels);
  reg.set_gauge("registry.sealed_bytes", static_cast<double>(s.sealed_bytes),
                labels);
  reg.set_counter("registry.publishes", s.publishes, labels);
  reg.set_counter("registry.loads", s.loads, labels);
  reg.set_counter("registry.load_failures", s.load_failures, labels);
  // Gauge mirror so CI can pin the failure series with --require-gauge.
  reg.set_gauge("registry.load_failures", static_cast<double>(s.load_failures),
                labels);
}

void publish(Registry& reg, const serve::fleet::FleetServeStats& s, const Labels& labels) {
  reg.set_counter("router.windows", s.windows, labels);
  reg.set_counter("router.offered", s.offered, labels);
  reg.set_counter("router.served", s.served, labels);
  reg.set_counter("router.router_shed", s.router_shed, labels);
  reg.set_counter("router.auth_failed", s.auth_failed, labels);
  reg.set_counter("router.expired", s.expired, labels);
  reg.set_counter("router.rollouts", s.rollouts, labels);
  reg.set_counter("router.promotions", s.promotions, labels);
  reg.set_counter("router.rollbacks", s.rollbacks, labels);
  reg.set_counter("router.reloads", s.reloads, labels);
  reg.set_counter("router.reload_failures", s.reload_failures, labels);
  reg.set_counter("router.scale_ups", s.scale_ups, labels);
  reg.set_counter("router.scale_downs", s.scale_downs, labels);
  reg.set_counter("router.provisions", s.provisions, labels);
  reg.set_counter("router.transfer_drops", s.transfer_drops, labels);
  // Gauge mirrors of the rollout outcomes for --require-gauge pins.
  reg.set_gauge("router.rollbacks", static_cast<double>(s.rollbacks), labels);
  reg.set_gauge("router.promotions", static_cast<double>(s.promotions), labels);
}

}  // namespace plinius::obs
