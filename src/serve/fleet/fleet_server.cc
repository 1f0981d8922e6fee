#include "serve/fleet/fleet_server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/histogram.h"
#include "crypto/aes.h"
#include "obs/stats_bridge.h"

namespace plinius::serve::fleet {

namespace {
/// Control plane uses the Platform default seed; replica seeds live in a
/// disjoint range so the attestation service never aliases two machines.
constexpr std::uint64_t kControlSeed = 0x5367E0ULL;
constexpr std::uint64_t kReplicaSeedBase = kControlSeed + 0x10000ULL;

/// Romulus regions are twin-copied (header page + 2x main), so a third of
/// the device leaves comfortable headroom.
std::size_t main_bytes_for(std::size_t pm_bytes) { return pm_bytes / 3; }
}  // namespace

ServingFleet::ServingFleet(const MachineProfile& profile,
                           const ml::ModelConfig& config, FleetOptions options)
    : profile_(profile),
      config_(config),
      options_(std::move(options)),
      autoscaler_(options_.autoscaler),
      net_rng_(options_.link.net_seed) {
  expects(options_.initial_replicas >= 1,
          "ServingFleet: need at least one replica");
  expects(options_.canary.fraction > 0.0 && options_.canary.fraction <= 1.0,
          "ServingFleet: canary fraction must be in (0, 1]");

  control_ = std::make_unique<Platform>(profile_, options_.control_pm_bytes,
                                        kControlSeed);
  attestation_.register_platform(kControlSeed);
  control_rom_ = std::make_unique<romulus::Romulus>(
      control_->pm(), 0, main_bytes_for(options_.control_pm_bytes),
      romulus::PwbPolicy::clflushopt_sfence(), /*format=*/true);

  // The data key is born in the control enclave; replicas receive it only
  // through attested provisioning (add_replica).
  data_key_.assign(crypto::Aes::kKeySize128, 0);
  control_->enclave().read_rand(data_key_);
  shed_iv_ = crypto::IvSequence::salted(control_->enclave().rng());

  registry_ = std::make_unique<ModelRegistry>(*control_rom_, control_->enclave(),
                                              crypto::AesGcm(data_key_));
  registry_->create(options_.registry_capacity);

  router_ = std::make_unique<Router>(options_.router, options_.initial_replicas);
  replicas_.reserve(options_.initial_replicas);
  for (std::size_t r = 0; r < options_.initial_replicas; ++r) add_replica();
}

ServingFleet::~ServingFleet() = default;

void ServingFleet::add_replica() {
  const std::size_t ordinal = next_replica_ordinal_++;
  const std::uint64_t seed = kReplicaSeedBase + ordinal;

  Replica rep;
  rep.platform = std::make_unique<Platform>(
      profile_, options_.pm_bytes_per_replica, seed);
  attestation_.register_platform(seed);
  rep.rom = std::make_unique<romulus::Romulus>(
      rep.platform->pm(), 0, main_bytes_for(options_.pm_bytes_per_replica),
      romulus::PwbPolicy::clflushopt_sfence(), /*format=*/true);

  // Fig. 5 join: the control plane (as the data owner) attests the new
  // replica's enclave and wraps the data key for it over the session
  // channel. All replica enclaves run the same image, so the expected
  // measurement is the control enclave's own.
  sgx::DataOwner owner(attestation_, control_->enclave().measurement(),
                       data_key_,
                       options_.fleet_seed ^ cluster::kSeedGamma * (ordinal + 1));
  const Bytes key = cluster::provision_key(owner, rep.platform->enclave());
  expects(key == data_key_, "ServingFleet: provisioned key mismatch");
  ++stats_.provisions;

  rep.mirror = std::make_unique<MirrorModel>(*rep.rom, rep.platform->enclave(),
                                             crypto::AesGcm(key));
  rep.qmirror = std::make_unique<QuantMirror>(*rep.rom, rep.platform->enclave(),
                                              crypto::AesGcm(key));

  // A machine that joins mid-run joins at the fleet's present.
  const sim::Nanos now = elapsed_ns();
  if (rep.platform->clock().now() < now) {
    rep.platform->clock().advance(now - rep.platform->clock().now());
  }
  replicas_.push_back(std::move(rep));
}

std::uint64_t ServingFleet::publish(ml::Network& net) {
  return registry_->publish(net);
}

std::uint64_t ServingFleet::publish(const ml::QuantizedNetwork& qnet) {
  return registry_->publish(qnet);
}

bool ServingFleet::install_version(std::size_t r, std::uint64_t version) {
  Replica& rep = replicas_[r];
  const VersionRecord rec = registry_->record(version);

  // Ship the sealed record over the attested channel (shared cluster
  // fabric: lossy link, BackoffSchedule retries — same path the trainers'
  // peer re-provisioning takes).
  const cluster::TransferOutcome out = cluster::transfer_sealed(
      {&control_->enclave(), &control_->clock()},
      {&rep.platform->enclave(), &rep.platform->clock()},
      static_cast<double>(rec.sealed_len), options_.link, net_rng_,
      cluster::member_backoff_seed(options_.link.net_seed, r));
  stats_.transfer_drops += out.drops;
  if (!out.delivered) {
    ++rep.reload_failures;
    ++stats_.reload_failures;
    return false;
  }

  // Authenticate before anything serving-visible is touched: a tampered
  // record throws here and the replica keeps its old model.
  Bytes blob;
  try {
    blob = registry_->load_blob(version);
  } catch (const CryptoError&) {
    ++rep.reload_failures;
    ++stats_.reload_failures;
    return false;
  }
  rep.platform->enclave().charge_plain_copy(blob.size());

  try {
    if (rec.dtype == ml::kDtypeFloat32) {
      // Staged install: deserialize into a fresh network, swap on success.
      Rng init(options_.fleet_seed ^ (r + 1));
      auto fresh =
          std::make_unique<ml::Network>(ml::build_network(config_, init));
      ml::deserialize_weights(*fresh, ByteSpan(blob));
      rep.net = std::move(fresh);
      rep.qnet.reset();
      if (!rep.mirror->exists()) rep.mirror->alloc(*rep.net);
      rep.mirror->mirror_out(*rep.net, rep.net->iterations());
    } else {
      auto fresh = std::make_unique<ml::QuantizedNetwork>(
          ml::deserialize_quantized(ByteSpan(blob)));
      rep.qnet = std::move(fresh);
      rep.qmirror->save(*rep.qnet, rep.qnet->iterations());
    }
  } catch (const MlError&) {
    ++rep.reload_failures;
    ++stats_.reload_failures;
    return false;
  }

  rep.version = version;
  rep.dtype = rec.dtype;
  ++rep.reloads;
  ++stats_.reloads;
  return true;
}

void ServingFleet::set_stable(std::uint64_t version) {
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!install_version(r, version)) {
      throw Error("ServingFleet::set_stable: install failed on replica " +
                  std::to_string(r));
    }
  }
  if (stable_version_ != 0 && stable_version_ != version) {
    registry_->set_state(stable_version_, VersionState::kRetired);
  }
  registry_->set_state(version, VersionState::kServing);
  stable_version_ = version;
}

bool ServingFleet::begin_rollout(std::uint64_t version) {
  expects(phase_ == RolloutPhase::kIdle,
          "ServingFleet: a rollout is already in flight");
  expects(stable_version_ != 0, "ServingFleet: no stable version to fall back to");
  expects(version != stable_version_,
          "ServingFleet: cannot canary the stable version");
  expects(replicas_.size() >= 2,
          "ServingFleet: canary rollout needs a baseline cohort");

  std::size_t canaries = static_cast<std::size_t>(
      std::ceil(options_.canary.fraction * static_cast<double>(replicas_.size())));
  canaries = std::clamp<std::size_t>(canaries, 1, replicas_.size() - 1);

  ++stats_.rollouts;
  canary_version_ = version;
  phase_ = RolloutPhase::kCanary;
  healthy_windows_ = 0;
  registry_->set_state(version, VersionState::kCanary);
  for (std::size_t i = 0; i < canaries; ++i) {
    replicas_[replicas_.size() - 1 - i].canary = true;
  }

  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r].canary) continue;
    if (!install_version(r, version)) {
      // Failed install (corrupt record / dead link): the replica is still
      // serving the stable version — abort the rollout fleet-wide.
      rollback();
      return false;
    }
  }
  return true;
}

void ServingFleet::rollback() {
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    if (!rep.canary) continue;
    if (rep.version == canary_version_) {
      if (!install_version(r, stable_version_)) {
        throw Error("ServingFleet::rollback: stable reinstall failed on replica " +
                    std::to_string(r));
      }
    }
    rep.canary = false;
  }
  registry_->set_state(canary_version_, VersionState::kRejected);
  canary_version_ = 0;
  healthy_windows_ = 0;
  phase_ = RolloutPhase::kIdle;
  ++stats_.rollbacks;
}

void ServingFleet::promote() {
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (replicas_[r].canary) continue;
    if (!install_version(r, canary_version_)) {
      // Can't complete the fleet-wide install: treat like any other canary
      // failure and converge back onto the stable version.
      rollback();
      return;
    }
  }
  if (stable_version_ != 0) {
    registry_->set_state(stable_version_, VersionState::kRetired);
  }
  registry_->set_state(canary_version_, VersionState::kServing);
  stable_version_ = canary_version_;
  canary_version_ = 0;
  healthy_windows_ = 0;
  phase_ = RolloutPhase::kIdle;
  for (Replica& rep : replicas_) rep.canary = false;
  ++stats_.promotions;
}

FleetWindowReport ServingFleet::serve_window(std::span<Request> workload) {
  expects(stable_version_ != 0,
          "ServingFleet::serve_window: set_stable a version first");

  FleetWindowReport window;
  window.replicas_begin = replicas_.size();
  window.offered = workload.size();
  router_->set_replica_count(replicas_.size());

  const std::vector<RouteDecision> decisions = router_->route(workload);

  // Partition onto replicas; router-level sheds get their sealed reply from
  // the control plane immediately (every request gets exactly one reply).
  std::vector<std::vector<Request>> per(replicas_.size());
  const crypto::AesGcm gcm(data_key_);
  sim::Nanos first_arrival = workload.empty() ? 0 : workload.front().arrival_ns;
  sim::Nanos last_arrival = first_arrival;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    first_arrival = std::min(first_arrival, workload[i].arrival_ns);
    last_arrival = std::max(last_arrival, workload[i].arrival_ns);
    if (decisions[i].shed) {
      control_->enclave().charge_crypto(kReplyPlainSize);
      Completion c;
      c.id = workload[i].id;
      c.status = ReplyStatus::kShedQueueFull;
      c.arrival_ns = workload[i].arrival_ns;
      c.done_ns = workload[i].arrival_ns;
      c.sealed_reply = seal_reply(gcm, shed_iv_, ReplyStatus::kShedQueueFull, 0);
      window.completions.push_back(std::move(c));
      ++window.router_shed;
    } else {
      per[decisions[i].replica].push_back(workload[i]);
      ++window.routed;
    }
  }

  // Run every replica's window server; merge each cohort's latency
  // recorders with the cross-replica histogram merge.
  std::vector<LatencyHistogram> baseline_hists, canary_hists;
  sim::Nanos busy_sum = 0;
  sim::Nanos last_done = last_arrival;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    CohortReport& cohort = rep.canary ? window.canary : window.baseline;
    ++cohort.replicas;
    if (per[r].empty()) continue;

    std::optional<InferenceServer> server;
    if (rep.dtype == ml::kDtypeFloat32) {
      expects(rep.net != nullptr, "ServingFleet: replica has no float model");
      server.emplace(*rep.platform, *rep.net, gcm, options_.server,
                     rep.mirror->exists() ? rep.mirror.get() : nullptr);
    } else {
      expects(rep.qnet != nullptr, "ServingFleet: replica has no int8 model");
      server.emplace(*rep.platform, *rep.qnet, gcm, options_.server,
                     rep.qmirror->exists() ? rep.qmirror.get() : nullptr);
    }
    std::vector<Completion> done = server->run(per[r]);
    const ServerStats& st = server->stats();
    cohort.arrived += st.arrived;
    cohort.served += st.completed;
    cohort.shed += st.shed_total();
    cohort.expired += st.expired;
    cohort.auth_failed += st.auth_failed;
    busy_sum += st.busy_ns;
    (rep.canary ? canary_hists : baseline_hists).push_back(st.total_hist);
    for (Completion& c : done) {
      last_done = std::max(last_done, c.done_ns);
      window.completions.push_back(std::move(c));
    }
  }

  const LatencyHistogram baseline_hist = merge_histograms(baseline_hists);
  const LatencyHistogram canary_hist = merge_histograms(canary_hists);
  window.baseline.p50_ns = baseline_hist.count() ? baseline_hist.percentile(50) : 0;
  window.baseline.p99_ns = baseline_hist.count() ? baseline_hist.percentile(99) : 0;
  window.canary.p50_ns = canary_hist.count() ? canary_hist.percentile(50) : 0;
  window.canary.p99_ns = canary_hist.count() ? canary_hist.percentile(99) : 0;

  std::vector<LatencyHistogram> both{baseline_hist, canary_hist};
  const LatencyHistogram fleet_hist = merge_histograms(both);
  window.p99_ns = fleet_hist.count() ? fleet_hist.percentile(99) : 0;
  window.served = window.baseline.served + window.canary.served;
  window.span_ns = last_done - first_arrival;
  if (window.span_ns > 0) {
    window.goodput_qps =
        static_cast<double>(window.served) / (window.span_ns / 1e9);
    window.utilization = busy_sum / (static_cast<double>(replicas_.size()) *
                                     window.span_ns);
  }
  double backlog = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    backlog += router_->estimated_backlog(r, last_arrival);
  }
  window.mean_queue_depth = backlog / static_cast<double>(replicas_.size());

  // Canary verdict for this window.
  if (phase_ == RolloutPhase::kCanary &&
      window.canary.served >= options_.canary.min_samples) {
    bool regressed = false;
    if (window.canary.p99_ns > options_.canary.p99_floor_ns &&
        window.baseline.p99_ns > 0 &&
        window.canary.p99_ns >
            window.baseline.p99_ns * options_.canary.p99_ratio) {
      regressed = true;
    }
    if (window.canary.error_rate() >
        window.baseline.error_rate() + options_.canary.error_rate_slack) {
      regressed = true;
    }
    if (regressed) {
      rollback();
      window.rolled_back = true;
    } else if (++healthy_windows_ >= options_.canary.promote_after) {
      const std::uint64_t promotions_before = stats_.promotions;
      promote();
      window.promoted = stats_.promotions > promotions_before;
      window.rolled_back = !window.promoted;
    }
  }

  // Publish the window's observability surface, then let the autoscaler
  // read it back — the policy sees exactly the operator's dashboard.
  stats_.windows += 1;
  stats_.offered += window.offered;
  stats_.served += window.served;
  stats_.router_shed += window.router_shed;
  stats_.auth_failed += window.baseline.auth_failed + window.canary.auth_failed;
  stats_.expired += window.baseline.expired + window.canary.expired;
  publish_metrics(window);

  if (options_.autoscale && phase_ == RolloutPhase::kIdle) {
    const int delta = autoscaler_.decide(obs_, replicas_.size());
    if (delta > 0) {
      for (int i = 0; i < delta; ++i) {
        add_replica();
        if (!install_version(replicas_.size() - 1, stable_version_)) {
          throw Error("ServingFleet: stable install failed on joining replica");
        }
      }
      ++stats_.scale_ups;
    } else if (delta < 0 && replicas_.size() > 1) {
      replicas_.pop_back();
      ++stats_.scale_downs;
    }
    if (delta != 0) {
      router_->set_replica_count(replicas_.size());
      window.scale_delta = delta;
      obs_.set_gauge("router.replicas",
                     static_cast<double>(replicas_.size()));
    }
  }
  window.replicas_end = replicas_.size();

  barrier_clocks();
  return window;
}

void ServingFleet::publish_metrics(const FleetWindowReport& window) {
  obs_.set_gauge("router.p99_us", window.p99_ns / 1e3);
  obs_.set_gauge("router.queue_depth", window.mean_queue_depth);
  obs_.set_gauge("router.utilization", window.utilization);
  obs_.set_gauge("router.replicas", static_cast<double>(replicas_.size()));
  obs::publish(obs_, router_->stats());
  obs::publish(obs_, registry_->stats());
  obs::publish(obs_, stats_);
}

void ServingFleet::barrier_clocks() {
  const sim::Nanos now = elapsed_ns();
  if (control_->clock().now() < now) {
    control_->clock().advance(now - control_->clock().now());
  }
  for (Replica& rep : replicas_) {
    if (rep.platform->clock().now() < now) {
      rep.platform->clock().advance(now - rep.platform->clock().now());
    }
  }
}

sim::Nanos ServingFleet::elapsed_ns() const {
  sim::Nanos latest = control_->clock().now();
  for (const Replica& rep : replicas_) {
    latest = std::max(latest, rep.platform->clock().now());
  }
  return latest;
}

std::size_t ServingFleet::replica_count() const noexcept {
  return replicas_.size();
}

std::uint64_t ServingFleet::replica_version(std::size_t r) const {
  expects(r < replicas_.size(), "ServingFleet: bad replica index");
  return replicas_[r].version;
}

bool ServingFleet::replica_is_canary(std::size_t r) const {
  expects(r < replicas_.size(), "ServingFleet: bad replica index");
  return replicas_[r].canary;
}

std::uint64_t ServingFleet::replica_reloads(std::size_t r) const {
  expects(r < replicas_.size(), "ServingFleet: bad replica index");
  return replicas_[r].reloads;
}

std::uint64_t ServingFleet::replica_reload_failures(std::size_t r) const {
  expects(r < replicas_.size(), "ServingFleet: bad replica index");
  return replicas_[r].reload_failures;
}

}  // namespace plinius::serve::fleet
