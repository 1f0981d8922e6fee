// Elastic preemptible-fleet training: the spot simulator (§VI, Fig. 10)
// merged with distributed data-parallel training (§VIII future work: "we
// wish to explore distributed training using Plinius to overcome the SGX EPC
// limitation").
//
// N workers, each a full Plinius stack (its own enclave, PM device, mirror,
// encrypted round-robin data shard), run `sync_every` local iterations and
// then average parameters over sealed enclave-to-enclave links. Every
// worker owns an independent simulated clock and an independent preemption
// source (per-node spot-price replay or a seeded chaos/media-fault schedule
// — see preemption.h); membership is re-evaluated between averaging rounds,
// and the averaging step is a pluggable sync policy:
//
//   * kBarrier (default) — all live workers wait for the slowest and
//     plain-average in worker order. With PreemptionModel::kNone this is
//     classic synchronous data-parallel training; fleet_test pins it bitwise
//     against a loop of plain Trainers.
//   * kBoundedStaleness — a worker whose model is at most
//     `staleness_bound * sync_every` iterations behind the live frontier
//     still folds into the average, weighted 1/(1+lag_rounds); a worker
//     further behind (e.g. freshly revived from a deep recovery) skips the
//     round and trains locally until it is back within the bound. No global
//     barrier: only the round's participants align clocks.
//   * kGossip — pairwise averaging: live workers are paired with a seeded
//     shuffle each round and each pair averages parameters; no global
//     barrier at all.
//
// Failure handling: a dead worker is simply dropped from the round. A round
// whose live fraction is below `min_live_fraction` is skipped entirely and
// charged as idle time (quorum loss). A revived worker recovers from its
// local PM mirror through the tiered recovery ladder; when the ladder
// bottoms out in a fresh start, the bottom rung re-provisions parameters
// from the healthiest live peer over the attested channel, with a per-worker
// retry budget and capped+jittered exponential backoff (common/backoff.h).
//
// Telemetry: a per-round RoundLog and an aggregate FleetReport (per-worker
// reports reuse spot::InterruptionRecord for per-kill recovery detail), all
// publishable into the obs registry via obs/stats_bridge.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/fabric.h"
#include "ml/config.h"
#include "ml/data.h"
#include "obs/registry.h"
#include "plinius/fleet/preemption.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "spot/simulator.h"  // spot::InterruptionRecord

namespace plinius {

/// Peer re-provisioning counters, published as cluster.peer_* by
/// obs/stats_bridge.
struct ClusterStats {
  std::uint64_t peer_provisions = 0;       // workers re-provisioned from a peer
  std::uint64_t peer_retries = 0;          // sealed transfers the channel dropped
  std::uint64_t peer_provision_failures = 0;  // retry budget exhausted
  std::uint64_t peer_backoff_capped = 0;   // retry delays clamped at the cap
};

}  // namespace plinius

namespace plinius::fleet {

/// Round-robin data-parallel sharding: record r of shard w is record
/// r*workers+w of `data`.
[[nodiscard]] std::vector<ml::Dataset> shard_round_robin(const ml::Dataset& data,
                                                         std::size_t workers);

enum class SyncPolicy { kBarrier, kBoundedStaleness, kGossip };

[[nodiscard]] const char* to_string(SyncPolicy policy) noexcept;

/// Phases of one averaging round at which a test hook may kill workers, so
/// kill-during-averaging behavior is exhaustively sweepable.
enum class RoundPhase {
  kPreExchange,   // after local training, before any parameter traffic
  kMidExchange,   // wire charged, parameters not yet folded
  kPostAverage,   // averaged in-enclave, not yet persisted to the mirrors
};

[[nodiscard]] const char* to_string(RoundPhase phase) noexcept;

struct FleetOptions {
  std::size_t workers = 2;
  std::size_t sync_every = 8;   // local iterations between averaging rounds
  TrainerOptions trainer;       // per-worker configuration
  // Inter-node link: bandwidth and RTT charge the averaging exchange; the
  // loss rate, retry budget, backoff and seed govern the peer re-provision
  // transfer (cluster/fabric.h).
  cluster::LinkOptions link;

  SyncPolicy policy = SyncPolicy::kBarrier;
  // kBoundedStaleness: maximum lag, in averaging rounds' worth of
  // iterations, at which a straggler still folds into the average.
  std::size_t staleness_bound = 2;

  // Quorum: minimum live fraction for a round to proceed. Below it the
  // round is skipped and every machine is charged `idle_round_ns` of idle
  // wall time instead.
  double min_live_fraction = 0.5;
  sim::Nanos idle_round_ns = 10.0e6;
  // Hard stop: a fleet that cannot finish (e.g. every trace hostile to the
  // end) gives up after this many rounds with report().completed == false.
  std::uint64_t max_rounds = 100000;

  PreemptionOptions preemption;  // per-worker kill/revive schedule
  std::uint64_t fleet_seed = 0xF1EE7C;  // gossip pairing determinism

  // Peer re-provisioning (the recovery ladder's bottom rung): a worker whose
  // local ladder ends in a fresh start pulls the current parameters from the
  // healthiest live peer over `link`.
  bool peer_provision = true;
};

/// One averaging round's structured log line.
struct RoundLog {
  std::uint64_t round = 0;
  std::size_t live = 0;          // live workers entering the sync phase
  std::size_t participants = 0;  // workers folded into this round's average
  std::size_t killed = 0;        // kill events during this round
  std::size_t revived = 0;       // rejoins at this round's start
  bool quorum_met = true;
  bool averaged = false;         // an exchange actually happened
  sim::Nanos start_ns = 0;
  sim::Nanos end_ns = 0;
};

/// Per-worker outcome, including per-kill recovery detail (the struct the
/// spot simulator reports per interruption).
struct WorkerReport {
  std::size_t worker = 0;
  std::uint64_t executed_iterations = 0;  // includes redone work
  std::uint64_t redone_iterations = 0;    // work destroyed by kills
  std::uint64_t kills = 0;
  std::uint64_t revives = 0;
  std::uint64_t rounds_participated = 0;  // folded into an average
  std::uint64_t rounds_missed = 0;        // dead, out-of-quorum or too stale
  std::vector<spot::InterruptionRecord> interruptions;
  float final_loss = 0;
};

struct FleetReport {
  std::vector<WorkerReport> workers;
  std::vector<RoundLog> rounds;
  std::uint64_t rounds_total = 0;
  std::uint64_t rounds_skipped_quorum = 0;
  std::uint64_t sync_rounds = 0;  // rounds where an average happened
  std::uint64_t kills = 0;
  std::uint64_t revives = 0;
  std::uint64_t executed_iterations = 0;
  std::uint64_t redone_iterations = 0;
  // Revivals per recovery rung, indexed by RecoveryTier ordinal
  // (kNone..kPeer) — the fleet-wide recovery histogram.
  std::array<std::uint64_t, 6> recoveries_by_tier{};
  ClusterStats cluster;       // peer re-provisioning counters
  std::size_t live_workers = 0;  // at exit
  sim::Nanos elapsed_ns = 0;
  bool completed = false;     // every worker reached the target
};

class ElasticTrainer {
 public:
  /// Builds `options.workers` independent platforms with `profile`,
  /// `pm_bytes_per_worker` of PM each; worker w's platform is seeded
  /// 0x5367E0 + w (independent machines with their own fused keys).
  ElasticTrainer(const MachineProfile& profile, std::size_t pm_bytes_per_worker,
                 const ml::ModelConfig& config, FleetOptions options);
  ~ElasticTrainer();

  ElasticTrainer(const ElasticTrainer&) = delete;
  ElasticTrainer& operator=(const ElasticTrainer&) = delete;

  /// Shards the dataset round-robin across the workers' PM devices.
  void load_dataset(const ml::Dataset& data);

  /// Runs averaging rounds until every worker has seen `target_iterations`
  /// iterations or `max_rounds` elapse. Returns the mean final loss across
  /// workers; the structured account is in report().
  float train(std::uint64_t target_iterations);

  /// Kills worker `w` now (process death + PM power-fail semantics): it is
  /// dropped from the remainder of the current round and revives when its
  /// preemption source next reports it up (immediately next round under
  /// PreemptionModel::kNone). No-op if already dead.
  void kill_worker(std::size_t w);

  [[nodiscard]] bool alive(std::size_t w) const;
  [[nodiscard]] std::size_t live_count() const noexcept;
  [[nodiscard]] std::size_t workers() const noexcept { return platforms_.size(); }

  /// Access revives a dead worker on the spot (running its recovery ladder).
  [[nodiscard]] ml::Network& network(std::size_t w);
  [[nodiscard]] Trainer& trainer(std::size_t w);

  /// Every executed-iteration loss of worker `w`, across all incarnations.
  [[nodiscard]] const std::vector<float>& losses(std::size_t w) const;

  /// Parallel wall time: the maximum of the workers' clocks.
  [[nodiscard]] sim::Nanos elapsed_ns() const;

  [[nodiscard]] std::uint64_t sync_rounds() const noexcept {
    return report_.sync_rounds;
  }
  [[nodiscard]] const ClusterStats& stats() const noexcept {
    return report_.cluster;
  }
  /// Structured fleet telemetry (finalized by train(); round/worker entries
  /// accumulate across train() calls).
  [[nodiscard]] const FleetReport& report() const noexcept { return report_; }

  /// Test hook, called at each phase of every non-skipped sync round. May
  /// call kill_worker(); membership is re-evaluated after each phase.
  using PhaseHook = std::function<void(std::uint64_t round, RoundPhase phase)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Publishes the fleet report into `reg` under canonical names
  /// (obs/stats_bridge): fleet.live_workers gauge, fleet.redone_iterations
  /// counter, per-tier recovery counters/histogram, cluster.* peer gauges.
  void publish(obs::Registry& reg, const obs::Labels& labels = {}) const;

 private:
  void build_worker(std::size_t w);  // initial construction (ctor only)
  void refresh_membership(std::uint64_t round, RoundLog& log);
  void preempt_kill(std::size_t w, std::uint64_t round);
  void revive_worker(std::size_t w, RoundLog* log);
  bool reprovision_from_peer(std::size_t w);
  void run_phase_hook(std::uint64_t round, RoundPhase phase);
  void sync_round(std::uint64_t round, RoundLog& log);
  /// Live workers eligible to fold into this round's average under the
  /// configured policy.
  [[nodiscard]] std::vector<std::size_t> select_participants() const;
  /// Rounds-of-iterations lag of worker `w` behind the live frontier.
  [[nodiscard]] std::uint64_t lag_rounds(std::size_t w) const;
  void barrier_all();
  void align_clocks(const std::vector<std::size_t>& ws);
  void charge_exchange(const std::vector<std::size_t>& ws);
  void average_plain(const std::vector<std::size_t>& ws);
  void average_weighted(const std::vector<std::size_t>& ws);
  void gossip_exchange(std::uint64_t round, RoundLog& log,
                       std::vector<bool>& folded);
  void persist_live_mirrors();
  void collect_losses(std::size_t w, std::uint64_t new_losses);
  [[nodiscard]] bool all_reached(std::uint64_t target) const;

  ml::ModelConfig config_;
  FleetOptions options_;
  std::vector<std::unique_ptr<Platform>> platforms_;
  std::vector<std::unique_ptr<Trainer>> trainers_;
  std::vector<PreemptionSource> sources_;
  std::vector<ml::Dataset> shards_;
  std::vector<bool> alive_;
  // Last known model iteration per worker (valid while dead, when the
  // trainer object is gone).
  std::vector<std::uint64_t> last_iteration_;
  // Index into report_.workers[w].interruptions of the kill awaiting its
  // revival detail; npos when none.
  std::vector<std::size_t> open_kill_;
  std::vector<std::vector<float>> losses_;
  Rng net_rng_;     // lossy peer channel
  Rng gossip_rng_;  // pairing shuffles
  FleetReport report_;
  PhaseHook phase_hook_;
  RoundLog* current_log_ = nullptr;  // round in flight (kill accounting)
  std::uint64_t round_counter_ = 0;
  bool data_loaded_ = false;
};

}  // namespace plinius::fleet
