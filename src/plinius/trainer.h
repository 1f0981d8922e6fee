// Trainer: the full Plinius ML workflow (paper Fig. 5 / Algorithm 2).
//
//   1. build the enclave model from the (public) config;
//   2. obtain the data key — unseal it from untrusted storage if this
//      platform sealed one before, otherwise generate it in-enclave with
//      sgx_read_rand and seal it for future restarts (§IV, encryption
//      engine; remote-attestation provisioning is available separately via
//      sgx::DataOwner — see examples/secure_provisioning.cpp);
//   3. ensure training data is resident (encrypted) in PM;
//   4. if a PM mirror exists, mirror-in and resume at the saved iteration,
//      else allocate the mirror;
//   5. per iteration: decrypt a batch from PM, train, mirror-out.
//
// A process crash at any point is modelled by destroying the Trainer (and
// optionally crashing the PM device); constructing a new Trainer on the
// same Platform resumes where training left off.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/augment.h"
#include "ml/config.h"
#include "plinius/checkpoint.h"
#include "plinius/metrics_log.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/pm_data.h"
#include "plinius/scrub.h"
#include "romulus/romulus.h"

namespace plinius {

/// Which rung of the recovery ladder produced the state the trainer resumed
/// from. Ordered from least to most lossy.
enum class RecoveryTier : std::uint64_t {
  kNone = 0,           // clean resume or first run — no recovery needed
  kMirror = 1,         // PM mirror authenticated as-is
  kReplica = 2,        // A/B sibling or twin-copy repair was needed first
  kSsdCheckpoint = 3,  // PM state unusable; restored from the SSD checkpoint
  kFreshStart = 4,     // nothing recoverable; reinitialized from the config
  kPeer = 5,           // re-provisioned from a healthy peer (distributed)
};

[[nodiscard]] const char* to_string(RecoveryTier tier) noexcept;

/// Structured account of one recovery episode, mirrored into the persistent
/// RecoveryLog (metrics_log.h) and exposed via Trainer::last_recovery().
struct RecoveryReport {
  RecoveryTier tier = RecoveryTier::kNone;
  std::uint64_t resume_iteration = 0;
  std::uint64_t replica_repairs = 0;  // sealed buffers rebuilt from siblings/twin
  bool region_reformatted = false;    // Romulus region was reformatted (state lost)
  bool mirror_rebuilt = false;        // mirror was re-allocated and re-seeded
  bool dataset_lost = false;          // PM dataset wiped — reload before train()
  // Ladder rungs that were tried and failed before `tier` succeeded, with the
  // error that disqualified each, in order.
  std::vector<std::string> rungs_failed;

  [[nodiscard]] std::uint64_t flags() const noexcept {
    return (region_reformatted ? RecoveryRecord::kReformatted : 0) |
           (mirror_rebuilt ? RecoveryRecord::kMirrorRebuilt : 0) |
           (dataset_lost ? RecoveryRecord::kDatasetLost : 0);
  }
};

/// Which fault-tolerance backend the trainer uses.
enum class CheckpointBackend {
  kPmMirror,  // Plinius' mirroring mechanism (the contribution)
  kSsd,       // traditional encrypt+fwrite+fsync checkpointing (baseline)
  kNone,      // no model saving (the non-crash-resilient comparison)
};

struct TrainerOptions {
  CheckpointBackend backend = CheckpointBackend::kPmMirror;
  std::size_t mirror_every = 1;  // mirroring frequency (paper: every iteration)
  bool encrypted_data = true;    // false = plaintext PM data (Fig. 8 baseline)
  std::uint64_t init_seed = 42;  // weight-init determinism
  std::uint64_t batch_seed = 43;
  // Capacity of the persistent metrics log (PM-mirror backend only);
  // 0 disables it.
  std::size_t metrics_capacity = 8192;
  // In-enclave data augmentation applied to each decrypted batch.
  std::optional<ml::AugmentOptions> augment;
  // A/B-replicate every sealed mirror buffer (doubles mirror PM footprint;
  // buys single-copy media-fault recovery without leaving the mirror tier).
  bool replicate_mirror = false;
  // Under the PM-mirror backend, additionally save an SSD checkpoint every N
  // iterations (0 = never). Gives the recovery ladder its SSD rung when the
  // whole PM arena is lost.
  std::size_t ssd_checkpoint_every = 0;
  // What sample_batch does when a sealed data record fails its MAC.
  CorruptRecordPolicy data_policy = CorruptRecordPolicy::kThrow;
  // Capacity of the persistent recovery log (PM-mirror backend only);
  // 0 disables it.
  std::size_t recovery_log_capacity = 64;
  // Double-buffered pipelined mirroring (PM-mirror backend only): iteration
  // N's weights are snapshotted and sealed on dedicated background TCS
  // lanes while iteration N+1 computes; the durable commit happens at the
  // next mirror point (or the training-loop exit), so the durable point
  // lags the computed point by at most one in-flight save. Weights and
  // losses are bitwise identical to the serial path; only simulated time
  // changes. The seal lanes are additional enclave contexts (the enclave is
  // built with tcs_count + pipeline_lanes TCS entries), so even the paper's
  // single-threaded training configuration overlaps.
  bool pipeline_mirror = false;
  // Dedicated background TCS lanes for the seal stream (clamped to >= 1).
  std::size_t pipeline_lanes = 1;
};

class Trainer {
 public:
  /// Attaches to the platform's PM (formatting it on first use; recovering
  /// it after a crash) and prepares the enclave model.
  Trainer(Platform& platform, const ml::ModelConfig& config, TrainerOptions options);
  ~Trainer();

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// One-time dataset load into PM; no-op if PM already holds the data.
  /// The trainer retains a DRAM copy (modelling the encrypted dataset that
  /// stays on untrusted storage), so a recovery that reformats the PM
  /// region can re-provision the data without caller involvement.
  void load_dataset(const ml::Dataset& data);

  /// If a saved model state exists (PM mirror or SSD checkpoint), restores
  /// it and returns the resume iteration; otherwise allocates persistent
  /// state as needed and returns 0. Called automatically by train().
  ///
  /// Under the PM-mirror backend this runs the recovery ladder: a corrupt
  /// mirror is first repaired in place (A/B siblings, twin-copy restore),
  /// then the SSD checkpoint is tried, then training restarts fresh — the
  /// trainer never refuses to come up because PM returned garbage. What
  /// happened is reported via last_recovery() and the persistent
  /// RecoveryLog.
  std::uint64_t resume_or_init();

  /// Trains until the model has seen `target_iterations` total iterations
  /// (resuming from the restored count). `on_iteration(iter, loss)` runs
  /// after each iteration; it may throw SimulatedCrash to model a kill.
  /// Returns the final training loss.
  float train(std::uint64_t target_iterations,
              const std::function<void(std::uint64_t, float)>& on_iteration = {});

  [[nodiscard]] ml::Network& network() noexcept { return net_; }
  [[nodiscard]] MirrorModel& mirror();
  /// Crash-consistent per-iteration telemetry (PM-mirror backend only).
  [[nodiscard]] MetricsLog& metrics();
  [[nodiscard]] SsdCheckpointer& checkpointer();
  [[nodiscard]] PmDataStore& data() noexcept { return *data_; }
  [[nodiscard]] romulus::Romulus& romulus() noexcept { return *rom_; }
  [[nodiscard]] Platform& platform() noexcept { return *platform_; }
  [[nodiscard]] const std::vector<float>& loss_history() const noexcept {
    return loss_history_;
  }

  /// The per-platform persistent data key (unsealed or freshly generated).
  [[nodiscard]] const Bytes& data_key() const noexcept { return key_; }

  /// How the last resume_or_init() (or in-training mirror-out recovery)
  /// obtained the model state. tier == kNone means no recovery was needed.
  [[nodiscard]] const RecoveryReport& last_recovery() const noexcept {
    return last_recovery_;
  }

  /// Persistent recovery history (PM-mirror backend with
  /// recovery_log_capacity > 0 only).
  [[nodiscard]] RecoveryLog& recovery_log();

  /// One scrub pass over this trainer's arena (see scrub_arena).
  ScrubReport scrub(const ScrubOptions& options = {});

  /// Marks this trainer as recovered from a peer at `iteration` (set by
  /// fleet::ElasticTrainer after re-provisioning parameters over the
  /// attested channel); persists the episode in the recovery log.
  void note_peer_recovery(std::uint64_t iteration);

  /// Deep invariant check over the trainer's persistent state, for
  /// crash-recovery sweeps: Romulus header quiescent, allocator metadata
  /// self-consistent, and (PM-mirror backend) every sealed mirror buffer
  /// authenticates. Throws PmError/CryptoError/MlError on any violation.
  void verify_persistent_state();

 private:
  void obtain_key();
  /// (Re)attaches the Romulus region and rebuilds every component that
  /// points into it. With format=false, a corrupt region header falls back
  /// to a reformat (bottom of the ladder) and flags attach_reformatted_.
  void attach_region(bool format);
  void reformat_region(RecoveryReport& rep);
  /// Creates missing metrics/recovery logs (post-alloc / post-reformat).
  void ensure_logs();
  std::uint64_t run_recovery_ladder(RecoveryReport& rep);
  /// In-training mirror-out failure: the live enclave weights are intact,
  /// so repair (or rebuild) the PM mirror and re-seal them.
  void recover_mirror_out(std::uint64_t iteration, const std::string& why);
  /// Pipelined-mirror drain point: joins the seal stream and durably commits
  /// the in-flight save; a commit failure routes through recover_mirror_out
  /// (the snapshot is spent, but the live weights re-seal).
  void drain_seal(sgx::ChargeStream& stream);
  void record_recovery(const RecoveryReport& rep);

  Platform* platform_;
  TrainerOptions options_;
  ml::ModelConfig config_;  // kept for fresh-start re-initialization
  std::size_t batch_;
  ml::Network net_;
  std::unique_ptr<romulus::Romulus> rom_;
  Bytes key_;
  std::unique_ptr<MirrorModel> mirror_;
  std::unique_ptr<MetricsLog> metrics_;
  std::unique_ptr<RecoveryLog> recovery_log_;
  std::unique_ptr<SsdCheckpointer> ckpt_;
  std::unique_ptr<PmDataStore> data_;
  std::unique_ptr<sgx::EnclaveBuffer> model_memory_;
  Rng batch_rng_;
  std::optional<ml::Augmenter> augmenter_;
  std::optional<ml::Dataset> dataset_cache_;  // untrusted-storage stand-in
  std::vector<float> loss_history_;
  RecoveryReport last_recovery_;
  bool attach_reformatted_ = false;
  bool initialized_ = false;
};

}  // namespace plinius
