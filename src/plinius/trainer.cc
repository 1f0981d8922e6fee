#include "plinius/trainer.h"

#include <algorithm>

#include "common/error.h"
#include "obs/trace.h"

namespace plinius {

namespace {
constexpr const char* kSealedKeyFile = "plinius.key.sealed";

std::size_t romulus_main_size(const pm::PmDevice& dev) {
  // Header page + twin copies fill the whole device.
  return align_down((dev.size() - 64) / 2, pm::kCacheLine);
}
}  // namespace

const char* to_string(RecoveryTier tier) noexcept {
  switch (tier) {
    case RecoveryTier::kNone: return "none";
    case RecoveryTier::kMirror: return "mirror";
    case RecoveryTier::kReplica: return "replica";
    case RecoveryTier::kSsdCheckpoint: return "ssd-checkpoint";
    case RecoveryTier::kFreshStart: return "fresh-start";
    case RecoveryTier::kPeer: return "peer";
  }
  return "?";
}

Trainer::Trainer(Platform& platform, const ml::ModelConfig& config,
                 TrainerOptions options)
    : platform_(&platform),
      options_(options),
      config_(config),
      batch_(config.batch()),
      net_([&] {
        Rng init_rng(options.init_seed);
        return ml::build_network(config, init_rng);
      }()),
      batch_rng_(options.batch_seed) {
  auto& enclave = platform_->enclave();
  enclave.charge_ecall();  // create_enclave_model(config) — Algorithm 2 line 2

  // Account the enclave-resident model: parameters, gradients (~same size)
  // and activation buffers for one batch.
  const std::size_t param_bytes = net_.parameter_bytes();
  std::size_t activation_bytes = 0;
  for (std::size_t i = 0; i < net_.num_layers(); ++i) {
    activation_bytes += 2 * batch_ * net_.layer(i).output_shape().size() * sizeof(float);
  }
  model_memory_ = std::make_unique<sgx::EnclaveBuffer>(
      enclave, 2 * param_bytes + activation_bytes);

  obtain_key();
  if (options_.augment) {
    augmenter_.emplace(net_.input_shape(), *options_.augment,
                       options_.batch_seed ^ 0xA06E47ULL);
  }
  attach_region(/*format=*/false);
}

void Trainer::attach_region(bool format) {
  auto& enclave = platform_->enclave();
  auto& dev = platform_->pm();
  // Components hold pointers into the region — drop them before it.
  data_.reset();
  metrics_.reset();
  recovery_log_.reset();
  mirror_.reset();
  rom_.reset();

  const auto policy = romulus::PwbPolicy::clflushopt_sfence();
  const auto profile = platform_->profile().sgx.real_sgx
                           ? romulus::ExecutionProfile::sgx_enclave()
                           : romulus::ExecutionProfile::native();
  const std::size_t main_size = romulus_main_size(dev);
  try {
    // A fresh device is all zeroes -> no magic -> Romulus formats itself;
    // otherwise this attach runs crash recovery (Algorithm 1).
    rom_ = std::make_unique<romulus::Romulus>(dev, 0, main_size, policy, format,
                                              profile);
  } catch (const PmError&) {
    if (format) throw;
    // Corrupt region header (a media fault, not a crash): the header has no
    // twin, so the region is unrecoverable — reformat and let the recovery
    // ladder rebuild from the SSD checkpoint or from scratch.
    rom_ = std::make_unique<romulus::Romulus>(dev, 0, main_size, policy,
                                              /*format=*/true, profile);
    attach_reformatted_ = true;
  }

  const crypto::AesGcm gcm{key_};
  mirror_ = std::make_unique<MirrorModel>(*rom_, enclave, gcm,
                                          MirrorOptions{options_.replicate_mirror});
  if (options_.backend == CheckpointBackend::kPmMirror) {
    if (options_.metrics_capacity > 0) {
      metrics_ = std::make_unique<MetricsLog>(*rom_);
    }
    if (options_.recovery_log_capacity > 0) {
      recovery_log_ = std::make_unique<RecoveryLog>(*rom_);
    }
  }
  ckpt_ = std::make_unique<SsdCheckpointer>(platform_->ssd(), enclave, gcm);
  data_ = std::make_unique<PmDataStore>(*rom_, enclave, gcm, options_.encrypted_data);
  data_->set_corrupt_policy(options_.data_policy);
}

Trainer::~Trainer() = default;

MirrorModel& Trainer::mirror() {
  expects(mirror_ != nullptr, "Trainer: no mirror");
  return *mirror_;
}

MetricsLog& Trainer::metrics() {
  expects(metrics_ != nullptr, "Trainer: metrics log disabled for this backend");
  return *metrics_;
}

SsdCheckpointer& Trainer::checkpointer() {
  expects(ckpt_ != nullptr, "Trainer: no checkpointer");
  return *ckpt_;
}

RecoveryLog& Trainer::recovery_log() {
  expects(recovery_log_ != nullptr, "Trainer: recovery log disabled");
  return *recovery_log_;
}

ScrubReport Trainer::scrub(const ScrubOptions& options) {
  expects(rom_ != nullptr, "Trainer: no persistent region attached");
  MirrorModel* mirror =
      options_.backend == CheckpointBackend::kPmMirror ? mirror_.get() : nullptr;
  return scrub_arena(*rom_, mirror, &net_, data_.get(), options);
}

void Trainer::obtain_key() {
  auto& enclave = platform_->enclave();
  auto& fs = platform_->ssd();
  if (fs.exists(kSealedKeyFile)) {
    // Restart on the same platform: unseal the key saved earlier.
    auto& f = fs.open(kSealedKeyFile);
    Bytes sealed(f.size());
    f.pread(0, sealed);
    enclave.charge_ocall_io(sealed.size(), /*into_enclave=*/true);
    key_ = enclave.unseal_data(sealed);
    return;
  }
  // First run: generate the key in-enclave (sgx_read_rand) and seal it to
  // untrusted storage for future restarts (§IV). Key provisioning via
  // remote attestation is demonstrated in examples/secure_provisioning.cpp.
  key_.assign(crypto::Aes::kKeySize128, 0);
  enclave.read_rand(key_);
  const Bytes sealed = enclave.seal_data(key_);
  enclave.charge_ocall_io(sealed.size(), /*into_enclave=*/false);
  auto& f = fs.create(kSealedKeyFile);
  f.pwrite(0, sealed);
  f.fsync();
}

void Trainer::load_dataset(const ml::Dataset& dataset) {
  dataset_cache_ = dataset;
  if (!data_->exists()) data_->load(dataset);
}

void Trainer::verify_persistent_state() {
  expects(rom_ != nullptr, "Trainer: no persistent region attached");
  if (rom_->header_state() != romulus::Romulus::State::kIdle) {
    throw PmError("Trainer::verify_persistent_state: header not quiescent");
  }
  rom_->validate_allocator();
  if (options_.backend == CheckpointBackend::kPmMirror && mirror_->exists()) {
    (void)mirror_->verify_integrity(net_);
  }
}

void Trainer::ensure_logs() {
  if (metrics_ != nullptr && !metrics_->exists()) {
    metrics_->create(options_.metrics_capacity);
  }
  if (recovery_log_ != nullptr && !recovery_log_->exists()) {
    recovery_log_->create(options_.recovery_log_capacity);
  }
}

void Trainer::reformat_region(RecoveryReport& rep) {
  attach_region(/*format=*/true);
  rep.region_reformatted = true;
  rep.dataset_lost = true;  // the PM dataset lived in the wiped region
  if (dataset_cache_) {
    // Re-provision from the copy on untrusted storage (paying the load
    // costs again) so training can continue without caller involvement.
    data_->load(*dataset_cache_);
  }
}

void Trainer::record_recovery(const RecoveryReport& rep) {
  if (recovery_log_ == nullptr) return;
  try {
    if (!recovery_log_->exists()) recovery_log_->create(options_.recovery_log_capacity);
    recovery_log_->append({static_cast<std::uint64_t>(rep.tier),
                           rep.resume_iteration, rep.replica_repairs,
                           rep.rungs_failed.size(), rep.flags()});
  } catch (const Error&) {
    // Telemetry must never turn a successful recovery into a failure.
  }
}

void Trainer::rebuild_mirror(RecoveryReport& rep, std::optional<std::uint64_t> seal_at) {
  bool clean = false;
  try {
    if (mirror_->exists()) mirror_->dispose();
    rom_->validate_header();
    rom_->validate_allocator();
    clean = true;
  } catch (const Error&) {
  }
  if (!clean) reformat_region(rep);
  mirror_->alloc(net_);
  ensure_logs();
  if (seal_at) mirror_->mirror_out(net_, *seal_at);
  rep.mirror_rebuilt = true;
}

std::uint64_t Trainer::run_recovery_ladder(RecoveryReport& rep) {
  obs::Span span(platform_->clock(), obs::Category::kScrub, "train.recovery");
  // Rung 0: allocator metadata. A media fault here would silently poison
  // every later pmalloc even if the mirror authenticates, so validate up
  // front and let the scrubber repair from the back twin before anything
  // else walks the heap. If the metadata is rotten in both twins the heap
  // can never be trusted again — the mirror rung below may still salvage
  // the weights, but the region has to be rebuilt around them.
  bool allocator_ok = true;
  try {
    rom_->validate_allocator();
  } catch (const Error& e) {
    rep.rungs_failed.push_back(std::string("allocator: ") + e.what());
    try {
      (void)scrub_arena(*rom_, nullptr, nullptr, nullptr, ScrubOptions{});
    } catch (const Error&) {
    }
    try {
      rom_->validate_allocator();
    } catch (const Error& e2) {
      allocator_ok = false;
      rep.rungs_failed.push_back(std::string("allocator: unrepairable: ") + e2.what());
    }
  }

  // Rung 1: the PM mirror, with mirror_in's in-band A/B sibling fallback.
  bool mirror_exists = false;
  try {
    mirror_exists = mirror_->exists();
  } catch (const Error& e) {
    rep.rungs_failed.push_back(std::string("mirror: ") + e.what());
  }
  bool resumed = false;
  if (mirror_exists) {
    const std::uint64_t repairs_before = mirror_->stats().replica_repairs;
    try {
      rep.resume_iteration = mirror_->mirror_in(net_);
      resumed = true;
    } catch (const Error& e) {
      rep.rungs_failed.push_back(std::string("mirror: ") + e.what());
    }
    if (resumed) {
      rep.replica_repairs = mirror_->stats().replica_repairs - repairs_before;
      if (!allocator_ok) {
        // The weights came back, but no allocation can safely land in this
        // heap again. Reformat and re-seed the region from the salvage.
        reformat_region(rep);
        rebuild_mirror(rep, rep.resume_iteration);
      }
      // Any repair on the way (A/B sibling, twin restore, or a region
      // rebuild) means the state did not come from the mirror alone.
      rep.tier = rep.replica_repairs > 0 || !rep.rungs_failed.empty()
                     ? RecoveryTier::kReplica
                     : RecoveryTier::kMirror;
    } else if (allocator_ok) {
      // Rung 2: arena scrub — twin-copy restore for metadata, A/B rebuilds
      // for sealed buffers — then one retry of mirror_in. Pointless on a
      // heap the scrubber cannot walk.
      try {
        const ScrubReport scrubbed =
            scrub_arena(*rom_, mirror_.get(), &net_, data_.get(), ScrubOptions{});
        rep.replica_repairs += scrubbed.mirror.repaired;
        if (scrubbed.healthy() && mirror_->exists()) {
          rep.resume_iteration = mirror_->mirror_in(net_);
          rep.tier = RecoveryTier::kReplica;
          resumed = true;
        } else {
          rep.rungs_failed.emplace_back(
              "replica: arena scrub could not repair the mirror");
        }
      } catch (const Error& e) {
        rep.rungs_failed.push_back(std::string("replica: ") + e.what());
      }
    }
  }

  const bool had_prior_state =
      mirror_exists || rep.region_reformatted || !rep.rungs_failed.empty();

  // Rung 3: SSD checkpoint (taken by ssd_checkpoint_every or a previous
  // backend). The weights come back; the PM mirror is rebuilt around them.
  if (!resumed && ckpt_->exists()) {
    try {
      platform_->ssd().drop_caches();  // cold after a crash
      const std::uint64_t iter = ckpt_->restore(net_);
      rebuild_mirror(rep, iter);
      rep.tier = RecoveryTier::kSsdCheckpoint;
      rep.resume_iteration = iter;
      resumed = true;
    } catch (const Error& e) {
      rep.rungs_failed.push_back(std::string("ssd: ") + e.what());
    }
  }

  // Bottom rung: fresh start. Reinitialize the enclave model from the
  // (public) config with the original seed; reuse the region if its heap
  // still validates (keeps the dataset), reformat otherwise. A first run
  // lands here too: it only allocates the mirror.
  if (!resumed) {
    if (had_prior_state) {
      rep.tier = RecoveryTier::kFreshStart;
      Rng init_rng(options_.init_seed);
      net_ = ml::build_network(config_, init_rng);
      net_.set_iterations(0);
    }
    rebuild_mirror(rep, std::nullopt);
    rep.mirror_rebuilt = had_prior_state;  // a first run has nothing to rebuild
  }

  // Drop telemetry the resumed model never saw: iterations whose mirror-out
  // never committed, or a previous life's after a fresh start. A corrupt
  // metrics log loses telemetry, never the recovery.
  try {
    if (metrics_ != nullptr && metrics_->exists()) {
      metrics_->truncate_after(rep.resume_iteration);
    }
  } catch (const Error&) {
  }
  return rep.resume_iteration;
}

std::uint64_t Trainer::resume_or_init() {
  initialized_ = true;
  switch (options_.backend) {
    case CheckpointBackend::kPmMirror: {
      RecoveryReport rep;
      rep.region_reformatted = attach_reformatted_;
      rep.dataset_lost = attach_reformatted_;
      attach_reformatted_ = false;
      const std::uint64_t iter = run_recovery_ladder(rep);
      last_recovery_ = rep;
      if (rep.tier != RecoveryTier::kNone || rep.region_reformatted) {
        record_recovery(rep);
      }
      return iter;
    }
    case CheckpointBackend::kNone:
      // Non-crash-resilient baseline: always restarts from scratch.
      net_.set_iterations(0);
      return 0;
  }
  throw Error("Trainer: bad backend");
}

void Trainer::recover_mirror_out(std::uint64_t iteration, const std::string& why) {
  obs::Span span(platform_->clock(), obs::Category::kScrub, "train.recover_mirror_out");
  RecoveryReport rep;
  rep.resume_iteration = iteration;
  rep.rungs_failed.push_back("mirror-out: " + why);

  // The live enclave weights are intact — recovery here only has to make the
  // PM mirror writable again and re-seal them.
  bool sealed = false;
  try {
    const ScrubReport scrubbed =
        scrub_arena(*rom_, mirror_.get(), &net_, data_.get(), ScrubOptions{});
    rep.replica_repairs = scrubbed.mirror.repaired;
    if (scrubbed.healthy()) {
      mirror_->mirror_out(net_, iteration);
      rep.tier =
          scrubbed.mirror.repaired > 0 || scrubbed.twin_restored
              ? RecoveryTier::kReplica
              : RecoveryTier::kMirror;
      sealed = true;
    }
  } catch (const Error& e) {
    rep.rungs_failed.push_back(std::string("replica: ") + e.what());
  }
  if (!sealed) {
    rebuild_mirror(rep, iteration);
    rep.tier = RecoveryTier::kMirror;
  }
  last_recovery_ = rep;
  record_recovery(rep);
}

void Trainer::mirror_out() {
  expects(options_.backend == CheckpointBackend::kPmMirror,
          "Trainer::mirror_out: no PM mirror under this backend");
  const std::uint64_t iter = net_.iterations();
  try {
    mirror_->mirror_out(net_, iter);
  } catch (const Error& e) {
    // Media fault under the mirror: the enclave weights are intact, so
    // repair (or rebuild) the PM mirror and re-seal — training goes on.
    recover_mirror_out(iter, e.what());
  }
}

void Trainer::restore_from_peer(ml::Network& peer) {
  expects(peer.num_layers() == net_.num_layers(),
          "Trainer::restore_from_peer: layer count divergence");
  for (std::size_t l = 0; l < peer.num_layers(); ++l) {
    const auto from = peer.layer(l).parameters();
    auto to = net_.layer(l).parameters();
    expects(from.size() == to.size(),
            "Trainer::restore_from_peer: parameter layout divergence");
    for (std::size_t b = 0; b < from.size(); ++b) {
      expects(from[b].values.size() == to[b].values.size(),
              "Trainer::restore_from_peer: parameter shape divergence");
      std::copy(from[b].values.begin(), from[b].values.end(), to[b].values.begin());
    }
  }
  net_.set_iterations(peer.iterations());
  if (options_.backend == CheckpointBackend::kPmMirror) mirror_out();
  last_recovery_.tier = RecoveryTier::kPeer;
  last_recovery_.resume_iteration = net_.iterations();
  record_recovery(last_recovery_);
}

void Trainer::drain_seal(sgx::ChargeStream& stream) {
  try {
    mirror_->complete_async_save(stream);
  } catch (const Error& e) {
    // The in-flight snapshot is spent, but the live enclave weights are
    // intact — repair (or rebuild) the PM mirror and re-seal them at the
    // live iteration, exactly like a synchronous mirror-out failure.
    recover_mirror_out(net_.iterations(), e.what());
  }
}

float Trainer::train(std::uint64_t target_iterations,
                     const std::function<void(std::uint64_t, float)>& on_iteration) {
  expects(data_->exists(), "Trainer::train: load_dataset first");
  if (!initialized_) (void)resume_or_init();

  auto& enclave = platform_->enclave();
  std::vector<float> bx(batch_ * data_->x_cols());
  std::vector<float> by(batch_ * data_->y_cols());
  const sgx::EnclaveBuffer batch_buf(enclave,
                                     (bx.size() + by.size()) * sizeof(float));

  // Pipelined mirroring: a background charge stream carries the in-flight
  // seal; its lane reservation lives for the duration of this call.
  const bool pipelined = options_.pipeline_mirror &&
                         options_.backend == CheckpointBackend::kPmMirror;
  std::optional<sgx::ChargeStream> seal_stream;
  if (pipelined) seal_stream.emplace(enclave.open_stream(options_.pipeline_lanes));

  float loss = 0;
  try {
    while (net_.iterations() < target_iterations) {
      obs::Span iter_span(platform_->clock(), obs::Category::kTrainIter,
                          "train.iteration");
      iter_span.attr("iteration", static_cast<double>(net_.iterations()));
      iter_span.attr("batch", static_cast<double>(batch_));
      // Algorithm 2, line 15: decrypt a batch of training data from PM.
      data_->sample_batch(batch_, batch_rng_, bx.data(), by.data());
      if (augmenter_) {
        augmenter_->apply(bx.data(), batch_);
        // Augmentation compute: ~12 ops per pixel.
        platform_->charge_compute(12.0 * static_cast<double>(bx.size()));
      }

      // Line 16: one training iteration on the enclave model.
      const double macs = 3.0 * static_cast<double>(net_.forward_macs()) *
                          static_cast<double>(batch_);
      platform_->charge_compute(macs);
      enclave.touch_enclave(net_.parameter_bytes());
      loss = net_.train_batch(bx.data(), by.data(), batch_);
      loss_history_.push_back(loss);

      // Line 17: mirror-out the model (at the configured frequency).
      const std::uint64_t iter = net_.iterations();
      const bool last = iter >= target_iterations;
      if (options_.backend == CheckpointBackend::kPmMirror &&
          (iter % options_.mirror_every == 0 || last)) {
        if (pipelined) {
          // Drain the previous iteration's seal (its commit is what moves
          // the durable point), then put this iteration's seal in flight;
          // it overlaps the next iteration's compute. The epoch boundary
          // drains inline so the final iteration is durable on return.
          drain_seal(*seal_stream);
          try {
            mirror_->begin_async_save(net_, iter, *seal_stream);
          } catch (const Error& e) {
            mirror_->abandon_async_save();
            recover_mirror_out(iter, e.what());
          }
          if (last) drain_seal(*seal_stream);
        } else {
          mirror_out();
        }
        try {
          if (metrics_ != nullptr && metrics_->exists() &&
              metrics_->size() < metrics_->capacity()) {
            metrics_->append({iter, loss, net_.hyper().learning_rate});
          }
        } catch (const Error&) {
          // A corrupt metrics log loses telemetry, never training.
        }
        if (options_.ssd_checkpoint_every > 0 &&
            (iter % options_.ssd_checkpoint_every == 0 || last)) {
          // Checkpoint boundary: the SSD rung must never capture a state
          // ahead of the PM mirror's durable point.
          if (pipelined) drain_seal(*seal_stream);
          ckpt_->save(net_);  // periodic SSD rung for the recovery ladder
        }
      }

      if (on_iteration) on_iteration(iter, loss);
    }
    // Loop-exit drain: covers targets that are not mirror points (the last
    // mirror branch above already drained when `last` was a mirror point).
    if (pipelined) drain_seal(*seal_stream);
  } catch (...) {
    // A simulated kill (or any other abort) loses the in-flight seal with
    // the enclave — the durable point stays at the last committed save,
    // which the recovery ladder will resume from.
    if (pipelined) mirror_->abandon_async_save();
    throw;
  }
  return loss;
}

}  // namespace plinius
