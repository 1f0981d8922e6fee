#include "plinius/mirror.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "crypto/envelope.h"
#include "obs/trace.h"

namespace plinius {

MirrorModel::MirrorModel(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm, MirrorOptions options)
    : rom_(&rom),
      enclave_(&enclave),
      gcm_(std::move(gcm)),
      iv_seq_(crypto::IvSequence::salted(enclave.rng())),
      options_(options) {}

MirrorModel::~MirrorModel() = default;

bool MirrorModel::exists() const {
  const std::uint64_t off = rom_->root(kRootSlot);
  if (off == 0) return false;
  // The root slot is untrusted PM data: reading the full Header (which
  // header() reads) range-checks its whole extent, so a corrupt slot surfaces
  // as a PmError instead of an out-of-bounds main-region access.
  return rom_->read<Header>(off, "MirrorModel::exists: corrupt root slot").magic ==
         kMagic;
}

MirrorModel::Header MirrorModel::header() const {
  expects(exists(), "MirrorModel: no mirror in PM");
  return rom_->read<Header>(rom_->root(kRootSlot));
}

std::uint64_t MirrorModel::iteration() const { return header().iteration; }

MirrorModel::Walk MirrorModel::walk(ml::Network* net, const char* ctx) const {
  Walk w;
  w.hdr = header();
  if (net != nullptr) {
    if (w.hdr.num_layers != net->num_layers()) {
      throw MlError(std::string(ctx) + ": layer count mismatch");
    }
  } else if (w.hdr.num_layers > rom_->main_size() / sizeof(LayerNode)) {
    // No net to compare against: a count no region could hold is corrupt,
    // and the bound keeps a cyclic list from walking forever.
    throw PmError(std::string(ctx) + ": corrupt layer count " +
                  std::to_string(w.hdr.num_layers));
  }
  std::uint64_t node_off = w.hdr.head;
  for (std::uint64_t i = 0; i < w.hdr.num_layers; ++i) {
    if (node_off == 0) throw PmError(std::string(ctx) + ": truncated layer list");
    const LayerNode node = rom_->read<LayerNode>(node_off, ctx);
    std::vector<ml::ParamBuffer> buffers;
    if (net != nullptr) {
      buffers = net->layer(i).parameters();
      if (node.num_buffers != buffers.size()) {
        throw MlError(std::string(ctx) + ": buffer count mismatch");
      }
    }
    if (node.num_buffers > kMaxBuffersPerLayer) {
      throw PmError(std::string(ctx) + ": corrupt buffer count " +
                    std::to_string(node.num_buffers) + " in layer node at offset " +
                    std::to_string(node_off));
    }
    for (std::size_t b = 0; b < node.num_buffers; ++b) {
      const std::uint64_t len = node.buf_sealed_len[b];
      if (net != nullptr && len != crypto::sealed_size(buffers[b].values.size_bytes())) {
        throw MlError(std::string(ctx) + ": buffer size mismatch");
      }
      rom_->check_extent(node.buf_off[b], len, ctx);
      if (node.buf_replica_off[b] != 0) {
        rom_->check_extent(node.buf_replica_off[b], len, ctx);
      }
      w.extents.push_back({static_cast<std::size_t>(i), b, node.buf_off[b],
                           node.buf_replica_off[b], len});
    }
    for (auto& p : buffers) w.params.push_back(std::move(p));
    w.nodes.push_back(node_off);
    node_off = node.next;
  }
  w.tail_next = node_off;
  return w;
}

void MirrorModel::alloc(ml::Network& net) {
  if (exists()) throw PmError("MirrorModel::alloc: mirror already exists");
  enclave_->charge_ecall();

  rom_->run_transaction([&] {
    Header hdr{kMagic, 0, net.num_layers(), 0, options_.replicate ? 1ULL : 0ULL};
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));

    std::uint64_t prev_node = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      const auto buffers = net.layer(i).parameters();
      if (buffers.size() > kMaxBuffersPerLayer) {
        throw MlError("MirrorModel: layer has too many parameter buffers");
      }
      LayerNode node{};
      node.num_buffers = buffers.size();
      for (std::size_t b = 0; b < buffers.size(); ++b) {
        const std::size_t sealed = crypto::sealed_size(buffers[b].values.size_bytes());
        node.buf_off[b] = rom_->pmalloc(sealed);
        node.buf_sealed_len[b] = sealed;
        if (options_.replicate) node.buf_replica_off[b] = rom_->pmalloc(sealed);
      }
      const std::size_t node_off = rom_->pmalloc(sizeof(LayerNode));
      rom_->tx_store(node_off, &node, sizeof(node));
      if (prev_node == 0) {
        hdr.head = node_off;
      } else {
        // Patch the previous node's next pointer.
        rom_->tx_assign(prev_node + offsetof(LayerNode, next),
                        static_cast<std::uint64_t>(node_off));
      }
      prev_node = node_off;
    }

    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(kRootSlot, hdr_off);
  });
}

MirrorModel::SealPlan MirrorModel::build_seal_plan(ml::Network& net, const char* ctx) {
  // Build the seal task list from the validated walk. IVs are drawn from the
  // key's sequence here, in list order, so the counter stays strictly
  // monotonic no matter how the sealing tasks are scheduled afterwards.
  const Walk w = walk(&net, ctx);
  SealPlan plan;
  for (std::size_t t = 0; t < w.extents.size(); ++t) {
    const SealedExtent& e = w.extents[t];
    const ByteSpan plain = float_bytes(w.params[t].values);
    SealTask task{plain,
                  e.primary_off,
                  e.replica_off,
                  e.sealed_len,
                  plan.scratch_bytes,
                  plan.plain_bytes,
                  {}};
    iv_seq_.next(task.iv);
    plan.scratch_bytes += task.sealed_len;
    plan.plain_bytes += plain.size();
    // Encrypt cost: touch the (EPC-resident) weights + one GCM pass.
    const sim::Nanos touch_ns = enclave_->touch_task_ns(plain.size());
    const sim::Nanos crypto_ns = enclave_->crypto_task_ns(plain.size());
    plan.touch_sum += touch_ns;
    plan.crypto_sum += crypto_ns;
    plan.costs.push_back(touch_ns + crypto_ns);
    plan.tasks.push_back(task);
  }
  return plan;
}

void MirrorModel::commit_seal(const SealPlan& plan, ByteSpan sealed,
                              std::uint64_t iteration) {
  // Commit. Romulus transactions are single-writer, so the sealed buffers
  // and the iteration counter go to PM serially, atomically. The PM stores,
  // PWBs, fences and the twin-copy commit are the "write" share of Table Ia.
  sim::Stopwatch write_sw(enclave_->clock());
  rom_->run_transaction([&] {
    rom_->tx_assign(rom_->root(kRootSlot) + offsetof(Header, iteration), iteration);
    for (const SealTask& task : plan.tasks) {
      rom_->tx_store(task.pm_off, sealed.data() + task.scratch_off, task.sealed_len);
      if (task.replica_off != 0) {
        rom_->tx_store(task.replica_off, sealed.data() + task.scratch_off,
                       task.sealed_len);
      }
    }
  });
  stats_.write_ns += write_sw.elapsed();
}

void MirrorModel::mirror_out(ml::Network& net, std::uint64_t iteration) {
  expects(async_ == nullptr,
          "MirrorModel::mirror_out: async save in flight — drain it first");
  ++stats_.save_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save");
  span.attr("iteration", static_cast<double>(iteration));
  enclave_->charge_ecall();

  // Phase 1 (serial): validate + plan.
  const SealPlan plan = build_seal_plan(net, "MirrorModel::mirror_out");

  // Phase 2: seal every buffer concurrently into disjoint scratch slices.
  scratch_.resize(plan.scratch_bytes);
  par::parallel_for(plan.tasks.size(), [&](par::Range r) {
    for (std::size_t t = r.begin; t < r.end; ++t) {
      const SealTask& task = plan.tasks[t];
      crypto::seal_into_iv(gcm_, task.iv, task.plain,
                           MutableByteSpan(scratch_.data() + task.scratch_off,
                                           task.sealed_len));
    }
  });
  // Simulated encryption time: critical path over the enclave's TCS lanes.
  const sim::Nanos seal_t0 = enclave_->clock().now();
  const sim::Nanos enc_ns = enclave_->charge_parallel(plan.costs);
  stats_.encrypt_ns += enc_ns;
  // Attribute the critical-path advance to its components in proportion to
  // their task-cost shares: paging dominates past the EPC limit, GCM below
  // it — which is exactly the Table Ia crossover the trace should expose.
  if (enc_ns > 0 && plan.touch_sum + plan.crypto_sum > 0) {
    const sim::Nanos paging_ns =
        enc_ns * (plan.touch_sum / (plan.touch_sum + plan.crypto_sum));
    obs::trace_complete(enclave_->clock(), obs::Category::kEpcPaging,
                        "mirror.seal.paging", seal_t0, seal_t0 + paging_ns);
    obs::trace_complete(enclave_->clock(), obs::Category::kGcm, "mirror.seal.gcm",
                        seal_t0 + paging_ns, seal_t0 + enc_ns);
  }

  // Phase 3: durable commit.
  commit_seal(plan, scratch_, iteration);
  ++stats_.saves;
}

// Pending double-buffered save: the weight snapshot (so compute can mutate
// the live buffers immediately) and the sealed bytes awaiting their durable
// commit. Owning both here keeps scratch_ free for any synchronous restore
// the recovery path may need while a seal is in flight.
struct MirrorModel::AsyncSeal {
  SealPlan plan;
  std::uint64_t iteration = 0;
  Bytes snapshot;
  Bytes sealed;
};

void MirrorModel::begin_async_save(ml::Network& net, std::uint64_t iteration,
                                   sgx::ChargeStream& stream) {
  expects(async_ == nullptr,
          "MirrorModel::begin_async_save: previous async save still pending");
  ++stats_.save_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save.stage");
  span.attr("iteration", static_cast<double>(iteration));
  enclave_->charge_ecall();

  auto async = std::make_unique<AsyncSeal>();
  async->plan = build_seal_plan(net, "MirrorModel::begin_async_save");
  async->iteration = iteration;

  // Double buffer: gather the live weights into the enclave staging snapshot.
  // This copy is the only weight-touching cost left on the foreground; the
  // moment it is done, training may mutate the live buffers again.
  async->snapshot.resize(async->plan.plain_bytes);
  for (const SealTask& task : async->plan.tasks) {
    std::memcpy(async->snapshot.data() + task.plain_off, task.plain.data(),
                task.plain.size());
  }
  enclave_->charge_plain_copy(async->plan.plain_bytes);

  // Seal the snapshot now — the sealed bytes must be bitwise identical to
  // the serial path's — but book the simulated cost on the background
  // stream's lanes instead of the foreground clock.
  async->sealed.resize(async->plan.scratch_bytes);
  const SealPlan& plan = async->plan;
  Bytes& snapshot = async->snapshot;
  Bytes& sealed = async->sealed;
  par::parallel_for(plan.tasks.size(), [&](par::Range r) {
    for (std::size_t t = r.begin; t < r.end; ++t) {
      const SealTask& task = plan.tasks[t];
      crypto::seal_into_iv(
          gcm_, task.iv,
          ByteSpan(snapshot.data() + task.plain_off, task.plain.size()),
          MutableByteSpan(sealed.data() + task.scratch_off, task.sealed_len));
    }
  });
  const sgx::ChargeStream::Window window = stream.submit(plan.costs);
  stats_.encrypt_ns += window.duration();

  // Background-lane spans: a pipeline.seal bracket on its own track with the
  // same paging/GCM decomposition mirror_out emits, so rollups can prove the
  // overlap (the bracket lies outside the foreground span tree and may
  // extend past "now").
  obs::Tracer* tracer = enclave_->clock().tracer();
  if (tracer != nullptr && tracer->enabled() && window.duration() > 0) {
    const obs::Attr a[] = {{"iteration", static_cast<double>(iteration)},
                           {"lanes", static_cast<double>(stream.lanes())}};
    const std::uint64_t bracket =
        tracer->complete(obs::Category::kPipelineSeal, "pipeline.seal",
                         window.begin, window.end, /*parent=*/0, /*track=*/1, a, 2);
    if (plan.touch_sum + plan.crypto_sum > 0) {
      const sim::Nanos paging_ns =
          window.duration() * (plan.touch_sum / (plan.touch_sum + plan.crypto_sum));
      if (paging_ns > 0) {
        tracer->complete(obs::Category::kEpcPaging, "pipeline.seal.paging",
                         window.begin, window.begin + paging_ns, bracket,
                         /*track=*/1);
      }
      tracer->complete(obs::Category::kGcm, "pipeline.seal.gcm",
                       window.begin + paging_ns, window.end, bracket, /*track=*/1);
    }
  }
  async_ = std::move(async);
}

bool MirrorModel::complete_async_save(sgx::ChargeStream& stream) {
  if (async_ == nullptr) return false;
  // Consume the pending state up front: if the commit below throws, the
  // snapshot is spent either way and the caller re-seals from live weights.
  const std::unique_ptr<AsyncSeal> pending = std::move(async_);
  const sim::Nanos stall_t0 = enclave_->clock().now();
  const sim::Nanos stall = stream.join();
  stats_.pipeline_stall_ns += stall;
  if (stall > 0) {
    obs::trace_complete(enclave_->clock(), obs::Category::kPipelineStall,
                        "pipeline.stall", stall_t0, enclave_->clock().now());
  }
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save.commit");
  span.attr("iteration", static_cast<double>(pending->iteration));
  commit_seal(pending->plan, pending->sealed, pending->iteration);
  ++stats_.saves;
  ++stats_.async_saves;
  return true;
}

void MirrorModel::abandon_async_save() noexcept { async_.reset(); }

bool MirrorModel::async_save_pending() const noexcept { return async_ != nullptr; }

std::uint64_t MirrorModel::pending_iteration() const {
  expects(async_ != nullptr, "MirrorModel::pending_iteration: no pending save");
  return async_->iteration;
}

std::uint64_t MirrorModel::mirror_in(ml::Network& net) {
  return restore_model(net, /*snapshot=*/false);
}

std::uint64_t MirrorModel::mirror_in_snapshot(ml::Network& net) {
  return restore_model(net, /*snapshot=*/true);
}

std::uint64_t MirrorModel::restore_model(ml::Network& net, bool snapshot) {
  const char* ctx = snapshot ? "MirrorModel::mirror_in_snapshot" : "MirrorModel::mirror_in";
  expects(async_ == nullptr,
          "MirrorModel: restore with an async save in flight — drain it first");
  ++stats_.restore_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorRestore,
                 snapshot ? "mirror.restore.snapshot" : "mirror.restore");
  enclave_->charge_ecall();

  // Phase 1 (serial): lay the validated walk's buffers out in enclave
  // scratch, stage every sealed buffer there, and charge the reads. PM reads
  // stay serial: the media bandwidth is shared, so lanes would not overlap
  // them anyway.
  const Walk w = walk(&net, ctx);
  const std::size_t n = w.extents.size();
  std::vector<std::size_t> scratch_off(n);
  std::vector<std::size_t> plain_off(n);  // float offset into the snapshot stage
  std::vector<sim::Nanos> costs;
  sim::Nanos open_crypto_sum = 0;  // GCM share of the decrypt costs
  sim::Nanos open_copy_sum = 0;    // plain-copy share
  std::size_t scratch_bytes = 0;
  std::size_t plain_floats = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t sealed_len = w.extents[t].sealed_len;
    const std::span<float> values = w.params[t].values;
    scratch_off[t] = scratch_bytes;
    plain_off[t] = plain_floats;
    scratch_bytes += sealed_len;
    plain_floats += values.size();
    // Decrypt cost: one GCM pass + the plain copy into the layer arrays.
    const sim::Nanos crypto_ns = enclave_->crypto_task_ns(sealed_len);
    const sim::Nanos copy_ns = enclave_->plain_copy_ns(values.size_bytes());
    open_crypto_sum += crypto_ns;
    open_copy_sum += copy_ns;
    costs.push_back(crypto_ns + copy_ns);
  }

  // Snapshot mode decrypts into this staging buffer; the layer arrays are
  // only written after every buffer has authenticated.
  std::vector<float> plain_stage(snapshot ? plain_floats : 0);
  const auto dest_span = [&](std::size_t t) {
    const std::span<float> values = w.params[t].values;
    return snapshot ? std::span<float>(plain_stage.data() + plain_off[t], values.size())
                    : values;
  };
  const auto sealed_span = [&](std::size_t t) {
    return ByteSpan(scratch_.data() + scratch_off[t], w.extents[t].sealed_len);
  };

  sim::Stopwatch rd(enclave_->clock());
  scratch_.resize(scratch_bytes);
  // Stage PM -> enclave scratch. The walk validated every extent.
  for (std::size_t t = 0; t < n; ++t) {
    const SealedExtent& e = w.extents[t];
    rom_->device().charge_read(e.sealed_len);
    if (enclave_->model().real_sgx) {
      enclave_->copy_into_enclave(e.sealed_len);
    }
    std::memcpy(scratch_.data() + scratch_off[t], rom_->main_base() + e.primary_off,
                e.sealed_len);
  }
  stats_.read_ns += rd.elapsed();

  // Phase 2: authenticate + decrypt every buffer concurrently, straight into
  // the layers' (disjoint) parameter arrays.
  std::vector<std::uint8_t> auth_ok(n, 0);
  par::parallel_for(n, [&](par::Range r) {
    for (std::size_t t = r.begin; t < r.end; ++t) {
      auth_ok[t] =
          crypto::open_into(gcm_, sealed_span(t), float_bytes_mut(dest_span(t))) ? 1 : 0;
    }
  });
  const sim::Nanos open_t0 = enclave_->clock().now();
  const sim::Nanos dec_ns = enclave_->charge_parallel(costs);
  stats_.decrypt_ns += dec_ns;
  if (dec_ns > 0 && open_crypto_sum + open_copy_sum > 0) {
    const sim::Nanos gcm_ns =
        dec_ns * (open_crypto_sum / (open_crypto_sum + open_copy_sum));
    obs::trace_complete(enclave_->clock(), obs::Category::kGcm, "mirror.open.gcm",
                        open_t0, open_t0 + gcm_ns);
    obs::trace_complete(enclave_->clock(), obs::Category::kPlainCopy,
                        "mirror.open.copy", open_t0 + gcm_ns, open_t0 + dec_ns);
  }

  // Phase 3 (rare, serial): any buffer whose primary failed authentication
  // retries from its A/B sibling. A sibling that authenticates both restores
  // the weights and rewrites the corrupt primary (one durable transaction for
  // all repairs; tx_store's full-line write-back also clears line poison).
  std::vector<std::size_t> repairs;  // tasks whose primary is rebuilt
  for (std::size_t t = 0; t < n; ++t) {
    if (auth_ok[t]) continue;
    const SealedExtent& e = w.extents[t];
    if (e.replica_off != 0) {
      rom_->device().charge_read(e.sealed_len);
      if (enclave_->model().real_sgx) enclave_->copy_into_enclave(e.sealed_len);
      std::memcpy(scratch_.data() + scratch_off[t], rom_->main_base() + e.replica_off,
                  e.sealed_len);
      stats_.decrypt_ns += enclave_->crypto_task_ns(e.sealed_len);
      if (crypto::open_into(gcm_, sealed_span(t), float_bytes_mut(dest_span(t)))) {
        repairs.push_back(t);
        ++stats_.replica_repairs;
        continue;
      }
    }
    throw CryptoError(std::string(ctx) + ": authentication failed for layer " +
                      std::to_string(e.layer) + " buffer " + w.params[t].name +
                      (e.replica_off != 0 ? " (both A/B copies corrupt)"
                                          : " (PM mirror corrupted or tampered)"));
  }
  if (!repairs.empty()) {
    rom_->run_transaction([&] {
      for (const std::size_t t : repairs) {
        rom_->tx_store(w.extents[t].primary_off, scratch_.data() + scratch_off[t],
                       w.extents[t].sealed_len);
      }
    });
  }

  // Snapshot install: everything authenticated, so the staged weights can be
  // copied into the layer arrays (plain enclave-DRAM copies, charged above in
  // the per-task costs; an extra pass, but torn-weight-free on any failure).
  if (snapshot) {
    for (std::size_t t = 0; t < n; ++t) {
      const std::span<float> values = w.params[t].values;
      std::memcpy(values.data(), plain_stage.data() + plain_off[t], values.size_bytes());
    }
    enclave_->charge_plain_copy(plain_floats * sizeof(float));
  }

  net.set_iterations(w.hdr.iteration);
  ++stats_.restores;
  return w.hdr.iteration;
}

std::uint64_t MirrorModel::verify_integrity(ml::Network& net) {
  const Walk w = walk(&net, "MirrorModel::verify_integrity");
  Bytes plain_scratch;
  for (std::size_t t = 0; t < w.extents.size(); ++t) {
    const SealedExtent& e = w.extents[t];
    scratch_.resize(e.sealed_len);
    std::memcpy(scratch_.data(), rom_->main_base() + e.primary_off, e.sealed_len);
    plain_scratch.resize(w.params[t].values.size_bytes());
    if (!crypto::open_into(gcm_, scratch_,
                           MutableByteSpan(plain_scratch.data(), plain_scratch.size()))) {
      throw CryptoError(
          "MirrorModel::verify_integrity: authentication failed for layer " +
          std::to_string(e.layer) + " buffer " + w.params[t].name);
    }
  }
  if (w.tail_next != 0) {
    throw PmError("MirrorModel::verify_integrity: layer list longer than the model");
  }
  return w.hdr.iteration;
}

bool MirrorModel::replicated() const {
  return exists() && header().replicated != 0;
}

MirrorScrubReport MirrorModel::scrub(ml::Network& net, bool repair) {
  expects(async_ == nullptr,
          "MirrorModel::scrub: async save in flight — drain it first");
  const Walk w = walk(&net, "MirrorModel::scrub");
  MirrorScrubReport report;
  obs::Span span(enclave_->clock(), obs::Category::kScrub, "mirror.scrub");

  struct Repair {
    std::uint64_t dest_off;
    Bytes sealed;  // the authenticated sibling's bytes
  };
  std::vector<Repair> repairs;
  Bytes sealed_scratch;
  Bytes plain_scratch;

  // Authenticates the sealed copy at main-relative `off`, charging scrub read
  // traffic (PmDevice::scrub_range also surfaces poisoned lines; poisoned
  // content is scrambled, so authentication fails and the copy reads as
  // corrupt rather than wedging the scrubber).
  const auto copy_ok = [&](std::uint64_t off, std::size_t sealed_len,
                           std::size_t plain_len) {
    rom_->device().scrub_range(rom_->main_region_offset() + off, sealed_len);
    sealed_scratch.resize(sealed_len);
    std::memcpy(sealed_scratch.data(), rom_->main_base() + off, sealed_len);
    plain_scratch.resize(plain_len);
    stats_.decrypt_ns += enclave_->crypto_task_ns(sealed_len);
    return crypto::open_into(gcm_, sealed_scratch,
                             MutableByteSpan(plain_scratch.data(), plain_len));
  };

  for (std::size_t t = 0; t < w.extents.size(); ++t) {
    const SealedExtent& e = w.extents[t];
    const std::size_t plain_len = w.params[t].values.size_bytes();
    ++report.buffers_checked;

    const bool primary_ok = copy_ok(e.primary_off, e.sealed_len, plain_len);
    if (e.replica_off == 0) {
      if (!primary_ok) {
        ++report.auth_failures;
        ++report.unrecoverable;
      }
      continue;
    }
    // copy_ok leaves the authenticated bytes in sealed_scratch; grab the
    // primary's before the replica check overwrites them.
    Bytes primary_bytes = primary_ok ? sealed_scratch : Bytes{};
    const bool replica_ok = copy_ok(e.replica_off, e.sealed_len, plain_len);
    if (!primary_ok) ++report.auth_failures;
    if (!replica_ok) ++report.auth_failures;
    if (primary_ok && replica_ok) continue;
    if (!primary_ok && !replica_ok) {
      ++report.unrecoverable;
      continue;
    }
    if (repair) {
      if (primary_ok) {
        repairs.push_back({e.replica_off, std::move(primary_bytes)});
      } else {
        repairs.push_back({e.primary_off, sealed_scratch});
      }
      ++report.repaired;
      ++stats_.replica_repairs;
    }
  }
  if (w.tail_next != 0) {
    throw PmError("MirrorModel::scrub: layer list longer than the model");
  }

  if (!repairs.empty()) {
    rom_->run_transaction([&] {
      for (const Repair& r : repairs) {
        rom_->tx_store(r.dest_off, r.sealed.data(), r.sealed.size());
      }
    });
  }
  return report;
}

void MirrorModel::dispose() {
  expects(async_ == nullptr,
          "MirrorModel::dispose: async save in flight — drain it first");
  // Walk first (it throws on a corrupt list), free second, in list order:
  // each node's buffers (primary, then replica), then the node itself.
  const Walk w = walk(nullptr, "MirrorModel::dispose");
  std::vector<std::uint64_t> blocks;
  std::size_t t = 0;
  for (std::size_t i = 0; i < w.nodes.size(); ++i) {
    for (; t < w.extents.size() && w.extents[t].layer == i; ++t) {
      blocks.push_back(w.extents[t].primary_off);
      if (w.extents[t].replica_off != 0) blocks.push_back(w.extents[t].replica_off);
    }
    blocks.push_back(w.nodes[i]);
  }
  blocks.push_back(rom_->root(kRootSlot));

  rom_->run_transaction([&] {
    for (const std::uint64_t off : blocks) rom_->pmfree(off);
    rom_->set_root(kRootSlot, 0);
  });
}

std::vector<MirrorModel::SealedExtent> MirrorModel::sealed_extents() const {
  return walk(nullptr, "MirrorModel::sealed_extents").extents;
}

std::size_t MirrorModel::encryption_metadata_bytes() const {
  return walk(nullptr, "MirrorModel::encryption_metadata_bytes").extents.size() *
         crypto::kSealOverhead;
}

}  // namespace plinius
