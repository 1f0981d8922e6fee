#include "plinius/mirror.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "crypto/envelope.h"
#include "obs/trace.h"

namespace plinius {
namespace {

/// A corrupt sealed copy's replacement: its A/B sibling's authenticated bytes.
struct Repair {
  std::uint64_t dest_off;
  Bytes sealed;
};

/// Rewrites every repaired copy in one durable transaction (tx_store's
/// full-line write-back also clears line poison under the rewrite).
void write_repairs(romulus::Romulus& rom, const std::vector<Repair>& repairs) {
  if (repairs.empty()) return;
  rom.run_transaction([&] {
    for (const Repair& r : repairs) {
      rom.tx_store(r.dest_off, r.sealed.data(), r.sealed.size());
    }
  });
}

}  // namespace

MirrorModel::MirrorModel(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm, MirrorOptions options)
    : rom_(&rom),
      enclave_(&enclave),
      blobs_(rom, enclave, std::move(gcm)),
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
      const SealedExtent e{static_cast<std::size_t>(i), b, node.buf_off[b],
                           node.buf_replica_off[b], len};
      blobs_.check(blob(e, e.primary_off), ctx);
      if (e.replica_off != 0) blobs_.check(blob(e, e.replica_off), ctx);
      w.extents.push_back(e);
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
        const SealedRef primary = blobs_.alloc(buffers[b].values.size_bytes());
        node.buf_off[b] = primary.sealed_off;
        node.buf_sealed_len[b] = primary.sealed_len;
        if (options_.replicate) {
          node.buf_replica_off[b] = blobs_.alloc(primary.plain_len).sealed_off;
        }
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

MirrorModel::SealPlan MirrorModel::build_seal_plan(ml::Network& net,
                                                   const char* ctx) const {
  const Walk w = walk(&net, ctx);
  SealPlan plan;
  for (std::size_t t = 0; t < w.extents.size(); ++t) {
    const SealedExtent& e = w.extents[t];
    const ByteSpan plain = float_bytes(w.params[t].values);
    plan.tasks.push_back({plain, blob(e, e.primary_off), e.replica_off});
    plan.sealed_bytes += e.sealed_len;
    plan.plain_bytes += plain.size();
    // Encrypt cost: touch the (EPC-resident) weights + one GCM pass.
    const sim::Nanos touch_ns = enclave_->touch_task_ns(plain.size());
    const sim::Nanos crypto_ns = enclave_->crypto_task_ns(plain.size());
    plan.touch_sum += touch_ns;
    plan.crypto_sum += crypto_ns;
    plan.costs.push_back(touch_ns + crypto_ns);
  }
  return plan;
}

void MirrorModel::commit_seal(const SealPlan& plan, std::uint64_t iteration,
                              const std::uint8_t* sealed) {
  // Commit. Romulus transactions are single-writer, so the sealed buffers
  // and the iteration counter go to PM serially, atomically. The PM stores,
  // PWBs, fences and the twin-copy commit are the "write" share of Table Ia.
  // Each replica is copied from its freshly written primary.
  sim::Stopwatch write_sw(enclave_->clock());
  rom_->run_transaction([&] {
    rom_->tx_assign(rom_->root(kRootSlot) + offsetof(Header, iteration), iteration);
    for (const SealTask& task : plan.tasks) {
      const SealedRef& ref = task.ref;
      if (sealed == nullptr) {
        blobs_.seal(ref, task.plain);
      } else {
        rom_->tx_store(ref.sealed_off, sealed, ref.sealed_len);
        sealed += ref.sealed_len;
      }
      if (task.replica_off != 0) {
        rom_->tx_store(task.replica_off, rom_->main_base() + ref.sealed_off,
                       ref.sealed_len);
      }
    }
  });
  stats_.write_ns += write_sw.elapsed();
}

void MirrorModel::mirror_out(ml::Network& net, std::uint64_t iteration) {
  expects(!async_pending_,
          "MirrorModel::mirror_out: async save in flight — drain it first");
  ++stats_.save_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save");
  span.attr("iteration", static_cast<double>(iteration));
  enclave_->charge_ecall();

  // Phase 1 (serial): validate + plan.
  const SealPlan plan = build_seal_plan(net, "MirrorModel::mirror_out");

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

  // Phase 2: seal each buffer into PM inside the durable commit.
  commit_seal(plan, iteration);
  ++stats_.saves;
}

// The pipelined save's state: the plan and the sealed bytes awaiting their
// durable commit. It outlives its save, so the next one seals into the same
// buffer instead of allocating the model's size again.
struct MirrorModel::AsyncSeal {
  SealPlan plan;
  std::uint64_t iteration = 0;
  Bytes sealed;
};

void MirrorModel::begin_async_save(ml::Network& net, std::uint64_t iteration,
                                   sgx::ChargeStream& stream) {
  expects(!async_pending_,
          "MirrorModel::begin_async_save: previous async save still pending");
  ++stats_.save_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save.stage");
  span.attr("iteration", static_cast<double>(iteration));
  enclave_->charge_ecall();

  if (async_ == nullptr) async_ = std::make_unique<AsyncSeal>();
  async_->plan = build_seal_plan(net, "MirrorModel::begin_async_save");
  async_->iteration = iteration;
  const SealPlan& plan = async_->plan;

  // Double buffer, as modelled: the enclave snapshots the live weights so
  // compute may mutate them at once, and the foreground pays that copy. The
  // host seals the live weights directly instead: seal_batch has finished
  // when this returns, so the sealed bytes are the snapshot's.
  enclave_->charge_plain_copy(plan.plain_bytes);
  std::vector<ByteSpan> plains;
  plains.reserve(plan.tasks.size());
  for (const SealTask& task : plan.tasks) plains.push_back(task.plain);

  // Seal now — the sealed bytes must be bitwise identical to the serial
  // path's — but book the simulated cost on the background stream's lanes
  // instead of the foreground clock.
  async_->sealed.resize(plan.sealed_bytes);
  blobs_.seal_batch(plains, async_->sealed);
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
  async_pending_ = true;
}

bool MirrorModel::complete_async_save(sgx::ChargeStream& stream) {
  if (!async_pending_) return false;
  // Consume the pending state up front: if the commit below throws, the
  // sealed bytes are spent either way and the caller re-seals from live
  // weights.
  async_pending_ = false;
  const AsyncSeal& pending = *async_;
  const sim::Nanos stall_t0 = enclave_->clock().now();
  const sim::Nanos stall = stream.join();
  stats_.pipeline_stall_ns += stall;
  if (stall > 0) {
    obs::trace_complete(enclave_->clock(), obs::Category::kPipelineStall,
                        "pipeline.stall", stall_t0, enclave_->clock().now());
  }
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save.commit");
  span.attr("iteration", static_cast<double>(pending.iteration));
  commit_seal(pending.plan, pending.iteration, pending.sealed.data());
  ++stats_.saves;
  ++stats_.async_saves;
  return true;
}

void MirrorModel::abandon_async_save() noexcept { async_pending_ = false; }

bool MirrorModel::async_save_pending() const noexcept { return async_pending_; }

std::uint64_t MirrorModel::pending_iteration() const {
  expects(async_pending_, "MirrorModel::pending_iteration: no pending save");
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
  expects(!async_pending_,
          "MirrorModel: restore with an async save in flight — drain it first");
  ++stats_.restore_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorRestore,
                 snapshot ? "mirror.restore.snapshot" : "mirror.restore");
  enclave_->charge_ecall();

  // Phase 1 (serial): stage every sealed buffer straight into the span its
  // plaintext goes to (the layer arrays, or the snapshot stage), with its IV
  // and MAC beside it, and charge the reads. PM reads stay serial: the media
  // bandwidth is shared, so lanes would not overlap them anyway.
  const Walk w = walk(&net, ctx);
  const std::size_t n = w.extents.size();
  std::vector<std::size_t> plain_off(n);  // float offset into the snapshot stage
  std::vector<sim::Nanos> costs;
  sim::Nanos open_crypto_sum = 0;  // GCM share of the decrypt costs
  sim::Nanos open_copy_sum = 0;    // plain-copy share
  std::size_t plain_floats = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t sealed_len = w.extents[t].sealed_len;
    const std::span<float> values = w.params[t].values;
    plain_off[t] = plain_floats;
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
  const auto dest = [&](std::size_t t) {
    const std::span<float> values = w.params[t].values;
    return float_bytes_mut(snapshot ? std::span<float>(plain_stage.data() + plain_off[t],
                                                       values.size())
                                    : values);
  };

  sim::Stopwatch rd(enclave_->clock());
  std::vector<crypto::EnvelopeTrailer> trailers(n);
  // Stage PM -> enclave, read once. The walk validated every extent.
  for (std::size_t t = 0; t < n; ++t) {
    blobs_.stage_in_place(blob(w.extents[t], w.extents[t].primary_off), dest(t),
                          trailers[t]);
  }
  stats_.read_ns += rd.elapsed();

  // Phase 2: authenticate + decrypt every buffer concurrently, in place in
  // its (disjoint) destination span.
  std::vector<std::uint8_t> auth_ok(n, 0);
  par::parallel_for(n, [&](par::Range r) {
    for (std::size_t t = r.begin; t < r.end; ++t) {
      auth_ok[t] = blobs_.open_in_place(trailers[t], dest(t)) ? 1 : 0;
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
  // retries from its A/B sibling, staged whole into a buffer of its own. A
  // sibling that authenticates both restores the weights and rewrites the
  // corrupt primary from its sealed bytes.
  std::vector<Repair> repairs;
  for (std::size_t t = 0; t < n; ++t) {
    if (auth_ok[t]) continue;
    const SealedExtent& e = w.extents[t];
    if (e.replica_off != 0) {
      Bytes sibling(e.sealed_len);
      blobs_.stage(blob(e, e.replica_off), sibling);
      stats_.decrypt_ns += enclave_->crypto_task_ns(e.sealed_len);
      if (blobs_.open(sibling, dest(t))) {
        repairs.push_back({e.primary_off, std::move(sibling)});
        ++stats_.replica_repairs;
        continue;
      }
    }
    throw CryptoError(std::string(ctx) + ": authentication failed for layer " +
                      std::to_string(e.layer) + " buffer " + w.params[t].name +
                      (e.replica_off != 0 ? " (both A/B copies corrupt)"
                                          : " (PM mirror corrupted or tampered)"));
  }
  write_repairs(*rom_, repairs);

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
  Bytes sealed;
  for (std::size_t t = 0; t < w.extents.size(); ++t) {
    const SealedExtent& e = w.extents[t];
    if (!blobs_.authenticate(blob(e, e.primary_off), sealed)) {
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

MirrorScrubReport MirrorModel::scrub(ml::Network& net) {
  expects(!async_pending_,
          "MirrorModel::scrub: async save in flight — drain it first");
  const Walk w = walk(&net, "MirrorModel::scrub");
  MirrorScrubReport report;
  obs::Span span(enclave_->clock(), obs::Category::kScrub, "mirror.scrub");

  std::vector<Repair> repairs;
  Bytes primary;
  Bytes replica;

  // Authenticates `e`'s copy at main-relative `off` into `sealed`, charging
  // scrub read traffic (PmDevice::scrub_range also surfaces poisoned lines;
  // poisoned content is scrambled, so authentication fails and the copy
  // reads as corrupt rather than wedging the scrubber).
  const auto copy_ok = [&](const SealedExtent& e, std::uint64_t off, Bytes& sealed) {
    (void)rom_->device().scrub_range(rom_->main_region_offset() + off, e.sealed_len);
    stats_.decrypt_ns += enclave_->crypto_task_ns(e.sealed_len);
    return blobs_.authenticate(blob(e, off), sealed);
  };

  for (const SealedExtent& e : w.extents) {
    ++report.buffers_checked;

    const bool primary_ok = copy_ok(e, e.primary_off, primary);
    if (e.replica_off == 0) {
      if (!primary_ok) {
        ++report.auth_failures;
        ++report.unrecoverable;
      }
      continue;
    }
    const bool replica_ok = copy_ok(e, e.replica_off, replica);
    if (!primary_ok) ++report.auth_failures;
    if (!replica_ok) ++report.auth_failures;
    if (primary_ok && replica_ok) continue;
    if (!primary_ok && !replica_ok) {
      ++report.unrecoverable;
      continue;
    }
    if (primary_ok) {
      repairs.push_back({e.replica_off, std::move(primary)});
    } else {
      repairs.push_back({e.primary_off, std::move(replica)});
    }
    ++report.repaired;
    ++stats_.replica_repairs;
  }
  if (w.tail_next != 0) {
    throw PmError("MirrorModel::scrub: layer list longer than the model");
  }

  write_repairs(*rom_, repairs);
  return report;
}

void MirrorModel::dispose() {
  expects(!async_pending_,
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
