// Mirroring module (paper §IV, Algorithm 3) — Plinius' core contribution.
//
// Maintains an encrypted mirror copy of the enclave model in PM:
//   * the PM model is a linked list of persistent layer nodes ("so as to
//     simplify future modifications to the model's structure"), each
//     pointing at AES-GCM-sealed copies of the layer's parameter buffers;
//   * mirror-out (save): encrypt each buffer in the enclave and write it to
//     PM inside a single Romulus durable transaction, together with the
//     iteration counter — a crash mid-save recovers the previous mirror;
//   * mirror-in (restore): read each sealed buffer from PM into the enclave
//     and decrypt it into the model's layer arrays.
//
// Per-buffer encryption metadata is IV (12 B) + MAC (16 B) = 28 B; a
// batch-normalized convolutional layer has 5 buffers, hence the paper's
// 140 B/layer accounting, exposed via encryption_metadata_bytes().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "ml/network.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

struct MirrorStats {
  sim::Nanos encrypt_ns = 0;  // save: in-enclave encryption
  sim::Nanos write_ns = 0;    // save: PM stores + PWBs + twin-copy commit
  sim::Nanos read_ns = 0;     // restore: PM reads + copies into the enclave
  sim::Nanos decrypt_ns = 0;  // restore: in-enclave decryption + layer copy
  // Foreground time spent in complete_async_save waiting for an in-flight
  // background seal (0 = every async seal was fully hidden under compute).
  sim::Nanos pipeline_stall_ns = 0;
  // Attempts count every save/restore *started*; saves/restores count only
  // the ones that ran to completion — a throw mid-operation leaves
  // attempts > completions, which is what recovery/chaos accounting keys on.
  std::uint64_t save_attempts = 0;
  std::uint64_t restore_attempts = 0;
  std::uint64_t saves = 0;
  std::uint64_t restores = 0;
  // Completed saves that went through the begin/complete async pipeline.
  std::uint64_t async_saves = 0;
  // Sealed buffers whose corrupt copy was rebuilt from its A/B sibling
  // (mirror_in fallback + scrub repairs).
  std::uint64_t replica_repairs = 0;
};

/// Behavior knobs for the PM mirror.
struct MirrorOptions {
  /// A/B replication: every sealed buffer gets a sibling copy in PM, so a
  /// media fault in one seal recovers from the other (doubles the mirror's
  /// PM footprint and the sealed-write traffic — crash consistency alone
  /// does not need it; media faults do).
  bool replicate = false;
};

/// Result of a mirror scrub pass (see MirrorModel::scrub).
struct MirrorScrubReport {
  std::uint64_t buffers_checked = 0;
  std::uint64_t auth_failures = 0;   // copies that failed GCM authentication
  std::uint64_t repaired = 0;        // rebuilt from the healthy sibling
  std::uint64_t unrecoverable = 0;   // both copies corrupt (or no replica)
  [[nodiscard]] bool healthy() const noexcept { return unrecoverable == 0; }
};

/// The header and the layer list live in PM the enclave does not control, so
/// every entry point reads them through one validated walk before it touches
/// a sealed byte. On every entry point the walk checks, failing closed:
///   * the root slot and the full header extent (PmError);
///   * num_layers: equal to the net's layer count where the entry point takes
///     a net (MlError), otherwise at most main_size / sizeof(LayerNode), which
///     bounds a cyclic list (PmError);
///   * each node's extent, and that the list holds num_layers nodes (PmError);
///   * num_buffers: equal to the layer's buffer count with a net (MlError),
///     never above kMaxBuffersPerLayer (PmError);
///   * sealed_len == sealed_size(plain) with a net (MlError);
///   * every primary and replica extent inside main (PmError).
/// Only verify_integrity and scrub also reject a list longer than the model
/// (the last node's next must be 0); every other entry point reads exactly
/// num_layers nodes and ignores what follows.
class MirrorModel {
 public:
  static constexpr int kRootSlot = pm::kMirrorRootSlot;
  static constexpr std::size_t kMaxBuffersPerLayer = 8;

  MirrorModel(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm,
              MirrorOptions options = {});
  ~MirrorModel();  // out of line: AsyncSeal is incomplete here

  /// True when a mirror model already exists in this PM region.
  [[nodiscard]] bool exists() const;

  /// Algorithm 3, alloc_mirror_model: allocates the persistent linked list
  /// sized to `net`'s parameter buffers (one durable transaction).
  /// Throws PmError if a mirror already exists.
  void alloc(ml::Network& net);

  /// Algorithm 3, mirror_out: encrypts the enclave model's parameters into
  /// the PM mirror and records `iteration`, atomically.
  ///
  /// Sealing is parallel: per-buffer IVs are drawn from the key's
  /// IvSequence serially (counter stays strictly monotonic — no IV reuse
  /// across tasks), the AES-GCM passes run concurrently into disjoint
  /// scratch slices via par::parallel_for, and the Romulus transaction then
  /// commits the sealed buffers serially (transactions stay single-writer).
  /// Simulated encryption time is the critical path over the enclave's TCS
  /// lanes (EnclaveRuntime::charge_parallel).
  void mirror_out(ml::Network& net, std::uint64_t iteration);

  // --- pipelined (double-buffered) save ------------------------------------
  // mirror_out split into a stage and a commit so the GCM sweep can run on a
  // background ChargeStream while the trainer's next iteration computes:
  //
  //   begin_async_save: snapshot the live weights into an enclave staging
  //     buffer (so compute may mutate them immediately), seal the snapshot,
  //     and book the seal costs on `stream` — the foreground only pays the
  //     ecall + the snapshot copy;
  //   complete_async_save: join the stream (the stall, if any, is the
  //     unhidden remainder of the seal) and commit the sealed buffers + the
  //     iteration counter in one durable Romulus transaction.
  //
  // The durable point therefore lags the computed point by at most one
  // in-flight save; a crash before complete_async_save recovers the
  // previous mirror, exactly like a crash mid-mirror_out. While a save is
  // in flight the mirror's synchronous entry points (mirror_out, mirror_in,
  // scrub, dispose) refuse to run — drain or abandon first.

  /// Stages and seals `net`'s weights for `iteration`, booking the seal on
  /// `stream`. Throws if a previous async save is still pending.
  void begin_async_save(ml::Network& net, std::uint64_t iteration,
                        sgx::ChargeStream& stream);

  /// Joins `stream` and durably commits the pending seal. Returns false if
  /// no save is pending. The pending state is consumed even when the commit
  /// throws (the snapshot is spent; the caller re-seals from live weights).
  bool complete_async_save(sgx::ChargeStream& stream);

  /// Drops a pending async save without committing (crash paths).
  void abandon_async_save() noexcept;

  /// True while a begin_async_save has not been completed or abandoned.
  [[nodiscard]] bool async_save_pending() const noexcept;
  /// Iteration of the pending async save (save must be pending).
  [[nodiscard]] std::uint64_t pending_iteration() const;

  /// Algorithm 3, mirror_in: decrypts the PM mirror into the enclave model.
  /// Returns the recorded iteration (also set on `net`). Throws CryptoError
  /// if any buffer fails authentication (the model is partially restored in
  /// that case and must not be used), MlError on layout mismatch, PmError
  /// on out-of-range PM offsets. PM reads are serial (media bandwidth is
  /// shared); decryption is parallel like mirror_out's sealing.
  std::uint64_t mirror_in(ml::Network& net);

  /// Read-side snapshot restore for hot model reload: like mirror_in, but
  /// every buffer is decrypted into enclave staging memory and authenticated
  /// *before* any layer array is touched, so a corrupt mirror leaves `net`'s
  /// weights exactly as they were (mirror_in may leave them partially
  /// restored). This is what lets a serving worker refresh its model from a
  /// mirror that a concurrent trainer keeps advancing, without downtime on
  /// failure and without ever serving torn weights. Costs an extra plain
  /// copy of the parameter bytes over mirror_in.
  std::uint64_t mirror_in_snapshot(ml::Network& net);

  /// Iteration recorded by the last mirror_out (0 if none).
  [[nodiscard]] std::uint64_t iteration() const;

  /// Deep integrity check for crash-recovery sweeps: header magic, layer
  /// list well-formedness against `net`'s layout, buffer offsets in range,
  /// and authentication of every sealed buffer — without touching `net`'s
  /// weights (decryption goes to scratch). Returns the recorded iteration;
  /// throws PmError/MlError/CryptoError on any violation.
  std::uint64_t verify_integrity(ml::Network& net);

  /// Total PM bytes of encryption metadata (28 B per sealed buffer).
  [[nodiscard]] std::size_t encryption_metadata_bytes() const;

  /// True when this mirror was allocated with A/B replication.
  [[nodiscard]] bool replicated() const;

  /// Scrub pass: authenticates every sealed copy (primary and, when
  /// replicated, the sibling) against `net`'s layout without touching its
  /// weights, charging scrub read traffic. With `repair` set, a corrupt
  /// copy whose sibling authenticates is rebuilt from it inside one durable
  /// transaction (also clearing any line poison under the rewrite). Layout
  /// violations (corrupt offsets, truncated list) throw PmError/MlError;
  /// authentication results are reported, not thrown.
  MirrorScrubReport scrub(ml::Network& net, bool repair = true);

  /// Frees every PM allocation of the mirror (nodes, sealed buffers,
  /// replicas, header) and clears the root, in one durable transaction.
  /// Throws PmError/MlError if the persistent layer list is too corrupt to
  /// walk — callers then fall back to reformatting the region.
  void dispose();

  /// Main-relative extents of every sealed buffer, for scrubbers and
  /// fault-injection harnesses targeting the mirror (replica_off is 0 when
  /// the mirror is not replicated).
  struct SealedExtent {
    std::size_t layer;
    std::size_t buffer;
    std::uint64_t primary_off;
    std::uint64_t replica_off;
    std::uint64_t sealed_len;
  };
  [[nodiscard]] std::vector<SealedExtent> sealed_extents() const;

  [[nodiscard]] const MirrorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = MirrorStats{}; }

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t iteration;
    std::uint64_t num_layers;
    std::uint64_t head;        // offset of the first layer node
    std::uint64_t replicated;  // 1 = every buffer has an A/B sibling copy
  };
  struct LayerNode {
    std::uint64_t next;
    std::uint64_t num_buffers;
    std::uint64_t buf_off[kMaxBuffersPerLayer];
    std::uint64_t buf_sealed_len[kMaxBuffersPerLayer];
    std::uint64_t buf_replica_off[kMaxBuffersPerLayer];  // 0 when unreplicated
  };
  static constexpr std::uint64_t kMagic = 0x504C4D4952524F52ULL;  // "PLMIRROR"

  /// One sealed buffer of a planned save. `plain` views the live weight
  /// buffer; `plain_off` is the byte offset of its copy in a gathered
  /// snapshot (async path).
  struct SealTask {
    ByteSpan plain;
    std::uint64_t pm_off;
    std::uint64_t replica_off;  // 0 = unreplicated
    std::size_t sealed_len;
    std::size_t scratch_off;
    std::size_t plain_off;
    std::uint8_t iv[crypto::kGcmIvSize];
  };
  /// The layer list as walk() validated it: node offsets and every sealed
  /// buffer's extent in list order, plus — when walked against a net — the
  /// net's parameter buffer for each extent.
  struct Walk {
    Header hdr;
    std::vector<std::uint64_t> nodes;
    std::vector<SealedExtent> extents;
    std::vector<ml::ParamBuffer> params;  // parallel to extents; empty without a net
    std::uint64_t tail_next = 0;          // the last node's next pointer
  };
  /// Seal plan built from a walk against the net, with per-buffer costs
  /// split into their EPC-paging and GCM shares. Shared by the synchronous
  /// and the pipelined save paths.
  struct SealPlan {
    std::vector<SealTask> tasks;
    std::vector<sim::Nanos> costs;
    sim::Nanos touch_sum = 0;   // EPC paging share of the seal costs
    sim::Nanos crypto_sum = 0;  // GCM share
    std::size_t scratch_bytes = 0;
    std::size_t plain_bytes = 0;
  };
  struct AsyncSeal;  // pending pipelined save (defined in mirror.cc)

  [[nodiscard]] Header header() const;
  /// The one walk of the untrusted PM layer list; every entry point consumes
  /// its table (contract in the class comment). Throws PmError/MlError
  /// naming `ctx`.
  [[nodiscard]] Walk walk(ml::Network* net, const char* ctx) const;
  [[nodiscard]] SealPlan build_seal_plan(ml::Network& net, const char* ctx);
  /// Durably commits a sealed plan (buffers from `sealed` + the iteration
  /// counter) in one Romulus transaction, accumulating write_ns.
  void commit_seal(const SealPlan& plan, ByteSpan sealed, std::uint64_t iteration);
  /// Shared mirror_in / mirror_in_snapshot implementation; `snapshot`
  /// selects staged-then-install semantics over decrypt-in-place.
  std::uint64_t restore_model(ml::Network& net, bool snapshot);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  crypto::AesGcm gcm_;
  crypto::IvSequence iv_seq_;
  MirrorOptions options_;
  MirrorStats stats_;
  Bytes scratch_;
  std::unique_ptr<AsyncSeal> async_;  // in-flight pipelined save, if any
};

/// Reinterprets a float parameter buffer as bytes (for sealing).
[[nodiscard]] inline ByteSpan float_bytes(std::span<const float> v) {
  return ByteSpan(reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes());
}
[[nodiscard]] inline MutableByteSpan float_bytes_mut(std::span<float> v) {
  return MutableByteSpan(reinterpret_cast<std::uint8_t*>(v.data()), v.size_bytes());
}

}  // namespace plinius
