// PM data module (paper §IV/§V, "Initial dataset loading to PM").
//
// Training data is loaded into byte-addressable PM once; each record (an
// image row + its one-hot label row) is stored AES-GCM-sealed. Every
// training iteration decrypts a batch of records into enclave memory
// (Algorithm 2, line 15: decrypt_pm_data(batch_size)). After a crash the
// data is instantly available again — no re-reading from secondary storage.
//
// Each sealed record is a blob of the shared SealedBlobs store
// (plinius/sealed_blob.h). An unencrypted mode stores plaintext records with
// its own copy path, used as the comparison baseline of Fig. 8 (overhead of
// batched data decryption).
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/rng.h"
#include "ml/data.h"
#include "plinius/sealed_blob.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

struct PmDataStats {
  sim::Nanos decrypt_ns = 0;  // cumulative batch read+decrypt time
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  // Sealed records that failed GCM authentication (media faults / tamper).
  std::uint64_t corrupt_records = 0;
  // Batch slots refilled from a fresh draw under CorruptRecordPolicy::kResample.
  std::uint64_t resampled = 0;
};

/// What sample_batch does when a sealed record fails authentication.
enum class CorruptRecordPolicy {
  kThrow,     // raise CryptoError naming the record index (default)
  kResample,  // skip the corrupt record, draw a replacement, count it
};

class PmDataStore {
 public:
  static constexpr int kRootSlot = pm::kPmDataRootSlot;

  PmDataStore(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm,
              bool encrypted = true);

  [[nodiscard]] bool exists() const;

  /// One-time load of the dataset into PM (Fig. 5 step 4). The data arrives
  /// from untrusted storage via ocall-chunked I/O and is written to PM in a
  /// durable transaction. Throws PmError if data is already loaded.
  void load(const ml::Dataset& data);

  [[nodiscard]] std::size_t rows() const;
  [[nodiscard]] std::size_t x_cols() const;
  [[nodiscard]] std::size_t y_cols() const;
  [[nodiscard]] bool encrypted() const;

  /// Samples `batch` records uniformly and decrypts them into the enclave
  /// buffers (x_out: batch*x_cols floats, y_out: batch*y_cols). Record
  /// indices are drawn serially from `rng` (thread-count-invariant batches);
  /// the per-record AES-GCM passes then run concurrently, with simulated
  /// time advanced by the critical path over the enclave's TCS lanes.
  void sample_batch(std::size_t batch, Rng& rng, float* x_out, float* y_out);

  /// Reads one record by index (bounds-checked).
  void read_record(std::size_t index, float* x_out, float* y_out);

  /// Corruption policy for sample_batch (see CorruptRecordPolicy).
  void set_corrupt_policy(CorruptRecordPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] CorruptRecordPolicy corrupt_policy() const noexcept { return policy_; }

  /// Scrub pass over every sealed record: authenticates each one (charging
  /// scrub read traffic), returning the indices that fail. Records have no
  /// replica, so corruption is reported, not repaired — kResample skips the
  /// bad indices at training time. Plaintext stores have no MAC to check and
  /// always report clean.
  [[nodiscard]] std::vector<std::size_t> scrub_records();

  /// Main-relative extent of the record array (for fault injection and
  /// scrubbers): offset of record 0, stored record length, and row count.
  [[nodiscard]] std::uint64_t records_offset() const { return header().records_off; }
  [[nodiscard]] std::size_t record_bytes() const { return header().record_len; }

  [[nodiscard]] const PmDataStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = PmDataStats{}; }

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t rows;
    std::uint64_t x_cols;
    std::uint64_t y_cols;
    std::uint64_t record_len;  // stored record length (sealed or plain)
    std::uint64_t encrypted;
    std::uint64_t records_off;
  };
  static constexpr std::uint64_t kMagic = 0x504C44415441504DULL;  // "PLDATAPM"

  [[nodiscard]] Header header() const;
  /// Record `index` of a sealed store as a blob (header() checked the extent).
  [[nodiscard]] static SealedRef record_blob(const Header& hdr, std::uint64_t index) {
    return {hdr.record_len - crypto::kSealOverhead,
            hdr.records_off + index * hdr.record_len, hdr.record_len};
  }
  /// The plaintext mode's own copy path: PM read, real-SGX copy-in, copy.
  void stage_plain(std::uint64_t off, MutableByteSpan dst);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  SealedBlobs blobs_;  // unused by a plaintext store
  bool encrypted_;
  CorruptRecordPolicy policy_ = CorruptRecordPolicy::kThrow;
  PmDataStats stats_;
  Bytes scratch_;
  std::vector<float> plain_scratch_;
};

}  // namespace plinius
