// Tensor mirroring — the generality claim of paper §IV ("Integration with
// different ML libraries"):
//
//   "To validate the generality of our architecture, we applied our
//    mirroring mechanism within Tensorflow. ... Our implementation creates
//    mirror copies of tensors in PM and restores them in enclave memory
//    using Plinius's mirroring mechanism."
//
// TensorMirror mirrors an arbitrary set of *named byte blobs* — named float
// tensors (the shape TF checkpoints reduce to) are a thin wrapper — with the
// same guarantees as the model mirror: AES-GCM sealing per blob, atomic
// (Romulus-transactional) versioned updates, authentication on restore.
// MirrorModel is the Darknet-specific layer-list instantiation; this is the
// library-agnostic form. QuantMirror (plinius/quant_mirror.h) reuses the
// blob form for int8 model snapshots on a separate root slot.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

struct NamedTensor {
  std::string name;          // <= 47 bytes
  std::span<float> values;
};

/// Byte-typed mirror unit; mirror_out only reads the span.
struct NamedBlob {
  std::string name;          // <= 47 bytes
  std::span<std::uint8_t> bytes;
};

class TensorMirror {
 public:
  static constexpr int kRootSlot = pm::kTensorMirrorRootSlot;
  static constexpr std::size_t kMaxNameLen = 47;

  /// `root_slot` selects the Romulus root the mirror lives under (default:
  /// the TF-tensor slot; QuantMirror passes its own).
  TensorMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm,
               int root_slot = kRootSlot);

  [[nodiscard]] bool exists() const;

  /// Allocates PM mirrors for the blob set (one durable transaction).
  /// Names must be unique and fit kMaxNameLen.
  void alloc_blobs(std::span<const NamedBlob> blobs);

  /// Atomically seals every blob into its PM mirror and records `version`.
  /// The set must match alloc_blobs()'s (same names, same sizes, any order).
  void mirror_out_blobs(std::span<const NamedBlob> blobs, std::uint64_t version);

  /// Restores every blob (matched by name) from PM; returns the version.
  /// Throws CryptoError on authentication failure, MlError on mismatch.
  std::uint64_t mirror_in_blobs(std::span<const NamedBlob> blobs);

  /// Float-tensor convenience wrappers over the blob API.
  void alloc(std::span<const NamedTensor> tensors);
  void mirror_out(std::span<const NamedTensor> tensors, std::uint64_t version);
  std::uint64_t mirror_in(std::span<NamedTensor> tensors);

  [[nodiscard]] std::uint64_t version() const;
  [[nodiscard]] std::size_t tensor_count() const;

  /// Plaintext size of every allocated blob, in table order (lets a reader
  /// size its buffers before mirror_in_blobs).
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> blob_sizes() const;

  /// Total sealed PM bytes (IV + ciphertext + MAC across all blobs).
  [[nodiscard]] std::size_t sealed_bytes() const;

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t version;
    std::uint64_t count;
    std::uint64_t table_off;
  };
  struct Entry {
    char name[kMaxNameLen + 1];
    std::uint64_t plain_len;   // bytes
    std::uint64_t sealed_off;  // offset of IV||CT||MAC in main
    std::uint64_t sealed_len;
  };
  static constexpr std::uint64_t kMagic = 0x504C54454E534F52ULL;  // "PLTENSOR"

  /// Reads the header, bounding its count by the table extent (PmError).
  [[nodiscard]] Header header() const;
  /// Reads the entry table, checking each name, sealed length and sealed
  /// extent (PmError), so callers index PM only through validated entries.
  [[nodiscard]] std::vector<Entry> table(const Header& hdr) const;
  /// The entry named like `blob`; MlError (naming `ctx`) when it is unknown
  /// or its size differs.
  [[nodiscard]] static const Entry& entry_for(std::span<const Entry> entries,
                                              const NamedBlob& blob, const char* ctx);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  crypto::AesGcm gcm_;
  crypto::IvSequence iv_seq_;
  int root_slot_;
  Bytes scratch_;
};

}  // namespace plinius
