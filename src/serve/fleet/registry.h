// PM-resident versioned model registry — the rollout source of truth for
// the serving fleet.
//
// Every model version the fleet may serve is one sealed record in PM:
// an AES-GCM envelope of the v2 weight blob (ml/serialize.h — float32 and
// int8 entries share the registry, distinguished by the dtype header) plus
// plaintext metadata (version number, dtype, training iteration, rollout
// state). Records are appended and state transitions are applied under the
// same Romulus transaction machinery as every other persistent structure,
// so a crash mid-publish or mid-promotion can never tear the registry: the
// fleet restarts, re-attaches, and finds either the old state or the new
// one, with every weight blob still authenticated on load.
//
// The rollout state machine is persisted per record:
//
//   kStaged ──begin_rollout──▶ kCanary ──promote──▶ kServing ──▶ kRetired
//                                 │
//                                 └──rollback (SLO regression or
//                                    reload_failure)──▶ kRejected
//
// load_*() authenticates into staging before anything else is touched — a
// tampered record throws CryptoError and the caller's serving model keeps
// its old weights, which is what lets a canary replica survive a corrupt
// rollout (tests/route_test.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/gcm.h"
#include "ml/network.h"
#include "ml/quant.h"
#include "ml/serialize.h"
#include "plinius/metrics_log.h"
#include "plinius/sealed_blob.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius::serve::fleet {

/// Rollout state of one registry record (persisted wide for layout
/// stability, like RecoveryRecord's tier).
enum class VersionState : std::uint64_t {
  kStaged = 0,   // published, not yet offered traffic
  kCanary = 1,   // serving the canary cohort
  kServing = 2,  // the fleet's stable version
  kRetired = 3,  // superseded by a promoted successor
  kRejected = 4, // rolled back (SLO regression or corrupt record)
};

[[nodiscard]] const char* to_string(VersionState state) noexcept;

struct VersionRecord {
  std::uint64_t version = 0;
  std::uint64_t dtype = ml::kDtypeFloat32;  // ml::kDtypeFloat32 / kDtypeInt8
  VersionState state = VersionState::kStaged;
  std::uint64_t iterations = 0;             // training iteration of the blob
  std::size_t plain_len = 0;
  std::size_t sealed_len = 0;
};

/// One registry record as laid out in PM: the ModelRegistry's PmRecordLog
/// record. Version v lives at index v - 1; the stored version is kept as a
/// fault check.
struct RegistryEntry {
  std::uint64_t version;
  std::uint64_t dtype;
  std::uint64_t state;
  std::uint64_t iterations;
  SealedRef blob;
};

/// Snapshot for obs publishing (stats_bridge maps this onto registry.*).
struct RegistryStats {
  std::uint64_t versions = 0;
  std::uint64_t serving_version = 0;
  std::uint64_t publishes = 0;
  std::uint64_t loads = 0;
  std::uint64_t load_failures = 0;  // authentication rejections
  std::size_t sealed_bytes = 0;
};

/// A fixed-capacity PmRecordLog of RegistryEntry records that never
/// compacts: create() sizes it once (PmError if it already exists), and a
/// full registry rejects publish().
class ModelRegistry : private PmRecordLog<RegistryEntry> {
 public:
  static constexpr int kRootSlot = pm::kModelRegistryRootSlot;

  ModelRegistry(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                crypto::AesGcm gcm);

  using PmRecordLog::capacity;
  using PmRecordLog::create;
  using PmRecordLog::exists;
  using PmRecordLog::size;

  /// Seals a float32 model into a new kStaged record. Returns its version
  /// (monotonically increasing from 1, never reused). Throws PmError when
  /// the registry is full.
  std::uint64_t publish(ml::Network& net);
  /// Seals an int8 model into a new kStaged record.
  std::uint64_t publish(const ml::QuantizedNetwork& qnet);

  /// Persists a state transition for `version` (durable transaction).
  void set_state(std::uint64_t version, VersionState state);

  [[nodiscard]] VersionRecord record(std::uint64_t version) const;
  [[nodiscard]] std::vector<VersionRecord> records() const;
  /// The record currently in kServing state (0 when none). At most one
  /// record is kServing at a time — promotion retires the predecessor in
  /// the same transaction.
  [[nodiscard]] std::uint64_t serving_version() const;

  /// Authenticates and returns the plaintext weight blob of `version`.
  /// Throws CryptoError on tamper (counted in stats().load_failures),
  /// PmError on an unknown version.
  [[nodiscard]] Bytes load_blob(std::uint64_t version);

  /// Authenticated load of a float32 record into an architecturally
  /// identical network; stages the blob first, so `net` is untouched on
  /// tamper or dtype mismatch.
  void load(std::uint64_t version, ml::Network& net);
  /// Authenticated reconstruction of an int8 record.
  [[nodiscard]] ml::QuantizedNetwork load_quantized(std::uint64_t version);

  /// PM extent (main-relative offset, sealed length) of a record's sealed
  /// blob — the surface a tamper test corrupts.
  [[nodiscard]] std::pair<std::size_t, std::size_t> sealed_extent(
      std::uint64_t version) const;

  /// Total sealed PM bytes across all records.
  [[nodiscard]] std::size_t sealed_bytes() const;

  [[nodiscard]] RegistryStats stats() const;

 private:
  /// The record of `version`. Throws PmError when the version is out of
  /// range or its record does not carry it.
  [[nodiscard]] RegistryEntry entry(const Header& hdr, std::uint64_t version) const;
  std::uint64_t publish_blob(ByteSpan blob, std::uint64_t dtype,
                             std::uint64_t iterations);

  sgx::EnclaveRuntime* enclave_;
  SealedBlobs blobs_;
  std::uint64_t publishes_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t load_failures_ = 0;
};

}  // namespace plinius::serve::fleet
