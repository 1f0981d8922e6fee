// The one sealed-blob store under every PM model format: MirrorModel's layer
// list, PmDataStore's encrypted records, TensorMirror (and through it
// QuantMirror) and the serving fleet's ModelRegistry. Each blob is an AES-GCM
// envelope (crypto/envelope.h: IV || CT || MAC) in the Romulus main region,
// described on PM by one SealedRef. SealedBlobs owns the key and a salted IV
// sequence, and is the one place that knows the envelope format, the order in
// which IVs are drawn, and how sealed bytes move between PM and the enclave;
// each format keeps only its own index layout.
//
// Charges stay with the callers, because the formats order them differently:
// seal, seal_batch, authenticate and the opens of staged envelopes charge
// nothing. Only the primitives that stage sealed bytes into the enclave book
// traffic: stage and stage_in_place charge the PM read and the real-SGX
// copy-in, and open(ref, out) adds the GCM pass on top of stage.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

/// On-PM descriptor of one sealed blob. The field order is part of every
/// entry layout that embeds it.
struct SealedRef {
  std::uint64_t plain_len;   // bytes
  std::uint64_t sealed_off;  // offset of IV||CT||MAC in main
  std::uint64_t sealed_len;
};

class SealedBlobs {
 public:
  /// Draws the IV salt from the enclave RNG.
  SealedBlobs(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm);

  /// Allocates the sealed extent of a `plain_len`-byte blob. Call inside the
  /// caller's transaction.
  [[nodiscard]] SealedRef alloc(std::size_t plain_len);

  /// Throws PmError naming `ctx` unless `ref`'s lengths agree with the
  /// envelope format (a sealed_len below the envelope overhead included) and
  /// its extent lies in main.
  void check(const SealedRef& ref, const char* ctx) const;

  /// Seals `plain` (exactly ref.plain_len bytes) with the next IV straight
  /// into the PM slot at ref.sealed_off (Romulus::tx_fill: the device sees the
  /// ops of tx_store, without a staging copy). Call inside a transaction.
  void seal(const SealedRef& ref, ByteSpan plain);

  /// Seals every `plains[i]` into consecutive envelopes of `out` (exactly the
  /// sum of their sealed sizes). The IVs are drawn in order first, so the
  /// counter stays strictly monotonic; the GCM passes then run in parallel.
  void seal_batch(std::span<const ByteSpan> plains, MutableByteSpan out);

  /// Copies the envelope at `ref` into enclave memory `dst` (exactly
  /// ref.sealed_len bytes), charging the PM read and, on real SGX, the
  /// copy-in. `ref` must have passed check().
  void stage(const SealedRef& ref, MutableByteSpan dst);

  /// Stages the envelope at `ref` split (crypto::split_into): its
  /// ciphertext into `dst` (exactly ref.plain_len bytes) and its IV and MAC
  /// into `trailer`. Charges exactly what stage charges. `ref` must have
  /// passed check().
  void stage_in_place(const SealedRef& ref, MutableByteSpan dst,
                      crypto::EnvelopeTrailer& trailer);

  /// crypto::open_in_place with this key. Charges nothing, and is safe to
  /// call from several threads at once.
  [[nodiscard]] bool open_in_place(const crypto::EnvelopeTrailer& trailer,
                                   MutableByteSpan data) const;

  /// Stages the envelope, charges its GCM pass and authenticates it into
  /// `out` (exactly ref.plain_len bytes). Returns false, with `out` zeroed,
  /// when the MAC does not verify. `ref` must have passed check().
  [[nodiscard]] bool open(const SealedRef& ref, MutableByteSpan out);

  /// Authenticates and decrypts an envelope already in the enclave. Charges
  /// nothing, and is safe to call from several threads at once.
  [[nodiscard]] bool open(ByteSpan sealed, MutableByteSpan out) const;

  /// Copies the envelope at `ref` into `sealed` and checks its MAC, charging
  /// nothing (scrubbers book their own read traffic). `ref` must have passed
  /// check().
  [[nodiscard]] bool authenticate(const SealedRef& ref, Bytes& sealed);

 private:
  /// The PM read and, on real SGX, the copy-in of staging `ref`.
  void charge_stage(const SealedRef& ref);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  crypto::AesGcm gcm_;
  crypto::IvSequence iv_seq_;
  Bytes scratch_;  // open(ref, out)'s staged envelope
  Bytes plain_;    // authenticate's discarded plaintext
};

}  // namespace plinius
