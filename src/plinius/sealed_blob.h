// The one sealed-blob store under TensorMirror (and through it QuantMirror)
// and the serving fleet's ModelRegistry. Each blob is an AES-GCM envelope
// (crypto/envelope.h: IV || CT || MAC) in the Romulus main region, described
// on PM by one SealedRef. SealedBlobs owns the key, a salted IV sequence and
// a staging buffer, so each format keeps only its own index layout. Callers
// charge a seal's ecall, enclave touch and GCM work themselves, because the
// formats order those charges differently; open() books the staging charges
// (PM read, real-SGX copy-in, GCM), which every format shares.
#pragma once

#include <cstdint>

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
  /// envelope format and its extent lies in main.
  void check(const SealedRef& ref, const char* ctx) const;

  /// Seals `plain` (exactly ref.plain_len bytes) with the next IV and
  /// tx_stores the envelope at ref.sealed_off. Call inside a transaction.
  void seal(const SealedRef& ref, ByteSpan plain);

  /// Copies the envelope into the enclave and authenticates it into `out`
  /// (exactly ref.plain_len bytes). Returns false, with `out` zeroed, when
  /// the MAC does not verify. `ref` must have passed check().
  [[nodiscard]] bool open(const SealedRef& ref, MutableByteSpan out);

 private:
  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  crypto::AesGcm gcm_;
  crypto::IvSequence iv_seq_;
  Bytes scratch_;
};

}  // namespace plinius
