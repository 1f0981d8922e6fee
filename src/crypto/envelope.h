// Sealed-buffer byte format used for every encrypted object Plinius places
// in PM or on disk: IV (12 B) || ciphertext || MAC (16 B). 28 bytes of
// overhead per buffer, matching the paper's per-buffer accounting.
#pragma once

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/gcm.h"

namespace plinius::crypto {

/// Size of the sealed form of a `plain_size`-byte buffer.
[[nodiscard]] constexpr std::size_t sealed_size(std::size_t plain_size) noexcept {
  return plain_size + kSealOverhead;
}

/// Plaintext size recoverable from a sealed buffer; throws if the buffer is
/// shorter than the fixed overhead.
[[nodiscard]] std::size_t unsealed_size(std::size_t sealed_len);

/// Deterministic GCM IV source: salt (4 B) || monotonic counter (8 B), the
/// NIST SP 800-38D §8.2.1 "fixed field + invocation field" construction.
///
/// A *random* 96-bit IV per seal risks birthday collisions after ~2^48
/// seals and, worse, makes sealed images irreproducible. A counter never
/// repeats within one sequence; the salt separates sequences that share a
/// key (e.g. the same sealing key across process restarts — draw the salt
/// from the enclave RNG via salted()). Collisions now require two
/// sequences on one key to share a salt, a birthday bound over the handful
/// of sequence *instances* rather than over millions of seals.
class IvSequence {
 public:
  explicit IvSequence(std::uint32_t salt = 0) noexcept : salt_(salt) {}

  /// A sequence with a random salt drawn from `rng` (callers pass the
  /// enclave's sgx_read_rand-backed generator).
  [[nodiscard]] static IvSequence salted(Rng& rng) noexcept {
    return IvSequence(static_cast<std::uint32_t>(rng.next()));
  }

  /// Writes the next IV (big-endian salt || counter) into `iv[0..11]` and
  /// advances the counter. Throws CryptoError if the counter would wrap —
  /// 2^64 seals under one key is far past the key's usage limit anyway.
  void next(std::uint8_t iv[kGcmIvSize]);

  [[nodiscard]] std::uint32_t salt() const noexcept { return salt_; }
  /// Number of IVs issued so far (== the next counter value).
  [[nodiscard]] std::uint64_t issued() const noexcept { return counter_; }

 private:
  std::uint32_t salt_;
  std::uint64_t counter_ = 0;
};

/// Encrypts `plain` into `out` (IV || CT || MAC). `ivs` supplies the fresh
/// 12-byte IV; keep one IvSequence per key so IVs never repeat.
void seal_into(const AesGcm& gcm, IvSequence& ivs, ByteSpan plain, MutableByteSpan out);

/// Seals with a caller-supplied IV. For parallel sealing sweeps: draw every
/// IV from one IvSequence *serially* (preserving the per-key strictly
/// monotonic counter), then run the seal_into_iv calls concurrently — the
/// cipher is stateless and const, so tasks only share read-only state.
/// Never pass an IV that did not come from the key's IvSequence.
void seal_into_iv(const AesGcm& gcm, const std::uint8_t iv[kGcmIvSize], ByteSpan plain,
                  MutableByteSpan out);

/// Decrypts `sealed` into `plain`. Returns false (and zeroes `plain`) when
/// the MAC does not verify — i.e. the PM/disk copy was corrupted or tampered.
[[nodiscard]] bool open_into(const AesGcm& gcm, ByteSpan sealed, MutableByteSpan plain);

/// An envelope's IV and MAC, held apart from its ciphertext so that the
/// ciphertext can be decrypted in place.
struct EnvelopeTrailer {
  std::uint8_t iv[kGcmIvSize];
  std::uint8_t tag[kGcmTagSize];
};

/// Splits `sealed`: its ciphertext into `ct` (exactly its plaintext size,
/// typically where the plaintext goes) and its IV and MAC into `trailer`.
void split_into(ByteSpan sealed, MutableByteSpan ct, EnvelopeTrailer& trailer);

/// Authenticates the ciphertext in `data` against `trailer` and decrypts it
/// in place. Returns false (and zeroes `data`) when the MAC does not verify;
/// no plaintext exists before it does.
[[nodiscard]] bool open_in_place(const AesGcm& gcm, const EnvelopeTrailer& trailer,
                                 MutableByteSpan data);

/// Convenience allocating variants.
[[nodiscard]] Bytes seal(const AesGcm& gcm, IvSequence& ivs, ByteSpan plain);
[[nodiscard]] Bytes open(const AesGcm& gcm, ByteSpan sealed);  // throws CryptoError on MAC failure

}  // namespace plinius::crypto
