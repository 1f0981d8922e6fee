// AES-GCM authenticated encryption (NIST SP 800-38D), 128/192/256-bit keys.
//
// This is the encryption engine the Plinius mirroring module uses (paper
// §IV): every buffer mirrored to PM is encrypted with AES-GCM under a
// 128-bit key and a 16-byte MAC is appended for integrity. IVs are 12 bytes
// from a counter-based crypto::IvSequence (envelope.h: a salt followed by an
// invocation counter, SP 800-38D §8.2.1), so an IV never repeats under one
// key. IV + MAC are 28 bytes of metadata per encrypted buffer, exactly the
// paper's accounting (§VI "CPU and memory overhead").
//
// With AES-NI and a verified PCLMULQDQ, encrypt runs one stitched kernel:
// eight CTR blocks in flight, then GHASH over that ciphertext with H^1..H^8
// precomputed per key and one field reduction per 128 bytes. On CPUs with
// VAES and VPCLMULQDQ (AVX-512) the same kernel runs sixteen blocks per
// iteration with H^1..H^16 and one reduction per 256 bytes. decrypt
// authenticates the whole ciphertext first and runs CTR only on a tag match.
// Without either extension a portable bit-serial path gives identical bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace plinius::crypto {

inline constexpr std::size_t kGcmIvSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;
/// IV + MAC appended to each encrypted buffer (28 B, as in the paper).
inline constexpr std::size_t kSealOverhead = kGcmIvSize + kGcmTagSize;
/// Longest plaintext one call accepts (SP 800-38D §5.2.1.1: 2^39 - 256
/// bits). Past it the 32-bit block counter would wrap into J0.
inline constexpr std::uint64_t kGcmMaxPlaintext = (std::uint64_t{1} << 36) - 32;

/// The GHASH kernel (for AesGcm, also the stitched CTR kernel) a process
/// runs, picked once from the CPU's features. kVaes512 needs VAES,
/// VPCLMULQDQ, AVX-512F/BW, AES-NI and PCLMULQDQ; kClmul8 needs PCLMULQDQ.
/// Both are used only after PCLMULQDQ matched the portable multiply at
/// startup. All three produce identical bytes.
enum class GcmKernel {
  kPortable,  // bit-serial GHASH, byte-oriented AES
  kClmul8,    // eight blocks per GHASH reduction (aesni.cc)
  kVaes512,   // sixteen blocks per GHASH reduction (gcm_kernel_vaes512.cc)
};

/// GHASH accumulator over GF(2^128), absorbing whole-block runs with the
/// process's GcmKernel.
class Ghash {
 public:
  explicit Ghash(const std::uint8_t h[16]);
  ~Ghash();

  Ghash(const Ghash&) = default;
  Ghash& operator=(const Ghash&) = default;

  /// Absorbs data; callers append zero padding themselves where GCM needs it.
  void update(ByteSpan data);

  /// Absorbs data then pads with zeros to a 16-byte boundary.
  void update_padded(ByteSpan data);

  /// Absorbs the final [len(A)]64 || [len(C)]64 length block (lengths in bits).
  void finish_lengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes);

  void digest(std::uint8_t out[16]) const;

 private:
  std::array<std::uint8_t, 16 * 16> h_{};  // H^1..H^16 (H^1 only when bit-serial)
  std::array<std::uint8_t, 16> y_{};
  std::array<std::uint8_t, 16> partial_{};
  std::size_t partial_len_ = 0;
  GcmKernel kernel_ = GcmKernel::kPortable;
};

/// Portable carry-less multiply in the GHASH field; exposed for tests.
void gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16], std::uint8_t out[16]);

class AesGcm {
 public:
  explicit AesGcm(ByteSpan key);
  /// Wipes the hash-subkey powers; `aes_` wipes its round keys.
  ~AesGcm();

  AesGcm(const AesGcm&) = default;
  AesGcm& operator=(const AesGcm&) = default;

  /// Encrypts `plain` with the given 12-byte IV; writes ciphertext (same
  /// length as plain) and the 16-byte tag. Throws CryptoError if `plain`
  /// exceeds kGcmMaxPlaintext or `cipher` is too small.
  void encrypt(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutableByteSpan cipher,
               std::uint8_t tag[kGcmTagSize]) const;

  /// Authenticates, then decrypts. Returns false on MAC mismatch; no
  /// plaintext is written before the tag verifies, and the output is zeroed
  /// on mismatch. Throws CryptoError as encrypt does. `plain` may alias
  /// `cipher` exactly (same first byte): the whole ciphertext is hashed for
  /// the tag first, and every CTR path loads each block before storing it.
  /// Partial overlap is undefined.
  [[nodiscard]] bool decrypt(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                             MutableByteSpan plain,
                             const std::uint8_t tag[kGcmTagSize]) const;

  [[nodiscard]] GcmKernel kernel() const noexcept { return kernel_; }

 private:
  void derive_j0(ByteSpan iv, std::uint8_t j0[16]) const;
  /// Absorbs the length block into `y` and masks it with E_K(J0).
  void finish_tag(const std::uint8_t j0[16], std::uint8_t y[16], std::uint64_t aad_bytes,
                  std::uint64_t ct_bytes, std::uint8_t tag[kGcmTagSize]) const;

  Aes aes_;
  /// Powers H^1..H^16 of the hash subkey H = E_K(0^128); H^1 only when
  /// PCLMUL is unavailable.
  std::array<std::uint8_t, 16 * 16> h_powers_{};
  GcmKernel kernel_ = GcmKernel::kPortable;
};

}  // namespace plinius::crypto
