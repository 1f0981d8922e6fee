// AES block cipher (FIPS-197), 128/192/256-bit keys.
//
// Plinius' encryption engine (paper §IV) uses AES-GCM from the SGX SDK:
// "AES-GCM uses a 128, 192 or 256 bit key for all cryptographic operations
// ... Plinius uses a 128 bit key." We implement the cipher from scratch for
// all three key sizes: a portable byte-oriented implementation that is
// always available, plus an AES-NI fast path used automatically when the
// CPU supports it (the SGX SDK's crypto is also AES-NI-backed, so this
// mirrors the real deployment).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace plinius::crypto {

class AesGcm;

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize128 = 16;
  static constexpr std::size_t kKeySize192 = 24;
  static constexpr std::size_t kKeySize256 = 32;
  static constexpr int kMaxRounds = 14;

  /// Expands the key schedule. Throws CryptoError unless the key is 16, 24
  /// or 32 bytes.
  explicit Aes(ByteSpan key);
  ~Aes();

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;

  [[nodiscard]] int rounds() const noexcept { return rounds_; }

  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;
  void decrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

  /// CTR-mode transform (encrypt == decrypt). `counter` is the full 16-byte
  /// initial counter block; the low 32 bits (big-endian) are incremented per
  /// block, as GCM requires.
  void ctr_xcrypt(const std::uint8_t counter[kBlockSize], ByteSpan in,
                  MutableByteSpan out) const;

  /// True when the AES-NI fast path is active for this process.
  static bool hw_accelerated() noexcept;

 private:
  friend class AesGcm;  // drives the stitched CTR+GHASH kernel with these keys

  // Round keys stored byte-wise, 16 bytes per round key, rounds_+1 keys.
  std::array<std::uint8_t, kBlockSize*(kMaxRounds + 1)> enc_round_keys_{};
  int rounds_ = 10;
  bool use_aesni_ = false;
};

/// Backwards-compatible name for the 128-bit configuration Plinius uses.
using Aes128 = Aes;

namespace detail {
// Implemented in aesni.cc (compiled with -maes -mpclmul); fallbacks in
// aes.cc keep the library linking on CPUs/toolchains without the extensions.
bool aesni_supported() noexcept;
void aesni_encrypt_blocks(const std::uint8_t* round_keys, int rounds,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks);
/// CTR transform, eight blocks in flight. With a non-null `y` it is also the
/// stitched GCM encrypt: the output, zero-padded to whole blocks, is absorbed
/// into the GHASH state `y` using `h_powers` = H^1..H^8 (GCM byte order).
void aesni_ctr_xcrypt(const std::uint8_t* round_keys, int rounds,
                      const std::uint8_t counter[16], const std::uint8_t* in,
                      std::uint8_t* out, std::size_t len,
                      const std::uint8_t* h_powers = nullptr, std::uint8_t* y = nullptr);
bool clmul_supported() noexcept;
void clmul_gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16],
                     std::uint8_t out[16]);
/// Absorbs `nblocks` whole blocks into the GHASH state `y`, with one
/// reduction per eight blocks (`h_powers` as above).
void clmul_ghash(const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
                 std::size_t nblocks);
}  // namespace detail

}  // namespace plinius::crypto
