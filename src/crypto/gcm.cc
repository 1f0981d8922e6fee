#include "crypto/gcm.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.h"
#include "common/rng.h"

namespace plinius::crypto {

namespace {

void put_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

void big_endian_inc32(std::uint8_t counter[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

/// Fills H^1..H^16 for the aggregated kernels; bit-serial needs only H.
void derive_h_powers(const std::uint8_t h[16], GcmKernel kernel,
                     std::uint8_t powers[16 * 16]) {
  std::memcpy(powers, h, 16);
  if (kernel == GcmKernel::kPortable) return;
#if defined(__x86_64__)
  for (int k = 1; k < 16; ++k) {
    detail::clmul_gf128_mul(powers + 16 * (k - 1), h, powers + 16 * k);
  }
#endif
}

/// Absorbs `nblocks` whole blocks into the GHASH state `y`.
void ghash_blocks(const std::uint8_t* h_powers, GcmKernel kernel, std::uint8_t y[16],
                  const std::uint8_t* in, std::size_t nblocks) {
#if defined(__x86_64__)
  switch (kernel) {
    case GcmKernel::kVaes512: return detail::vaes512_ghash(h_powers, y, in, nblocks);
    case GcmKernel::kClmul8: return detail::clmul_ghash(h_powers, y, in, nblocks);
    case GcmKernel::kPortable: break;
  }
#endif
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (int i = 0; i < 16; ++i) y[i] ^= in[16 * b + i];
    std::uint8_t t[16];
    gf128_mul(y, h_powers, t);
    std::memcpy(y, t, 16);
  }
}

/// Absorbs `data` zero-padded to a whole number of blocks.
void ghash_padded(const std::uint8_t* h_powers, GcmKernel kernel, std::uint8_t y[16],
                  ByteSpan data) {
  const std::size_t whole = data.size() / 16;
  ghash_blocks(h_powers, kernel, y, data.data(), whole);
  if (const std::size_t rest = data.size() % 16; rest > 0) {
    std::uint8_t last[16] = {};
    std::memcpy(last, data.data() + 16 * whole, rest);
    ghash_blocks(h_powers, kernel, y, last, 1);
  }
}

/// Absorbs the final [len(A)]64 || [len(C)]64 block (lengths in bits).
void ghash_lengths(const std::uint8_t* h_powers, GcmKernel kernel, std::uint8_t y[16],
                   std::uint64_t aad_bytes, std::uint64_t ct_bytes) {
  std::uint8_t block[16];
  put_be64(block, aad_bytes * 8);
  put_be64(block + 8, ct_bytes * 8);
  ghash_blocks(h_powers, kernel, y, block, 1);
}

void check_length(std::size_t n, const char* what) {
  if (n > kGcmMaxPlaintext) {
    throw CryptoError(std::string(what) + ": longer than the SP 800-38D limit");
  }
}

}  // namespace

void gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16], std::uint8_t out[16]) {
  // Bit-serial multiply in the reflected GCM field (SP 800-38D §6.3).
  std::uint64_t z_hi = 0, z_lo = 0;
  std::uint64_t v_hi = (std::uint64_t(h[0]) << 56) | (std::uint64_t(h[1]) << 48) |
                       (std::uint64_t(h[2]) << 40) | (std::uint64_t(h[3]) << 32) |
                       (std::uint64_t(h[4]) << 24) | (std::uint64_t(h[5]) << 16) |
                       (std::uint64_t(h[6]) << 8) | std::uint64_t(h[7]);
  std::uint64_t v_lo = (std::uint64_t(h[8]) << 56) | (std::uint64_t(h[9]) << 48) |
                       (std::uint64_t(h[10]) << 40) | (std::uint64_t(h[11]) << 32) |
                       (std::uint64_t(h[12]) << 24) | (std::uint64_t(h[13]) << 16) |
                       (std::uint64_t(h[14]) << 8) | std::uint64_t(h[15]);

  for (int i = 0; i < 128; ++i) {
    const std::uint8_t bit = (x[i / 8] >> (7 - (i % 8))) & 1;
    if (bit) {
      z_hi ^= v_hi;
      z_lo ^= v_lo;
    }
    const bool lsb = (v_lo & 1) != 0;
    v_lo = (v_lo >> 1) | (v_hi << 63);
    v_hi >>= 1;
    if (lsb) v_hi ^= 0xe100000000000000ULL;  // R = 11100001 || 0^120
  }

  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(z_hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<std::uint8_t>(z_lo >> (56 - 8 * i));
}

GcmKernel detail::cpu_gcm_kernel() noexcept {
#if defined(__x86_64__)
  static const GcmKernel kernel = [] {
    if (!__builtin_cpu_supports("aes") || !__builtin_cpu_supports("pclmul") ||
        !__builtin_cpu_supports("sse4.1")) {
      return GcmKernel::kPortable;
    }
    // A PCLMULQDQ multiply that disagrees with the portable one (say, a
    // miscompiled intrinsic) keeps the process on the portable kernel.
    Rng rng(0xC1A0C1A0ULL);
    for (int trial = 0; trial < 64; ++trial) {
      std::uint8_t x[16], h[16], a[16], b[16];
      rng.fill(x, 16);
      rng.fill(h, 16);
      gf128_mul(x, h, a);
      clmul_gf128_mul(x, h, b);
      if (std::memcmp(a, b, 16) != 0) return GcmKernel::kPortable;
    }
    return __builtin_cpu_supports("vaes") && __builtin_cpu_supports("vpclmulqdq") &&
                   __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
               ? GcmKernel::kVaes512
               : GcmKernel::kClmul8;
  }();
  return kernel;
#else
  return GcmKernel::kPortable;
#endif
}

AesGcm::AesGcm(ByteSpan key) : AesGcm(key, detail::cpu_gcm_kernel()) {}

AesGcm::AesGcm(ByteSpan key, GcmKernel kernel) : aes_(key, kernel) {
  const std::uint8_t zero[16] = {};
  std::uint8_t h[16];
  aes_.encrypt_block(zero, h);
  derive_h_powers(h, kernel, h_powers_.data());
  secure_zero(h, sizeof(h));
}

AesGcm::~AesGcm() { secure_zero(h_powers_.data(), h_powers_.size()); }

void AesGcm::derive_j0(ByteSpan iv, std::uint8_t j0[16]) const {
  if (iv.size() == kGcmIvSize) {
    std::memcpy(j0, iv.data(), 12);
    j0[12] = j0[13] = j0[14] = 0;
    j0[15] = 1;
    return;
  }
  // General-length IV: J0 = GHASH(IV || pad || [0]64 || [len(IV) bits]64).
  std::memset(j0, 0, 16);
  ghash_padded(h_powers_.data(), kernel(), j0, iv);
  std::uint8_t block[16] = {};
  put_be64(block + 8, static_cast<std::uint64_t>(iv.size()) * 8);
  ghash_blocks(h_powers_.data(), kernel(), j0, block, 1);
}

void AesGcm::finish_tag(const std::uint8_t j0[16], std::uint8_t y[16],
                        std::uint64_t aad_bytes, std::uint64_t ct_bytes,
                        std::uint8_t tag[kGcmTagSize]) const {
  ghash_lengths(h_powers_.data(), kernel(), y, aad_bytes, ct_bytes);
  std::uint8_t ekj0[16];
  aes_.encrypt_block(j0, ekj0);
  for (int i = 0; i < 16; ++i) tag[i] = y[i] ^ ekj0[i];
}

void AesGcm::encrypt(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutableByteSpan cipher,
                     std::uint8_t tag[kGcmTagSize]) const {
  check_length(plain.size(), "AesGcm::encrypt");
  if (cipher.size() < plain.size()) throw CryptoError("AesGcm::encrypt: output too small");

  std::uint8_t j0[16];
  derive_j0(iv, j0);
  std::uint8_t ctr[16];
  std::memcpy(ctr, j0, 16);
  big_endian_inc32(ctr);

  std::uint8_t y[16] = {};
  ghash_padded(h_powers_.data(), kernel(), y, aad);
  switch (kernel()) {
#if defined(__x86_64__)
    case GcmKernel::kVaes512:
      detail::vaes512_ctr_xcrypt(aes_.round_keys(), aes_.rounds(), ctr, plain.data(),
                                 cipher.data(), plain.size(), h_powers_.data(), y);
      break;
    case GcmKernel::kClmul8:
      detail::aesni_ctr_xcrypt(aes_.round_keys(), aes_.rounds(), ctr, plain.data(),
                               cipher.data(), plain.size(), h_powers_.data(), y);
      break;
#endif
    default:
      aes_.ctr_xcrypt(ctr, plain, cipher);
      ghash_padded(h_powers_.data(), kernel(), y, ByteSpan(cipher.data(), plain.size()));
  }
  finish_tag(j0, y, aad.size(), plain.size(), tag);
}

bool AesGcm::decrypt(ByteSpan iv, ByteSpan aad, ByteSpan cipher, MutableByteSpan plain,
                     const std::uint8_t tag[kGcmTagSize]) const {
  check_length(cipher.size(), "AesGcm::decrypt");
  if (plain.size() < cipher.size()) throw CryptoError("AesGcm::decrypt: output too small");

  std::uint8_t j0[16];
  derive_j0(iv, j0);

  std::uint8_t y[16] = {};
  ghash_padded(h_powers_.data(), kernel(), y, aad);
  ghash_padded(h_powers_.data(), kernel(), y, cipher);
  std::uint8_t expected[16];
  finish_tag(j0, y, aad.size(), cipher.size(), expected);

  if (!secure_equal(ByteSpan(expected, 16), ByteSpan(tag, kGcmTagSize))) {
    std::fill_n(plain.data(), cipher.size(), std::uint8_t{0});
    return false;
  }

  std::uint8_t ctr[16];
  std::memcpy(ctr, j0, 16);
  big_endian_inc32(ctr);
  aes_.ctr_xcrypt(ctr, cipher, plain);
  return true;
}

}  // namespace plinius::crypto
