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

/// One-time verification that the PCLMUL path agrees with the portable field
/// multiply; if it does not (e.g. an exotic compiler miscompiles the
/// intrinsics), the library silently stays on the portable path.
bool clmul_verified() {
  static const bool ok = [] {
    if (!detail::clmul_supported()) return false;
    Rng rng(0xC1A0C1A0ULL);
    for (int trial = 0; trial < 64; ++trial) {
      std::uint8_t x[16], h[16], a[16], b[16];
      rng.fill(x, 16);
      rng.fill(h, 16);
      gf128_mul(x, h, a);
      detail::clmul_gf128_mul(x, h, b);
      if (std::memcmp(a, b, 16) != 0) return false;
    }
    return true;
  }();
  return ok;
}

/// Fills H^1..H^8 for the aggregated PCLMUL kernel; bit-serial needs only H.
void derive_h_powers(const std::uint8_t h[16], bool clmul, std::uint8_t powers[16 * 8]) {
  std::memcpy(powers, h, 16);
  if (!clmul) return;
  for (int k = 1; k < 8; ++k) detail::clmul_gf128_mul(powers + 16 * (k - 1), h, powers + 16 * k);
}

/// Absorbs `nblocks` whole blocks into the GHASH state `y`.
void ghash_blocks(const std::uint8_t* h_powers, bool clmul, std::uint8_t y[16],
                  const std::uint8_t* in, std::size_t nblocks) {
  if (clmul) {
    detail::clmul_ghash(h_powers, y, in, nblocks);
    return;
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (int i = 0; i < 16; ++i) y[i] ^= in[16 * b + i];
    std::uint8_t t[16];
    gf128_mul(y, h_powers, t);
    std::memcpy(y, t, 16);
  }
}

/// Absorbs `data` zero-padded to a whole number of blocks.
void ghash_padded(const std::uint8_t* h_powers, bool clmul, std::uint8_t y[16],
                  ByteSpan data) {
  const std::size_t whole = data.size() / 16;
  ghash_blocks(h_powers, clmul, y, data.data(), whole);
  if (const std::size_t rest = data.size() % 16; rest > 0) {
    std::uint8_t last[16] = {};
    std::memcpy(last, data.data() + 16 * whole, rest);
    ghash_blocks(h_powers, clmul, y, last, 1);
  }
}

/// Absorbs the final [len(A)]64 || [len(C)]64 block (lengths in bits).
void ghash_lengths(const std::uint8_t* h_powers, bool clmul, std::uint8_t y[16],
                   std::uint64_t aad_bytes, std::uint64_t ct_bytes) {
  std::uint8_t block[16];
  put_be64(block, aad_bytes * 8);
  put_be64(block + 8, ct_bytes * 8);
  ghash_blocks(h_powers, clmul, y, block, 1);
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

Ghash::Ghash(const std::uint8_t h[16]) : use_clmul_(clmul_verified()) {
  derive_h_powers(h, use_clmul_, h_.data());
}

Ghash::~Ghash() { secure_zero(h_.data(), h_.size()); }

void Ghash::update(ByteSpan data) {
  std::size_t off = 0;
  if (partial_len_ > 0) {
    const std::size_t need = 16 - partial_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(partial_.data() + partial_len_, data.data(), take);
    partial_len_ += take;
    off += take;
    if (partial_len_ == 16) {
      ghash_blocks(h_.data(), use_clmul_, y_.data(), partial_.data(), 1);
      partial_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - off) / 16;
  ghash_blocks(h_.data(), use_clmul_, y_.data(), data.data() + off, whole);
  off += 16 * whole;
  if (off < data.size()) {
    std::memcpy(partial_.data(), data.data() + off, data.size() - off);
    partial_len_ = data.size() - off;
  }
}

void Ghash::update_padded(ByteSpan data) {
  update(data);
  if (partial_len_ > 0) {
    std::memset(partial_.data() + partial_len_, 0, 16 - partial_len_);
    ghash_blocks(h_.data(), use_clmul_, y_.data(), partial_.data(), 1);
    partial_len_ = 0;
  }
}

void Ghash::finish_lengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes) {
  expects(partial_len_ == 0, "Ghash::finish_lengths: unpadded partial block");
  ghash_lengths(h_.data(), use_clmul_, y_.data(), aad_bytes, ct_bytes);
}

void Ghash::digest(std::uint8_t out[16]) const { std::memcpy(out, y_.data(), 16); }

AesGcm::AesGcm(ByteSpan key) : aes_(key), use_clmul_(clmul_verified()) {
  const std::uint8_t zero[16] = {};
  std::uint8_t h[16];
  aes_.encrypt_block(zero, h);
  derive_h_powers(h, use_clmul_, h_powers_.data());
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
  ghash_padded(h_powers_.data(), use_clmul_, j0, iv);
  std::uint8_t block[16] = {};
  put_be64(block + 8, static_cast<std::uint64_t>(iv.size()) * 8);
  ghash_blocks(h_powers_.data(), use_clmul_, j0, block, 1);
}

void AesGcm::finish_tag(const std::uint8_t j0[16], std::uint8_t y[16],
                        std::uint64_t aad_bytes, std::uint64_t ct_bytes,
                        std::uint8_t tag[kGcmTagSize]) const {
  ghash_lengths(h_powers_.data(), use_clmul_, y, aad_bytes, ct_bytes);
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
  ghash_padded(h_powers_.data(), use_clmul_, y, aad);
  if (use_clmul_ && aes_.use_aesni_) {
    detail::aesni_ctr_xcrypt(aes_.enc_round_keys_.data(), aes_.rounds_, ctr, plain.data(),
                             cipher.data(), plain.size(), h_powers_.data(), y);
  } else {
    aes_.ctr_xcrypt(ctr, plain, cipher);
    ghash_padded(h_powers_.data(), use_clmul_, y, ByteSpan(cipher.data(), plain.size()));
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
  ghash_padded(h_powers_.data(), use_clmul_, y, aad);
  ghash_padded(h_powers_.data(), use_clmul_, y, cipher);
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
