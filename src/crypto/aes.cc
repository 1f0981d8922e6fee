#include "crypto/aes.h"

#include <cstring>

#include "common/error.h"

namespace plinius::crypto {

namespace {

// FIPS-197 S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7,
    0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf,
    0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5,
    0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e,
    0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef,
    0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff,
    0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d,
    0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5,
    0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e,
    0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55,
    0x28, 0xdf, 0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

void add_round_key(std::uint8_t state[16], const std::uint8_t* rk) {
  for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
}

void sub_bytes(std::uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

// State is column-major: state[4*c + r] is row r, column c (matches the
// byte order of the input block, as in FIPS-197).
void shift_rows(std::uint8_t s[16]) {
  std::uint8_t t;
  // row 1: rotate left by 1
  t = s[1];
  s[1] = s[5];
  s[5] = s[9];
  s[9] = s[13];
  s[13] = t;
  // row 2: rotate left by 2
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // row 3: rotate left by 3
  t = s[15];
  s[15] = s[11];
  s[11] = s[7];
  s[7] = s[3];
  s[3] = t;
}

void mix_columns(std::uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void big_endian_inc32(std::uint8_t counter[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

}  // namespace

Aes::Aes(ByteSpan key) : Aes(key, detail::cpu_gcm_kernel()) {}

Aes::Aes(ByteSpan key, GcmKernel kernel) : kernel_(kernel) {
  const std::size_t nk = key.size() / 4;  // key words
  if (key.size() != kKeySize128 && key.size() != kKeySize192 &&
      key.size() != kKeySize256) {
    throw CryptoError("Aes: key must be 16, 24 or 32 bytes");
  }
  expects(kernel <= detail::cpu_gcm_kernel(), "Aes: kernel not runnable on this CPU");
  rounds_ = static_cast<int>(nk) + 6;  // 10/12/14

  // FIPS-197 key expansion, stored byte-wise.
  std::memcpy(enc_round_keys_.data(), key.data(), key.size());
  const std::size_t total_words = 4 * static_cast<std::size_t>(rounds_ + 1);
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, &enc_round_keys_[4 * (i - 1)], 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / nk]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    } else if (nk > 6 && i % nk == 4) {
      // AES-256 applies SubWord to every fourth word too.
      for (auto& b : temp) b = kSbox[b];
    }
    for (int b = 0; b < 4; ++b) {
      enc_round_keys_[4 * i + b] =
          static_cast<std::uint8_t>(enc_round_keys_[4 * (i - nk) + b] ^ temp[b]);
    }
  }
}

Aes::~Aes() { secure_zero(enc_round_keys_.data(), enc_round_keys_.size()); }

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
#if defined(__x86_64__)
  if (kernel_ != GcmKernel::kPortable) {
    detail::aesni_encrypt_blocks(enc_round_keys_.data(), rounds_, in, out, 1);
    return;
  }
#endif
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  add_round_key(s, enc_round_keys_.data());
  for (int round = 1; round < rounds_; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, &enc_round_keys_[16 * round]);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, &enc_round_keys_[16 * rounds_]);
  std::memcpy(out, s, 16);
}

void Aes::ctr_xcrypt(const std::uint8_t counter[16], ByteSpan in,
                     MutableByteSpan out) const {
  if (out.size() < in.size()) throw CryptoError("ctr_xcrypt: output too small");
#if defined(__x86_64__)
  switch (kernel_) {
    case GcmKernel::kVaes512:
      detail::vaes512_ctr_xcrypt(enc_round_keys_.data(), rounds_, counter, in.data(),
                                 out.data(), in.size());
      return;
    case GcmKernel::kClmul8:
      detail::aesni_ctr_xcrypt(enc_round_keys_.data(), rounds_, counter, in.data(),
                               out.data(), in.size());
      return;
    case GcmKernel::kPortable:
      break;
  }
#endif
  std::uint8_t ctr[16];
  std::memcpy(ctr, counter, 16);
  std::uint8_t keystream[16];
  std::size_t off = 0;
  while (off < in.size()) {
    encrypt_block(ctr, keystream);
    const std::size_t n = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    big_endian_inc32(ctr);
    off += n;
  }
}

}  // namespace plinius::crypto
