// AES-NI / PCLMULQDQ fast paths. This translation unit is compiled with
// -maes -mpclmul -msse4.1 when the toolchain supports those flags; every
// entry point double-checks CPU support at runtime, so calling code can
// dispatch safely on any machine.
#include <cstdlib>
#include <cstring>

#include "crypto/aes.h"

#if defined(__AES__) && defined(__PCLMUL__)
#define PLINIUS_AESNI_COMPILED 1
#include "crypto/ghash_x86.h"
#else
#define PLINIUS_AESNI_COMPILED 0
#endif

namespace plinius::crypto::detail {

bool aesni_supported() noexcept {
#if PLINIUS_AESNI_COMPILED
  static const bool ok = __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
  return ok;
#else
  return false;
#endif
}

bool clmul_supported() noexcept {
#if PLINIUS_AESNI_COMPILED
  static const bool ok = __builtin_cpu_supports("pclmul");
  return ok;
#else
  return false;
#endif
}

#if PLINIUS_AESNI_COMPILED

namespace {

inline void load_round_keys(const std::uint8_t* rk, int rounds, __m128i rks[15]) {
  for (int r = 0; r <= rounds; ++r) rks[r] = loadu(rk + 16 * r);
}

inline __m128i encrypt_one(__m128i block, const __m128i* rks, int rounds) {
  block = _mm_xor_si128(block, rks[0]);
  for (int r = 1; r < rounds; ++r) block = _mm_aesenc_si128(block, rks[r]);
  return _mm_aesenclast_si128(block, rks[rounds]);
}

// Keystream for counters ctr..ctr+n-1, n <= 8. `ctr` is held byte-reversed,
// so the big-endian low word is lane 0 and _mm_add_epi32 steps it mod 2^32
// without touching the IV bytes, exactly like the portable big_endian_inc32.
inline void keystream(const __m128i* rks, int rounds, __m128i ctr, __m128i ks[8], int n) {
  for (int i = 0; i < n; ++i) {
    ks[i] = _mm_xor_si128(bswap(_mm_add_epi32(ctr, _mm_set_epi32(0, 0, 0, i))), rks[0]);
  }
  for (int r = 1; r < rounds; ++r) {
    for (int i = 0; i < n; ++i) ks[i] = _mm_aesenc_si128(ks[i], rks[r]);
  }
  for (int i = 0; i < n; ++i) ks[i] = _mm_aesenclast_si128(ks[i], rks[rounds]);
}

inline void load_powers(const std::uint8_t* h_powers, __m128i hp[8]) {
  for (int k = 0; k < 8; ++k) hp[k] = bswap(loadu(h_powers + 16 * k));
}

// Absorbs n <= 8 byte-reversed blocks with one reduction:
// y' = (y ^ x0)*H^n ^ x1*H^(n-1) ^ ... ^ x(n-1)*H, where hp[k] = H^(k+1).
inline __m128i ghash_n(const __m128i hp[8], __m128i y, const __m128i* x, int n) {
  Product acc;
  clmul_acc(acc, _mm_xor_si128(y, x[0]), hp[n - 1]);
  for (int i = 1; i < n; ++i) clmul_acc(acc, x[i], hp[n - 1 - i]);
  return reduce(acc);
}

inline __m128i ghash_mem(const __m128i hp[8], __m128i y, const std::uint8_t* in, int n) {
  __m128i x[8];
  for (int i = 0; i < n; ++i) x[i] = bswap(loadu(in + 16 * i));
  return ghash_n(hp, y, x, n);
}

}  // namespace

void aesni_encrypt_blocks(const std::uint8_t* round_keys, int rounds,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks) {
  __m128i rks[15];
  load_round_keys(round_keys, rounds, rks);
  for (std::size_t i = 0; i < nblocks; ++i) {
    storeu(out + 16 * i, encrypt_one(loadu(in + 16 * i), rks, rounds));
  }
}

void aesni_ctr_xcrypt(const std::uint8_t* round_keys, int rounds,
                      const std::uint8_t counter[16], const std::uint8_t* in,
                      std::uint8_t* out, std::size_t len, const std::uint8_t* h_powers,
                      std::uint8_t* y) {
  __m128i rks[15];
  load_round_keys(round_keys, rounds, rks);
  __m128i hp[8];
  __m128i acc = _mm_setzero_si128();
  if (y != nullptr) {
    load_powers(h_powers, hp);
    acc = bswap(loadu(y));
  }
  __m128i ctr = bswap(loadu(counter));
  const __m128i eight = _mm_set_epi32(0, 0, 0, 8);

  // 128-byte chunks: eight AES blocks in flight, then GHASH over the
  // ciphertext while it is still in registers.
  const std::size_t rem = len % 128;
  std::size_t off = 0;
  for (; off < len - rem; off += 128) {
    __m128i ks[8], x[8];
    keystream(rks, rounds, ctr, ks, 8);
    ctr = _mm_add_epi32(ctr, eight);
    for (int i = 0; i < 8; ++i) {
      const __m128i c = _mm_xor_si128(ks[i], loadu(in + off + 16 * i));
      storeu(out + off + 16 * i, c);
      x[i] = bswap(c);
    }
    if (y != nullptr) acc = ghash_n(hp, acc, x, 8);
  }

  // The last 1..127 bytes go through a stack chunk, zero-padded for GHASH.
  if (rem > 0) {
    const int n = static_cast<int>((rem + 15) / 16);
    alignas(16) std::uint8_t buf[128] = {};
    std::memcpy(buf, in + off, rem);
    __m128i ks[8];
    keystream(rks, rounds, ctr, ks, n);
    for (int i = 0; i < n; ++i) storeu(buf + 16 * i, _mm_xor_si128(ks[i], loadu(buf + 16 * i)));
    std::memset(buf + rem, 0, 16 * n - rem);
    std::memcpy(out + off, buf, rem);
    if (y != nullptr) acc = ghash_mem(hp, acc, buf, n);
  }
  if (y != nullptr) storeu(y, bswap(acc));
}

void clmul_gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16],
                     std::uint8_t out[16]) {
  Product p;
  clmul_acc(p, bswap(loadu(x)), bswap(loadu(h)));
  storeu(out, bswap(reduce(p)));
}

void clmul_ghash(const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
                 std::size_t nblocks) {
  if (nblocks == 0) return;
  __m128i hp[8];
  load_powers(h_powers, hp);
  __m128i acc = bswap(loadu(y));
  const std::size_t tail = nblocks % 8;
  for (std::size_t b = 0; b < nblocks - tail; b += 8) acc = ghash_mem(hp, acc, in + 16 * b, 8);
  if (tail > 0) acc = ghash_mem(hp, acc, in + 16 * (nblocks - tail), static_cast<int>(tail));
  storeu(y, bswap(acc));
}

#else  // !PLINIUS_AESNI_COMPILED

void aesni_encrypt_blocks(const std::uint8_t*, int, const std::uint8_t*, std::uint8_t*,
                          std::size_t) {
  std::abort();  // unreachable: aesni_supported() returned false
}
void aesni_ctr_xcrypt(const std::uint8_t*, int, const std::uint8_t*,
                      const std::uint8_t*, std::uint8_t*, std::size_t, const std::uint8_t*,
                      std::uint8_t*) {
  std::abort();
}
void clmul_gf128_mul(const std::uint8_t*, const std::uint8_t*, std::uint8_t*) {
  std::abort();
}
void clmul_ghash(const std::uint8_t*, std::uint8_t*, const std::uint8_t*, std::size_t) {
  std::abort();
}

#endif

}  // namespace plinius::crypto::detail
