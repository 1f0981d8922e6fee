// The x86 AES-GCM kernels behind GcmKernel::kClmul8 (AES-NI + PCLMULQDQ,
// eight blocks per iteration) and GcmKernel::kVaes512 (VAES + VPCLMULQDQ on
// AVX-512, sixteen blocks per iteration). Both are compiled into every x86-64
// build: each function carries its own target attribute, so this file needs
// no ISA flags. The helpers are inlined into the kernels that call them and
// so compile for the caller's instruction set (VEX/EVEX in the kVaes512
// kernels), giving the instruction streams of per-file ISA flags.
// cpu_gcm_kernel() (aes.h) decides which of them a process may call. The
// sixteen-block kernels' output is bitwise identical to the eight-block ones.
#include <cstring>

#include "crypto/aes.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace plinius::crypto::detail {
namespace {

// --- Shared helpers: 16-byte access, byte order, GHASH product/reduction ---

[[gnu::target("aes,pclmul,sse4.1")]] inline __m128i loadu(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

[[gnu::target("aes,pclmul,sse4.1")]] inline void storeu(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// Reverses the 16 bytes. GCM counters are big-endian and GHASH field
// elements bit-reflected; reversed, both become plain lane arithmetic.
[[gnu::target("aes,pclmul,sse4.1")]] inline __m128i bswap(__m128i v) {
  return _mm_shuffle_epi8(v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

// Unreduced carry-less product lo + mid*x^64 + hi*x^128 of byte-reversed
// field elements.
struct Product {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

// acc += a*b, schoolbook with 4 clmuls and no reduction.
[[gnu::target("aes,pclmul,sse4.1")]] inline void clmul_acc(Product& acc, __m128i a,
                                                           __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                                 _mm_clmulepi64_si128(a, b, 0x01)));
}

// Bit-reflect shift and reduction modulo x^128 + x^7 + x^2 + x + 1. Both are
// linear over XOR, so reducing a sum of products once equals summing the
// individually reduced products.
[[gnu::target("aes,pclmul,sse4.1")]] inline __m128i reduce(const Product& p) {
  const __m128i t0 = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  const __m128i t3 = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));

  // Bit-reflect adjustment: shift the 256-bit product left by one.
  __m128i lo_carry = _mm_srli_epi64(t0, 63);
  __m128i hi_carry = _mm_srli_epi64(t3, 63);
  __m128i lo = _mm_or_si128(_mm_slli_epi64(t0, 1), _mm_slli_si128(lo_carry, 8));
  __m128i cross = _mm_srli_si128(lo_carry, 8);
  __m128i hi = _mm_or_si128(_mm_slli_epi64(t3, 1), _mm_slli_si128(hi_carry, 8));
  hi = _mm_or_si128(hi, cross);

  // Reduction modulo x^128 + x^7 + x^2 + x + 1.
  __m128i v = lo;
  __m128i r = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi64(v, 63), _mm_slli_epi64(v, 62)),
                            _mm_slli_epi64(v, 57));
  v = _mm_xor_si128(v, _mm_slli_si128(r, 8));
  __m128i w = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi64(v, 1), _mm_srli_epi64(v, 2)), _mm_srli_epi64(v, 7));
  // Bits shifted across the 64-bit lane boundary.
  __m128i carry = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi64(v, 63), _mm_slli_epi64(v, 62)), _mm_slli_epi64(v, 57));
  w = _mm_xor_si128(w, _mm_srli_si128(carry, 8));
  return _mm_xor_si128(hi, _mm_xor_si128(v, w));
}

// --- kClmul8: eight blocks per iteration ------------------------------------

[[gnu::target("aes,pclmul,sse4.1")]] inline void load_round_keys(
    const std::uint8_t* rk, int rounds, __m128i rks[15]) {
  for (int r = 0; r <= rounds; ++r) rks[r] = loadu(rk + 16 * r);
}

[[gnu::target("aes,pclmul,sse4.1")]] inline __m128i encrypt_one(
    __m128i block, const __m128i* rks, int rounds) {
  block = _mm_xor_si128(block, rks[0]);
  for (int r = 1; r < rounds; ++r) block = _mm_aesenc_si128(block, rks[r]);
  return _mm_aesenclast_si128(block, rks[rounds]);
}

// Keystream for counters ctr..ctr+n-1, n <= 8. `ctr` is held byte-reversed,
// so the big-endian low word is lane 0 and _mm_add_epi32 steps it mod 2^32
// without touching the IV bytes, exactly like the portable big_endian_inc32.
[[gnu::target("aes,pclmul,sse4.1")]] inline void keystream(
    const __m128i* rks, int rounds, __m128i ctr, __m128i ks[8], int n) {
  for (int i = 0; i < n; ++i) {
    ks[i] = _mm_xor_si128(bswap(_mm_add_epi32(ctr, _mm_set_epi32(0, 0, 0, i))), rks[0]);
  }
  for (int r = 1; r < rounds; ++r) {
    for (int i = 0; i < n; ++i) ks[i] = _mm_aesenc_si128(ks[i], rks[r]);
  }
  for (int i = 0; i < n; ++i) ks[i] = _mm_aesenclast_si128(ks[i], rks[rounds]);
}

[[gnu::target("aes,pclmul,sse4.1")]] inline void load_powers(
    const std::uint8_t* h_powers, __m128i hp[8]) {
  for (int k = 0; k < 8; ++k) hp[k] = bswap(loadu(h_powers + 16 * k));
}

// Absorbs n <= 8 byte-reversed blocks with one reduction:
// y' = (y ^ x0)*H^n ^ x1*H^(n-1) ^ ... ^ x(n-1)*H, where hp[k] = H^(k+1).
[[gnu::target("aes,pclmul,sse4.1")]] inline __m128i ghash_n(
    const __m128i hp[8], __m128i y, const __m128i* x, int n) {
  Product acc;
  clmul_acc(acc, _mm_xor_si128(y, x[0]), hp[n - 1]);
  for (int i = 1; i < n; ++i) clmul_acc(acc, x[i], hp[n - 1 - i]);
  return reduce(acc);
}

[[gnu::target("aes,pclmul,sse4.1")]] inline __m128i ghash_mem(
    const __m128i hp[8], __m128i y, const std::uint8_t* in, int n) {
  __m128i x[8];
  for (int i = 0; i < n; ++i) x[i] = bswap(loadu(in + 16 * i));
  return ghash_n(hp, y, x, n);
}

// --- kVaes512: sixteen blocks per iteration ---------------------------------

constexpr std::size_t kChunk = 256;  // sixteen blocks, four zmm registers

// The all-lanes masked forms below compile to the plain instructions; the
// unmasked intrinsics seed an _mm*_undefined_* operand that GCC 12 reports
// as -Wuninitialized.
constexpr __mmask16 kAllDwords = 0xFFFF;

// Copies a 128-bit block into all four lanes.
[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] inline __m512i
broadcast4(__m128i v) {
  return _mm512_maskz_broadcast_i32x4(kAllDwords, v);
}

// Byte reversal within each 128-bit lane (see bswap).
[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] inline __m512i
bswap4(__m512i v) {
  return _mm512_shuffle_epi8(
      v, broadcast4(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)));
}

// Selects the first `bytes` (0..64) bytes of a zmm register.
inline __mmask64 byte_mask(std::size_t bytes) {
  return bytes >= 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
}

// XOR of the four 128-bit lanes.
[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] inline __m128i
fold_lanes(__m512i v) {
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E));  // lanes 2,3,0,1
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1));  // lanes 1,0,3,2
  return _mm512_maskz_extracti32x4_epi32(0xF, v, 0);
}

struct Keys {
  __m512i rk[15];
  int rounds;
};

[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] inline Keys
load_keys(const std::uint8_t* round_keys, int rounds) {
  Keys k{};
  k.rounds = rounds;
  for (int r = 0; r <= rounds; ++r) k.rk[r] = broadcast4(loadu(round_keys + 16 * r));
  return k;
}

// Keystream for the 4*n blocks ctr+0 .. ctr+4n-1 (n <= 4). `ctr` holds the
// byte-reversed counters ctr+0..ctr+3 in its lanes, so _mm512_add_epi32
// steps each lane's big-endian low word mod 2^32 without touching the IV.
[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] inline void
keystream4(const Keys& k, __m512i ctr, __m512i ks[4], int n) {
  for (int j = 0; j < n; ++j) {
    const __m512i c = _mm512_add_epi32(ctr, _mm512_set_epi32(0, 0, 0, 4 * j, 0, 0, 0, 4 * j, 0,
                                                             0, 0, 4 * j, 0, 0, 0, 4 * j));
    ks[j] = _mm512_xor_si512(bswap4(c), k.rk[0]);
  }
  for (int r = 1; r < k.rounds; ++r) {
    for (int j = 0; j < n; ++j) ks[j] = _mm512_aesenc_epi128(ks[j], k.rk[r]);
  }
  for (int j = 0; j < n; ++j) ks[j] = _mm512_aesenclast_epi128(ks[j], k.rk[k.rounds]);
}

// H^16..H^1, byte-reversed, followed by four zero entries: the n-block
// power run H^n..H^1 starts at entry 16 - n, and a partly filled last
// register reads zeros past H^1.
struct Powers {
  alignas(64) std::uint8_t desc[20 * 16];

  /// `h_powers` is H^1..H^16 in GCM byte order.
  [[gnu::target("aes,pclmul,sse4.1")]] void load(const std::uint8_t* h_powers) {
    for (int i = 0; i < 16; ++i) storeu(desc + 16 * i, bswap(loadu(h_powers + 16 * (15 - i))));
    std::memset(desc + 16 * 16, 0, 4 * 16);
  }
};

// Absorbs n (1..16) byte-reversed blocks held in x[0..3] (zero past block
// n) with one reduction: y' = (y ^ x0)*H^n ^ x1*H^(n-1) ^ ... ^ x(n-1)*H.
// The y*H^n term is a separate 128-bit product, so only it and the
// reduction wait on the previous chunk's y.
[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] inline __m128i
ghash16(const Powers& p, __m128i y, const __m512i x[4], int n) {
  __m512i lo = _mm512_setzero_si512();
  __m512i mid = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();
  for (int j = 0; 4 * j < n; ++j) {
    const __m512i h = _mm512_loadu_si512(p.desc + 16 * (16 - n + 4 * j));
    lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(x[j], h, 0x00));
    hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(x[j], h, 0x11));
    mid = _mm512_ternarylogic_epi64(mid, _mm512_clmulepi64_epi128(x[j], h, 0x10),
                                    _mm512_clmulepi64_epi128(x[j], h, 0x01), 0x96);
  }
  Product prod;
  prod.lo = fold_lanes(lo);
  prod.mid = fold_lanes(mid);
  prod.hi = fold_lanes(hi);
  clmul_acc(prod, y, loadu(p.desc + 16 * (16 - n)));
  return reduce(prod);
}

}  // namespace

// --- kClmul8 entry points ----------------------------------------------------

[[gnu::target("aes,pclmul,sse4.1")]] void aesni_encrypt_blocks(
    const std::uint8_t* round_keys, int rounds, const std::uint8_t* in, std::uint8_t* out,
    std::size_t nblocks) {
  __m128i rks[15];
  load_round_keys(round_keys, rounds, rks);
  for (std::size_t i = 0; i < nblocks; ++i) {
    storeu(out + 16 * i, encrypt_one(loadu(in + 16 * i), rks, rounds));
  }
}

[[gnu::target("aes,pclmul,sse4.1")]] void aesni_ctr_xcrypt(
    const std::uint8_t* round_keys, int rounds, const std::uint8_t counter[16],
    const std::uint8_t* in, std::uint8_t* out, std::size_t len, const std::uint8_t* h_powers,
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

[[gnu::target("aes,pclmul,sse4.1")]] void clmul_gf128_mul(
    const std::uint8_t x[16], const std::uint8_t h[16], std::uint8_t out[16]) {
  Product p;
  clmul_acc(p, bswap(loadu(x)), bswap(loadu(h)));
  storeu(out, bswap(reduce(p)));
}

[[gnu::target("aes,pclmul,sse4.1")]] void clmul_ghash(
    const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
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

// --- kVaes512 entry points ---------------------------------------------------

[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] void vaes512_ctr_xcrypt(
    const std::uint8_t* round_keys, int rounds, const std::uint8_t counter[16],
    const std::uint8_t* in, std::uint8_t* out, std::size_t len, const std::uint8_t* h_powers,
    std::uint8_t* y) {
  const Keys keys = load_keys(round_keys, rounds);
  const bool hash = y != nullptr;
  Powers powers;
  if (hash) powers.load(h_powers);
  __m128i acc = hash ? bswap(loadu(y)) : _mm_setzero_si128();
  __m512i ctr = _mm512_add_epi32(broadcast4(bswap(loadu(counter))),
                                 _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0));
  const __m512i sixteen = _mm512_set_epi32(0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16);

  // 256-byte chunks: sixteen AES blocks in flight, then GHASH over the
  // ciphertext while it is still in registers.
  const std::size_t rem = len % kChunk;
  std::size_t off = 0;
  for (; off < len - rem; off += kChunk) {
    __m512i ks[4], x[4];
    keystream4(keys, ctr, ks, 4);
    ctr = _mm512_add_epi32(ctr, sixteen);
    for (int j = 0; j < 4; ++j) {
      const __m512i c = _mm512_xor_si512(ks[j], _mm512_loadu_si512(in + off + 64 * j));
      _mm512_storeu_si512(out + off + 64 * j, c);
      x[j] = bswap4(c);
    }
    if (hash) acc = ghash16(powers, acc, x, 16);
  }

  // The last 1..255 bytes go through masked loads and stores; the bytes
  // past the end are zero in x, which is GCM's padding for GHASH.
  if (rem > 0) {
    const int n = static_cast<int>((rem + 15) / 16);
    const int regs = (n + 3) / 4;
    __m512i ks[4], x[4] = {};
    keystream4(keys, ctr, ks, regs);
    for (int j = 0; j < regs; ++j) {
      const __mmask64 m = byte_mask(rem - 64 * static_cast<std::size_t>(j));
      const __m512i c = _mm512_xor_si512(ks[j], _mm512_maskz_loadu_epi8(m, in + off + 64 * j));
      _mm512_mask_storeu_epi8(out + off + 64 * j, m, c);
      x[j] = bswap4(_mm512_maskz_mov_epi8(m, c));
    }
    if (hash) acc = ghash16(powers, acc, x, n);
  }
  if (hash) storeu(y, bswap(acc));
}

[[gnu::target("aes,pclmul,avx512f,avx512bw,vaes,vpclmulqdq")]] void vaes512_ghash(
    const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
    std::size_t nblocks) {
  if (nblocks == 0) return;
  Powers powers;
  powers.load(h_powers);
  __m128i acc = bswap(loadu(y));
  const std::size_t tail = nblocks % 16;
  const std::uint8_t* end = in + 16 * (nblocks - tail);
  for (; in < end; in += kChunk) {
    __m512i x[4];
    for (int j = 0; j < 4; ++j) x[j] = bswap4(_mm512_loadu_si512(in + 64 * j));
    acc = ghash16(powers, acc, x, 16);
  }
  if (tail > 0) {
    __m512i x[4] = {};
    for (int j = 0; 4 * j < static_cast<int>(tail); ++j) {
      const __mmask64 m = byte_mask(16 * tail - 64 * static_cast<std::size_t>(j));
      x[j] = bswap4(_mm512_maskz_loadu_epi8(m, in + 64 * j));
    }
    acc = ghash16(powers, acc, x, static_cast<int>(tail));
  }
  storeu(y, bswap(acc));
}

}  // namespace plinius::crypto::detail

#endif  // defined(__x86_64__)
