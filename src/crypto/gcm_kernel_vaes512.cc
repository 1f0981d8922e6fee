// VAES + VPCLMULQDQ (AVX-512) AES-GCM kernels. Sixteen counter blocks run
// per iteration in four zmm registers, and GHASH absorbs those 256 bytes
// with H^16..H^1 and one field reduction. The output is bitwise identical
// to the eight-block kernels in aesni.cc, which remain the fallback.
//
// This translation unit is compiled with -mvaes -mvpclmulqdq -mavx512f
// -mavx512bw when the toolchain supports them; vaes512_supported() checks
// the CPU at run time, so callers dispatch safely on any machine.
#include <cstdlib>
#include <cstring>

#include "crypto/aes.h"

#if defined(__VAES__) && defined(__VPCLMULQDQ__) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AES__) && defined(__PCLMUL__)
#define PLINIUS_VAES512_COMPILED 1
#include <immintrin.h>

#include "crypto/ghash_x86.h"
#else
#define PLINIUS_VAES512_COMPILED 0
#endif

namespace plinius::crypto::detail {

bool vaes512_supported() noexcept {
#if PLINIUS_VAES512_COMPILED
  static const bool ok = __builtin_cpu_supports("vaes") &&
                         __builtin_cpu_supports("vpclmulqdq") &&
                         __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512bw") && aesni_supported() &&
                         clmul_supported();
  return ok;
#else
  return false;
#endif
}

#if PLINIUS_VAES512_COMPILED

namespace {

constexpr std::size_t kChunk = 256;  // sixteen blocks, four zmm registers

// The all-lanes masked forms below compile to the plain instructions; the
// unmasked intrinsics seed an _mm*_undefined_* operand that GCC 12 reports
// as -Wuninitialized.
constexpr __mmask16 kAllDwords = 0xFFFF;

// Copies a 128-bit block into all four lanes.
inline __m512i broadcast4(__m128i v) { return _mm512_maskz_broadcast_i32x4(kAllDwords, v); }

// Byte reversal within each 128-bit lane (see bswap in ghash_x86.h).
inline __m512i bswap4(__m512i v) {
  return _mm512_shuffle_epi8(
      v, broadcast4(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)));
}

// Selects the first `bytes` (0..64) bytes of a zmm register.
inline __mmask64 byte_mask(std::size_t bytes) {
  return bytes >= 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
}

// XOR of the four 128-bit lanes.
inline __m128i fold_lanes(__m512i v) {
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E));  // lanes 2,3,0,1
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1));  // lanes 1,0,3,2
  return _mm512_maskz_extracti32x4_epi32(0xF, v, 0);
}

struct Keys {
  __m512i rk[15];
  int rounds;
};

inline Keys load_keys(const std::uint8_t* round_keys, int rounds) {
  Keys k{};
  k.rounds = rounds;
  for (int r = 0; r <= rounds; ++r) k.rk[r] = broadcast4(loadu(round_keys + 16 * r));
  return k;
}

// Keystream for the 4*n blocks ctr+0 .. ctr+4n-1 (n <= 4). `ctr` holds the
// byte-reversed counters ctr+0..ctr+3 in its lanes, so _mm512_add_epi32
// steps each lane's big-endian low word mod 2^32 without touching the IV.
inline void keystream(const Keys& k, __m512i ctr, __m512i ks[4], int n) {
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
  void load(const std::uint8_t* h_powers) {
    for (int i = 0; i < 16; ++i) storeu(desc + 16 * i, bswap(loadu(h_powers + 16 * (15 - i))));
    std::memset(desc + 16 * 16, 0, 4 * 16);
  }
};

// Absorbs n (1..16) byte-reversed blocks held in x[0..3] (zero past block
// n) with one reduction: y' = (y ^ x0)*H^n ^ x1*H^(n-1) ^ ... ^ x(n-1)*H.
// The y*H^n term is a separate 128-bit product, so only it and the
// reduction wait on the previous chunk's y.
inline __m128i ghash(const Powers& p, __m128i y, const __m512i x[4], int n) {
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

void vaes512_ctr_xcrypt(const std::uint8_t* round_keys, int rounds,
                        const std::uint8_t counter[16], const std::uint8_t* in,
                        std::uint8_t* out, std::size_t len, const std::uint8_t* h_powers,
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
    keystream(keys, ctr, ks, 4);
    ctr = _mm512_add_epi32(ctr, sixteen);
    for (int j = 0; j < 4; ++j) {
      const __m512i c = _mm512_xor_si512(ks[j], _mm512_loadu_si512(in + off + 64 * j));
      _mm512_storeu_si512(out + off + 64 * j, c);
      x[j] = bswap4(c);
    }
    if (hash) acc = ghash(powers, acc, x, 16);
  }

  // The last 1..255 bytes go through masked loads and stores; the bytes
  // past the end are zero in x, which is GCM's padding for GHASH.
  if (rem > 0) {
    const int n = static_cast<int>((rem + 15) / 16);
    const int regs = (n + 3) / 4;
    __m512i ks[4], x[4] = {};
    keystream(keys, ctr, ks, regs);
    for (int j = 0; j < regs; ++j) {
      const __mmask64 m = byte_mask(rem - 64 * static_cast<std::size_t>(j));
      const __m512i c = _mm512_xor_si512(ks[j], _mm512_maskz_loadu_epi8(m, in + off + 64 * j));
      _mm512_mask_storeu_epi8(out + off + 64 * j, m, c);
      x[j] = bswap4(_mm512_maskz_mov_epi8(m, c));
    }
    if (hash) acc = ghash(powers, acc, x, n);
  }
  if (hash) storeu(y, bswap(acc));
}

void vaes512_ghash(const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
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
    acc = ghash(powers, acc, x, 16);
  }
  if (tail > 0) {
    __m512i x[4] = {};
    for (int j = 0; 4 * j < static_cast<int>(tail); ++j) {
      const __mmask64 m = byte_mask(16 * tail - 64 * static_cast<std::size_t>(j));
      x[j] = bswap4(_mm512_maskz_loadu_epi8(m, in + 64 * j));
    }
    acc = ghash(powers, acc, x, static_cast<int>(tail));
  }
  storeu(y, bswap(acc));
}

#else  // !PLINIUS_VAES512_COMPILED

void vaes512_ctr_xcrypt(const std::uint8_t*, int, const std::uint8_t*, const std::uint8_t*,
                        std::uint8_t*, std::size_t, const std::uint8_t*, std::uint8_t*) {
  std::abort();  // unreachable: vaes512_supported() returned false
}
void vaes512_ghash(const std::uint8_t*, std::uint8_t*, const std::uint8_t*, std::size_t) {
  std::abort();
}

#endif

}  // namespace plinius::crypto::detail
