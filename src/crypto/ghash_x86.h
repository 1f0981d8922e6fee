// x86 helpers shared by the AES-NI/PCLMULQDQ kernels (aesni.cc) and the
// VAES/VPCLMULQDQ kernels (gcm_kernel_vaes512.cc): unaligned 16-byte access,
// the byte reversal that turns GCM's big-endian counters and bit-reflected
// field elements into lane arithmetic, and the GHASH product and reduction.
// Include it only from a translation unit compiled with -maes -mpclmul
// -msse4.1 (or a superset). Everything here has internal linkage, so each
// kernel TU keeps its own copy built for its own instruction set.
#pragma once

#include <cstdint>

#include <emmintrin.h>
#include <smmintrin.h>
#include <wmmintrin.h>

namespace plinius::crypto::detail {
namespace {

inline __m128i loadu(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void storeu(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// Reverses the 16 bytes. GCM counters are big-endian and GHASH field
// elements bit-reflected; reversed, both become plain lane arithmetic.
inline __m128i bswap(__m128i v) {
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
inline void clmul_acc(Product& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                                 _mm_clmulepi64_si128(a, b, 0x01)));
}

// Bit-reflect shift and reduction modulo x^128 + x^7 + x^2 + x + 1. Both are
// linear over XOR, so reducing a sum of products once equals summing the
// individually reduced products.
inline __m128i reduce(const Product& p) {
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

}  // namespace
}  // namespace plinius::crypto::detail
