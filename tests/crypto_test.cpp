#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"

namespace plinius::crypto {
namespace {

// Every vector below runs on each kernel this CPU runs
// (detail::runnable_gcm_kernels(), kPortable first), in one process.
const char* kernel_name(GcmKernel k) {
  return k == GcmKernel::kPortable ? "portable" : k == GcmKernel::kClmul8 ? "clmul8" : "vaes512";
}

// H^1..H^16 by repeated gf128_mul, the layout the aggregated kernels take.
struct HPowers {
  explicit HPowers(const std::uint8_t h[16]) {
    std::memcpy(p, h, 16);
    for (int k = 1; k < 16; ++k) gf128_mul(p + 16 * (k - 1), h, p + 16 * k);
  }
  std::uint8_t p[16 * 16];
};

void portable_ghash(const std::uint8_t* h, std::uint8_t y[16], const std::uint8_t* in,
                    std::size_t len) {
  for (std::size_t off = 0; off < len; off += 16) {
    for (std::size_t i = 0; i < 16 && off + i < len; ++i) y[i] ^= in[off + i];
    std::uint8_t t[16];
    gf128_mul(y, h, t);
    std::memcpy(y, t, 16);
  }
}

// Absorbs `nblocks` whole blocks into `y` through `kernel`'s GHASH entry
// point; the portable one is one bit-serial gf128_mul per block.
void kernel_ghash(GcmKernel kernel, const std::uint8_t* h_powers, std::uint8_t y[16],
                  const std::uint8_t* in, std::size_t nblocks) {
  switch (kernel) {
    case GcmKernel::kPortable: portable_ghash(h_powers, y, in, 16 * nblocks); return;
#if defined(__x86_64__)
    case GcmKernel::kClmul8: detail::clmul_ghash(h_powers, y, in, nblocks); return;
    case GcmKernel::kVaes512: detail::vaes512_ghash(h_powers, y, in, nblocks); return;
#else
    default: FAIL() << "no x86 kernels in this build";
#endif
  }
}

// --- AES (FIPS-197 / NIST test vectors) ------------------------------------

TEST(Aes128, Fips197AppendixB) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes plain = from_hex("3243f6a8885a308d313198a2e0370734");
  const Bytes expected = from_hex("3925841d02dc09fbdc118597196a0b32");
  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    const Aes aes(key, kernel);
    std::uint8_t out[16];
    aes.encrypt_block(plain.data(), out);
    EXPECT_EQ(to_hex(ByteSpan(out, 16)), to_hex(expected)) << kernel_name(kernel);
  }
}

TEST(Aes128, NistEcbVector) {
  // NIST SP 800-38A F.1.1 ECB-AES128 block #1.
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes plain = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Bytes expected = from_hex("3ad77bb40d7a3660a89ecaf32466ef97");
  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    const Aes aes(key, kernel);
    std::uint8_t out[16];
    aes.encrypt_block(plain.data(), out);
    EXPECT_EQ(to_hex(ByteSpan(out, 16)), to_hex(expected)) << kernel_name(kernel);
  }
}

TEST(Aes, Fips197AppendixC_AllKeySizes) {
  const Bytes plain = from_hex("00112233445566778899aabbccddeeff");
  struct Case {
    const char* key;
    const char* expected;
    int rounds;
  };
  const Case cases[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a", 10},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191", 12},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089", 14},
  };
  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    for (const auto& c : cases) {
      const Aes aes(from_hex(c.key), kernel);
      EXPECT_EQ(aes.rounds(), c.rounds);
      std::uint8_t out[16];
      aes.encrypt_block(plain.data(), out);
      EXPECT_EQ(to_hex(ByteSpan(out, 16)), c.expected) << kernel_name(kernel);
    }
  }
}

TEST(Aes, Gcm256NistTestCase16) {
  const Bytes key = from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const Bytes iv = from_hex("cafebabefacedbaddecaf888");
  const Bytes plain = from_hex(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes expect_ct = from_hex(
      "522dc1f099567d07f47f37a32a84427d"
      "643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838"
      "c5f61e6393ba7a0abcc9f662");
  const Bytes expect_tag = from_hex("76fc6ece0f4e1768cddf8853bb2d551b");

  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    SCOPED_TRACE(kernel_name(kernel));
    const AesGcm gcm(key, kernel);
    Bytes ct(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, aad, plain, ct, tag);
    EXPECT_EQ(to_hex(ct), to_hex(expect_ct));
    EXPECT_EQ(to_hex(ByteSpan(tag, 16)), to_hex(expect_tag));
    Bytes back(plain.size());
    EXPECT_TRUE(gcm.decrypt(iv, aad, ct, back, tag));
    EXPECT_EQ(back, plain);
  }
}

TEST(Aes, RejectsInvalidKeySizes) {
  EXPECT_THROW(Aes{Bytes(15)}, CryptoError);
  EXPECT_THROW(Aes{Bytes(20)}, CryptoError);
  EXPECT_THROW(Aes{Bytes(33)}, CryptoError);
  EXPECT_NO_THROW(Aes{Bytes(24)});
}

TEST(Aes128, RejectsWrongKeySize) {
  const Bytes short_key(8);
  EXPECT_THROW(Aes a{ByteSpan(short_key)}, CryptoError);
}

TEST(Aes128, CtrMatchesNistVector) {
  // NIST SP 800-38A F.5.1 CTR-AES128.
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes ctr = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes expected = from_hex(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee");
  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    const Aes aes(key, kernel);
    Bytes out(plain.size());
    aes.ctr_xcrypt(ctr.data(), plain, out);
    EXPECT_EQ(to_hex(out), to_hex(expected)) << kernel_name(kernel);
  }
}

TEST(Aes128, CtrIsAnInvolution) {
  Rng rng(2);
  Bytes key(16), ctr(16);
  rng.fill(key.data(), 16);
  rng.fill(ctr.data(), 16);
  const Aes aes(key);
  // Odd length exercises the partial-block tail.
  Bytes plain(1000 + 13);
  rng.fill(plain.data(), plain.size());
  Bytes ct(plain.size()), back(plain.size());
  aes.ctr_xcrypt(ctr.data(), plain, ct);
  aes.ctr_xcrypt(ctr.data(), ct, back);
  EXPECT_EQ(plain, back);
  EXPECT_NE(plain, ct);
}

// --- GHASH / GF(2^128) ------------------------------------------------------

TEST(Ghash, PortableMatchesClmulWhenAvailable) {
  // A one-block GHASH from y = 0 is the product x*H, on every kernel.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::uint8_t x[16], h[16], a[16];
    rng.fill(x, 16);
    rng.fill(h, 16);
    gf128_mul(x, h, a);
    const HPowers powers(h);
    for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
      std::uint8_t y[16] = {};
      kernel_ghash(kernel, powers.p, y, x, 1);
      ASSERT_EQ(0, memcmp(a, y, 16)) << kernel_name(kernel) << ", trial " << i;
    }
#if defined(__x86_64__)
    if (detail::cpu_gcm_kernel() >= GcmKernel::kClmul8) {
      std::uint8_t b[16];
      detail::clmul_gf128_mul(x, h, b);
      ASSERT_EQ(0, memcmp(a, b, 16)) << "clmul_gf128_mul, trial " << i;
    }
#endif
  }
}

TEST(Ghash, MultiplyByZeroIsZero) {
  std::uint8_t x[16], h[16] = {}, out[16];
  Rng(4).fill(x, 16);
  gf128_mul(x, h, out);
  for (const auto b : out) EXPECT_EQ(b, 0);
}

// --- AES-GCM (NIST GCM test vectors) ----------------------------------------

TEST(AesGcm, NistTestCase3) {
  // McGrew & Viega GCM spec, test case 3 (AES-128, 12-byte IV, no AAD).
  const Bytes key = from_hex("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = from_hex("cafebabefacedbaddecaf888");
  const Bytes plain = from_hex(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b391aafd255");
  const Bytes expect_ct = from_hex(
      "42831ec2217774244b7221b784d0d49c"
      "e3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa05"
      "1ba30b396a0aac973d58e091473f5985");
  const Bytes expect_tag = from_hex("4d5c2af327cd64a62cf35abd2ba6fab4");

  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    SCOPED_TRACE(kernel_name(kernel));
    const AesGcm gcm(key, kernel);
    Bytes ct(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, {}, plain, ct, tag);
    EXPECT_EQ(to_hex(ct), to_hex(expect_ct));
    EXPECT_EQ(to_hex(ByteSpan(tag, 16)), to_hex(expect_tag));

    Bytes back(plain.size());
    EXPECT_TRUE(gcm.decrypt(iv, {}, ct, back, tag));
    EXPECT_EQ(back, plain);
  }
}

TEST(AesGcm, NistTestCase4WithAad) {
  // Test case 4: AAD present, truncated plaintext.
  const Bytes key = from_hex("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = from_hex("cafebabefacedbaddecaf888");
  const Bytes plain = from_hex(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes expect_ct = from_hex(
      "42831ec2217774244b7221b784d0d49c"
      "e3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa05"
      "1ba30b396a0aac973d58e091");
  const Bytes expect_tag = from_hex("5bc94fbc3221a5db94fae95ae7121a47");

  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    SCOPED_TRACE(kernel_name(kernel));
    const AesGcm gcm(key, kernel);
    Bytes ct(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, aad, plain, ct, tag);
    EXPECT_EQ(to_hex(ct), to_hex(expect_ct));
    EXPECT_EQ(to_hex(ByteSpan(tag, 16)), to_hex(expect_tag));
  }
}

TEST(AesGcm, EmptyPlaintextProducesTagOnly) {
  // Test case 1: all-zero key, empty everything.
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  AesGcm gcm(key);
  std::uint8_t tag[16];
  gcm.encrypt(iv, {}, {}, {}, tag);
  EXPECT_EQ(to_hex(ByteSpan(tag, 16)), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcm, TamperedCiphertextRejected) {
  Rng rng(6);
  Bytes key(16), iv(12);
  rng.fill(key.data(), 16);
  rng.fill(iv.data(), 12);
  Bytes plain(777);
  rng.fill(plain.data(), plain.size());

  AesGcm gcm(key);
  Bytes ct(plain.size());
  std::uint8_t tag[16];
  gcm.encrypt(iv, {}, plain, ct, tag);

  ct[100] ^= 0x01;
  Bytes back(plain.size(), 0xAA);
  EXPECT_FALSE(gcm.decrypt(iv, {}, ct, back, tag));
  // Output must be scrubbed on failure.
  for (const auto b : back) EXPECT_EQ(b, 0);
}

TEST(AesGcm, TamperedTagRejected) {
  Rng rng(7);
  Bytes key(16), iv(12), plain(64);
  rng.fill(key.data(), 16);
  rng.fill(iv.data(), 12);
  rng.fill(plain.data(), plain.size());

  AesGcm gcm(key);
  Bytes ct(plain.size());
  std::uint8_t tag[16];
  gcm.encrypt(iv, {}, plain, ct, tag);
  tag[0] ^= 0x80;
  Bytes back(plain.size());
  EXPECT_FALSE(gcm.decrypt(iv, {}, ct, back, tag));
}

TEST(AesGcm, WrongAadRejected) {
  Rng rng(8);
  Bytes key(16), iv(12), plain(64);
  rng.fill(key.data(), 16);
  rng.fill(iv.data(), 12);
  rng.fill(plain.data(), plain.size());
  const Bytes aad1 = {1, 2, 3};
  const Bytes aad2 = {1, 2, 4};

  AesGcm gcm(key);
  Bytes ct(plain.size());
  std::uint8_t tag[16];
  gcm.encrypt(iv, aad1, plain, ct, tag);
  Bytes back(plain.size());
  EXPECT_FALSE(gcm.decrypt(iv, aad2, ct, back, tag));
  EXPECT_TRUE(gcm.decrypt(iv, aad1, ct, back, tag));
}

TEST(AesGcm, NonTwelveByteIvSupported) {
  Rng rng(9);
  Bytes key(16), iv(17), plain(100);
  rng.fill(key.data(), 16);
  rng.fill(iv.data(), iv.size());
  rng.fill(plain.data(), plain.size());
  AesGcm gcm(key);
  Bytes ct(plain.size());
  std::uint8_t tag[16];
  gcm.encrypt(iv, {}, plain, ct, tag);
  Bytes back(plain.size());
  EXPECT_TRUE(gcm.decrypt(iv, {}, ct, back, tag));
  EXPECT_EQ(back, plain);
}

TEST(AesGcm, RejectsLengthsPastSp80038dLimit) {
  const Bytes key(16, 0x11), iv(12, 0x22);
  AesGcm gcm(key);
  std::uint8_t tiny[16] = {}, tag[16] = {};
  // Spans claiming more bytes than exist: the limit check must throw before
  // a single byte is read or written (ASan would catch a touch).
  const std::size_t oversize = kGcmMaxPlaintext + 1;
  const ByteSpan huge_in(tiny, oversize);
  const MutableByteSpan huge_out(tiny, oversize);
  EXPECT_THROW(gcm.encrypt(iv, {}, huge_in, huge_out, tag), CryptoError);
  EXPECT_THROW((void)gcm.decrypt(iv, {}, huge_in, huge_out, tag), CryptoError);
  for (const auto b : tiny) EXPECT_EQ(b, 0);
}

TEST(AesGcm, CopySurvivesOriginalsDestruction) {
  const Bytes key(16, 0x33), iv(12, 0x44), plain(200, 0x55);
  Bytes ct1(plain.size()), ct2(plain.size());
  std::uint8_t tag1[16], tag2[16];
  auto original = std::make_unique<AesGcm>(key);
  original->encrypt(iv, {}, plain, ct1, tag1);
  const AesGcm copy = *original;
  original.reset();  // wipes the original's round keys and H powers
  copy.encrypt(iv, {}, plain, ct2, tag2);
  EXPECT_EQ(ct1, ct2);
  EXPECT_EQ(0, memcmp(tag1, tag2, 16));
}

// --- Differential: the 8-block kernels against a one-block-at-a-time oracle -

void oracle_inc32(std::uint8_t counter[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

void oracle_put_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

// Textbook SP 800-38D: one portable Aes::encrypt_block per counter block and
// one bit-serial gf128_mul per GHASH block, with no batching anywhere.
struct GcmOracle {
  explicit GcmOracle(ByteSpan key) : aes(key, GcmKernel::kPortable) {
    const std::uint8_t zero[16] = {};
    aes.encrypt_block(zero, h);
  }
  void ghash(std::uint8_t y[16], ByteSpan data) const {
    for (std::size_t off = 0; off < data.size(); off += 16) {
      for (std::size_t i = 0; i < 16 && off + i < data.size(); ++i) y[i] ^= data[off + i];
      std::uint8_t t[16];
      gf128_mul(y, h, t);
      std::memcpy(y, t, 16);
    }
  }
  void seal(ByteSpan iv, ByteSpan aad, ByteSpan plain, std::uint8_t* ct,
            std::uint8_t tag[16]) const {
    std::uint8_t j0[16] = {}, block[16] = {};
    if (iv.size() == 12) {
      std::memcpy(j0, iv.data(), 12);
      j0[15] = 1;
    } else {
      ghash(j0, iv);
      oracle_put_be64(block + 8, iv.size() * 8);
      ghash(j0, ByteSpan(block, 16));
    }
    std::uint8_t ctr[16], ks[16];
    std::memcpy(ctr, j0, 16);
    for (std::size_t off = 0; off < plain.size(); off += 16) {
      oracle_inc32(ctr);
      aes.encrypt_block(ctr, ks);
      for (std::size_t i = 0; i < 16 && off + i < plain.size(); ++i) {
        ct[off + i] = plain[off + i] ^ ks[i];
      }
    }
    std::uint8_t y[16] = {};
    ghash(y, aad);
    ghash(y, ByteSpan(ct, plain.size()));
    oracle_put_be64(block, aad.size() * 8);
    oracle_put_be64(block + 8, plain.size() * 8);
    ghash(y, ByteSpan(block, 16));
    aes.encrypt_block(j0, ks);
    for (int i = 0; i < 16; ++i) tag[i] = y[i] ^ ks[i];
  }
  Aes aes;
  std::uint8_t h[16];
};

// Seals `plain` through the library with the input at byte offset `in_off`
// and the output at `out_off` of their buffers (the same buffer when
// `in_place`), checks ciphertext and tag bitwise against the oracle, then
// opens it back the same way.
void expect_matches_oracle(const AesGcm& gcm, const GcmOracle& oracle, ByteSpan iv,
                           ByteSpan aad, ByteSpan plain, std::size_t in_off = 0,
                           std::size_t out_off = 0, bool in_place = false) {
  Bytes want(plain.size());
  std::uint8_t want_tag[16], tag[16];
  oracle.seal(iv, aad, plain, want.data(), want_tag);

  Bytes in_buf(plain.size() + 16), out_buf(plain.size() + 16);
  if (in_place) out_off = in_off;
  std::uint8_t* in = in_buf.data() + in_off;
  std::uint8_t* out = (in_place ? in_buf.data() : out_buf.data()) + out_off;
  std::copy(plain.begin(), plain.end(), in);
  gcm.encrypt(iv, aad, ByteSpan(in, plain.size()), MutableByteSpan(out, plain.size()), tag);
  ASSERT_TRUE(std::equal(want.begin(), want.end(), out))
      << "ciphertext, len " << plain.size() << " aad " << aad.size() << " iv " << iv.size();
  ASSERT_EQ(0, memcmp(tag, want_tag, 16))
      << "tag, len " << plain.size() << " aad " << aad.size() << " iv " << iv.size();

  std::uint8_t* back = in_place ? out : in;
  ASSERT_TRUE(gcm.decrypt(iv, aad, ByteSpan(out, plain.size()),
                          MutableByteSpan(back, plain.size()), tag));
  ASSERT_TRUE(std::equal(plain.begin(), plain.end(), back)) << "open, len " << plain.size();
}

TEST(AesGcm, MatchesOracleAtEveryLengthAndAadTo300) {
  Rng rng(30);
  for (const std::size_t key_size : {16u, 32u}) {
    Bytes key(key_size), iv(12), data(300 + 40);
    rng.fill(key.data(), key.size());
    rng.fill(iv.data(), iv.size());
    rng.fill(data.data(), data.size());
    const AesGcm gcm(key);
    const GcmOracle oracle(key);
    for (std::size_t len = 0; len <= 300; ++len) {
      for (std::size_t aad = 0; aad <= 40; ++aad) {
        expect_matches_oracle(gcm, oracle, iv, ByteSpan(data.data() + len, aad),
                              ByteSpan(data.data(), len));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(AesGcm, MatchesOracleWithNonTwelveByteIvs) {
  Rng rng(31);
  Bytes key(16), iv(64), data(300);
  rng.fill(key.data(), key.size());
  rng.fill(iv.data(), iv.size());
  rng.fill(data.data(), data.size());
  const AesGcm gcm(key);
  const GcmOracle oracle(key);
  for (const std::size_t iv_len : {1u, 8u, 11u, 13u, 16u, 17u, 33u, 64u}) {
    for (std::size_t len = 0; len <= 300; len += 7) {
      expect_matches_oracle(gcm, oracle, ByteSpan(iv.data(), iv_len),
                            ByteSpan(data.data(), len % 41), ByteSpan(data.data(), len));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(AesGcm, MatchesOracleAtUnalignedAndInPlaceBuffers) {
  Rng rng(32);
  Bytes key(16), iv(12), data(300);
  rng.fill(key.data(), key.size());
  rng.fill(iv.data(), iv.size());
  rng.fill(data.data(), data.size());
  const AesGcm gcm(key);
  const GcmOracle oracle(key);
  for (std::size_t len = 0; len <= 300; ++len) {
    const ByteSpan aad(data.data(), len % 41);
    for (std::size_t in_off = 1; in_off <= 15; ++in_off) {
      const std::size_t out_off = 16 - in_off;
      expect_matches_oracle(gcm, oracle, iv, aad, ByteSpan(data.data(), len), in_off, out_off);
      expect_matches_oracle(gcm, oracle, iv, aad, ByteSpan(data.data(), len), in_off, 0,
                            /*in_place=*/true);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(AesGcm, MatchesOracleOnMegabyteBuffers) {
  Rng rng(33);
  Bytes key(16), iv(12), aad(20);
  rng.fill(key.data(), key.size());
  rng.fill(iv.data(), iv.size());
  rng.fill(aad.data(), aad.size());
  const AesGcm gcm(key);
  const GcmOracle oracle(key);
  for (const std::size_t len : {std::size_t{1} << 20, std::size_t{16} << 20}) {
    Bytes plain(len);
    rng.fill(plain.data(), plain.size());
    expect_matches_oracle(gcm, oracle, iv, aad, plain, 3, 5);
  }
}

TEST(AesGcm, TagOfChunkAlignedLengthPlusTailMatchesOracle) {
  // 128-byte chunks are the stitched kernel's unit; 1..15 tail bytes take
  // the zero-padded last-block path right after a full chunk.
  Rng rng(34);
  Bytes key(16), iv(12), data(3 * 128 + 15);
  rng.fill(key.data(), key.size());
  rng.fill(iv.data(), iv.size());
  rng.fill(data.data(), data.size());
  const AesGcm gcm(key);
  const GcmOracle oracle(key);
  for (std::size_t chunks = 1; chunks <= 3; ++chunks) {
    for (std::size_t tail = 1; tail <= 15; ++tail) {
      expect_matches_oracle(gcm, oracle, iv, {}, ByteSpan(data.data(), 128 * chunks + tail));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(AesGcm, TamperedCiphertextLeavesPlainAllZero) {
  Rng rng(35);
  Bytes key(16), iv(12);
  rng.fill(key.data(), key.size());
  rng.fill(iv.data(), iv.size());
  const AesGcm gcm(key);
  for (const std::size_t len : {1u, 16u, 127u, 128u, 129u, 1000u, 4099u}) {
    Bytes plain(len), ct(len);
    rng.fill(plain.data(), plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, {}, plain, ct, tag);
    ct[len - 1] ^= 0x40;
    Bytes back(len, 0xAA);
    EXPECT_FALSE(gcm.decrypt(iv, {}, ct, back, tag));
    EXPECT_TRUE(std::all_of(back.begin(), back.end(), [](std::uint8_t b) { return b == 0; }))
        << "len " << len;
  }
  // An empty message with a forged tag: nothing to zero, and no null write.
  const std::uint8_t forged[16] = {};
  EXPECT_FALSE(gcm.decrypt(iv, {}, {}, {}, forged));
}

TEST(Aes128, CtrWrapsLowWordModulo2To32) {
  Rng rng(36);
  Bytes key(16), ctr(16), plain(20 * 16 + 9);
  rng.fill(key.data(), key.size());
  rng.fill(ctr.data(), ctr.size());
  rng.fill(plain.data(), plain.size());
  ctr[12] = ctr[13] = ctr[14] = 0xFF;
  ctr[15] = 0xFA;  // the low word wraps after 6 blocks
  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    SCOPED_TRACE(kernel_name(kernel));
    const Aes aes(key, kernel);
    Bytes out(plain.size());
    aes.ctr_xcrypt(ctr.data(), plain, out);

    std::uint8_t block[16], ks[16];
    std::memcpy(block, ctr.data(), 16);
    for (std::size_t off = 0; off < plain.size(); off += 16) {
      aes.encrypt_block(block, ks);
      for (std::size_t i = 0; i < 16 && off + i < plain.size(); ++i) {
        ASSERT_EQ(out[off + i], plain[off + i] ^ ks[i]) << "block " << off / 16;
      }
      oracle_inc32(block);
    }
    EXPECT_EQ(0, memcmp(block, ctr.data(), 12)) << "the wrap must not carry into the IV";
  }
}

TEST(Ghash, EveryHPowerMatchesRepeatedGf128Mul) {
  // A run of n blocks that is zero except for the field's one (0x80 0...)
  // at block j hashes from y = 0 to H^(n-j): it reads the precomputed power
  // straight out of each aggregated kernel.
  Rng rng(38);
  std::uint8_t h[16];
  rng.fill(h, 16);
  const HPowers powers(h);  // powers.p + 16 * (k - 1) is H^k
  for (const GcmKernel kernel : detail::runnable_gcm_kernels()) {
    for (int n = 1; n <= 16; ++n) {
      for (int j = 0; j < n; ++j) {
        Bytes run(16 * static_cast<std::size_t>(n), 0);
        run[16 * static_cast<std::size_t>(j)] = 0x80;
        std::uint8_t y[16] = {};
        kernel_ghash(kernel, powers.p, y, run.data(), static_cast<std::size_t>(n));
        EXPECT_EQ(0, memcmp(y, powers.p + 16 * (n - j - 1), 16))
            << kernel_name(kernel) << ": H^" << n - j << " via a " << n << "-block run";
      }
    }
  }
}

// --- GCM kernels, cross-checked at the detail entry points ------------------
//
// Each kernel this CPU runs seals (CTR, then GHASH of the zero-padded output
// into y) and hashes (GHASH of whole blocks). The portable path — one
// portable encrypt_block per counter and one bit-serial gf128_mul per block
// — runs everywhere and is the reference.

struct KernelKey {
  explicit KernelKey(ByteSpan key) : aes(key, GcmKernel::kPortable) {
    const std::uint8_t zero[16] = {};
    aes.encrypt_block(zero, powers);
    for (int k = 1; k < 16; ++k) gf128_mul(powers + 16 * (k - 1), powers, powers + 16 * k);
  }
  Aes aes;
  std::uint8_t powers[16 * 16];  // H^1..H^16
};

// CTR from `counter` over `len` bytes; with a non-null `y`, also GHASH of
// the output. In-place (in == out) is allowed.
void kernel_seal(GcmKernel kernel, const KernelKey& k, const std::uint8_t counter[16],
                 const std::uint8_t* in, std::uint8_t* out, std::size_t len,
                 std::uint8_t* y) {
  switch (kernel) {
    case GcmKernel::kPortable: {
      std::uint8_t ctr[16], ks[16];
      std::memcpy(ctr, counter, 16);
      for (std::size_t off = 0; off < len; off += 16) {
        k.aes.encrypt_block(ctr, ks);
        for (std::size_t i = 0; i < 16 && off + i < len; ++i) out[off + i] = in[off + i] ^ ks[i];
        oracle_inc32(ctr);
      }
      if (y != nullptr) portable_ghash(k.powers, y, out, len);
      return;
    }
#if defined(__x86_64__)
    case GcmKernel::kClmul8:
      detail::aesni_ctr_xcrypt(k.aes.round_keys(), k.aes.rounds(), counter, in, out, len,
                               k.powers, y);
      return;
    case GcmKernel::kVaes512:
      detail::vaes512_ctr_xcrypt(k.aes.round_keys(), k.aes.rounds(), counter, in, out, len,
                                 k.powers, y);
      return;
#else
    default: FAIL() << "no x86 kernels in this build";
#endif
  }
}

// Seals and hashes `plain` with each of `kernels`, input at byte `in_off`
// and output at `out_off` of their buffers (the same buffer when
// `in_place`), and expects each to match the first, the reference, bitwise:
// the CTR output with and without GHASH, the stitched y, and the GHASH-only y.
void expect_kernels_agree(const KernelKey& k, const std::uint8_t counter[16],
                          const std::uint8_t y0[16], ByteSpan plain, std::size_t in_off = 0,
                          std::size_t out_off = 0, bool in_place = false,
                          const std::vector<GcmKernel>& kernels = detail::runnable_gcm_kernels()) {
  const GcmKernel reference = kernels.front();
  const std::size_t len = plain.size();
  Bytes want(len);
  std::uint8_t want_y[16], want_hash[16];
  std::memcpy(want_y, y0, 16);
  std::memcpy(want_hash, y0, 16);
  kernel_seal(reference, k, counter, plain.data(), want.data(), len, want_y);
  kernel_ghash(reference, k.powers, want_hash, plain.data(), len / 16);

  for (const GcmKernel kernel : kernels) {
    if (kernel == reference) continue;
    SCOPED_TRACE(testing::Message() << kernel_name(kernel) << ", len " << len << ", in_off "
                                    << in_off << ", out_off " << out_off
                                    << (in_place ? ", in place" : ""));
    for (const bool hash : {true, false}) {
      Bytes in_buf(len + 16), out_buf(len + 16);
      std::uint8_t* in = in_buf.data() + in_off;
      std::uint8_t* out = in_place ? in : out_buf.data() + out_off;
      std::copy(plain.begin(), plain.end(), in);
      std::uint8_t y[16];
      std::memcpy(y, y0, 16);
      kernel_seal(kernel, k, counter, in, out, len, hash ? y : nullptr);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), out)) << "ciphertext";
      if (hash) {
        ASSERT_EQ(0, std::memcmp(y, want_y, 16)) << "stitched GHASH";
      }
    }
    Bytes in_buf(len + 16);
    std::copy(plain.begin(), plain.end(), in_buf.begin() + static_cast<std::ptrdiff_t>(in_off));
    std::uint8_t y[16];
    std::memcpy(y, y0, 16);
    kernel_ghash(kernel, k.powers, y, in_buf.data() + in_off, len / 16);
    ASSERT_EQ(0, std::memcmp(y, want_hash, 16)) << "GHASH-only";
  }
}

TEST(GcmKernels, EveryLengthTo1100MatchesAcrossKernels) {
  Rng rng(40);
  for (const std::size_t key_size : {16u, 32u}) {
    Bytes key(key_size), data(1100);
    rng.fill(key.data(), key.size());
    rng.fill(data.data(), data.size());
    const KernelKey k(key);
    for (std::size_t len = 0; len <= 1100; ++len) {
      std::uint8_t counter[16], y0[16];
      rng.fill(counter, 16);
      rng.fill(y0, 16);
      expect_kernels_agree(k, counter, y0, ByteSpan(data.data(), len));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(GcmKernels, UnalignedAndInPlaceBuffersMatchAcrossKernels) {
  Rng rng(41);
  Bytes key(16), data(1100);
  rng.fill(key.data(), key.size());
  rng.fill(data.data(), data.size());
  const KernelKey k(key);
  for (const std::size_t len : {1u, 15u, 16u, 17u, 127u, 128u, 129u, 255u, 256u, 257u, 300u,
                                511u, 512u, 513u, 1023u, 1100u}) {
    std::uint8_t counter[16], y0[16];
    rng.fill(counter, 16);
    rng.fill(y0, 16);
    for (std::size_t in_off = 0; in_off <= 15; ++in_off) {
      expect_kernels_agree(k, counter, y0, ByteSpan(data.data(), len), in_off,
                           (16 - in_off) % 16);
      expect_kernels_agree(k, counter, y0, ByteSpan(data.data(), len), in_off, 0,
                           /*in_place=*/true);
      if (HasFatalFailure()) return;
    }
  }
  // One in-place pass above a megabyte, a restored parameter buffer's size.
  Bytes big((std::size_t{1} << 20) + 33);
  rng.fill(big.data(), big.size());
  std::uint8_t counter[16], y0[16];
  rng.fill(counter, 16);
  rng.fill(y0, 16);
  expect_kernels_agree(k, counter, y0, big, 3, 0, /*in_place=*/true);
}

TEST(GcmKernels, FortyMegabyteBufferMatchesAcrossKernels) {
  // A mirror-sized seal: 163840 full 256-byte chunks plus a 33-byte tail.
  // The eight-block kernel is the reference where it runs (the tests above
  // pin it to the portable one); bit-serial GHASH over 40 MB takes seconds.
  std::vector<GcmKernel> kernels = detail::runnable_gcm_kernels();
  if (kernels.size() > 1) kernels.erase(kernels.begin());
  Rng rng(42);
  Bytes key(16), plain((std::size_t{40} << 20) + 33);
  rng.fill(key.data(), key.size());
  rng.fill(plain.data(), plain.size());
  std::uint8_t counter[16], y0[16];
  rng.fill(counter, 16);
  rng.fill(y0, 16);
  expect_kernels_agree(KernelKey(key), counter, y0, plain, 3, 5, /*in_place=*/false,
                       kernels);
}

TEST(GcmKernels, CounterLowWordWrapsModulo2To32) {
  Rng rng(43);
  Bytes key(16), data(4099);
  rng.fill(key.data(), key.size());
  rng.fill(data.data(), data.size());
  const KernelKey k(key);
  for (const std::size_t len : {16u * 16, 16u * 40 + 5, 1100u, 4099u}) {
    std::uint8_t counter[16], y0[16];
    rng.fill(counter, 16);
    rng.fill(y0, 16);
    counter[12] = counter[13] = counter[14] = 0xFF;
    counter[15] = 0xF0;  // the low word wraps after 16 blocks, inside a chunk
    expect_kernels_agree(k, counter, y0, ByteSpan(data.data(), len));
    if (HasFatalFailure()) return;
  }
}

TEST(GcmKernels, AesGcmPicksTheKernelForThisCpu) {
  // kClmul8 needs AES-NI, PCLMULQDQ and SSE4.1 together; kVaes512 also
  // VAES, VPCLMULQDQ and AVX-512F/BW.
  bool clmul8 = false;
  bool vaes512 = false;
#if defined(__x86_64__)
  clmul8 = __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  vaes512 = clmul8 && __builtin_cpu_supports("vaes") &&
            __builtin_cpu_supports("vpclmulqdq") && __builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512bw");
#endif
  const GcmKernel want = vaes512 ? GcmKernel::kVaes512
                         : clmul8 ? GcmKernel::kClmul8
                                  : GcmKernel::kPortable;
  const Bytes key(16, 0x5A);
  const AesGcm gcm(key);
  EXPECT_EQ(gcm.kernel(), want) << "vaes512 " << vaes512 << ", clmul8 " << clmul8;
  EXPECT_EQ(Aes(key).kernel(), want);
  const std::vector<GcmKernel> runnable = detail::runnable_gcm_kernels();
  ASSERT_EQ(runnable.size(), static_cast<std::size_t>(want) + 1);
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    EXPECT_EQ(runnable[i], static_cast<GcmKernel>(i));
  }
  RecordProperty("gcm_kernel", static_cast<int>(gcm.kernel()));
}

// decrypt's in-place contract (gcm.h) on the kernel this CPU picks: plain
// aliasing cipher gives the out-of-place plaintext, and a flipped tag or
// ciphertext byte leaves the whole span zero. The mirror restores every
// parameter buffer this way. Every kernel's CTR runs in place in
// GcmKernels.UnalignedAndInPlaceBuffersMatchAcrossKernels.
TEST(AesGcm, InPlaceDecryptMatchesOutOfPlace) {
  Rng rng(36);
  Bytes key(16), iv(12);
  rng.fill(key.data(), key.size());
  rng.fill(iv.data(), iv.size());
  const AesGcm gcm(key);
  const auto all_zero = [](const Bytes& b) {
    return std::all_of(b.begin(), b.end(), [](std::uint8_t v) { return v == 0; });
  };
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{255}, std::size_t{256}, std::size_t{257},
        std::size_t{4097}, (std::size_t{1} << 20) + 33}) {
    SCOPED_TRACE(testing::Message() << kernel_name(gcm.kernel()) << ", len " << len);
    Bytes plain(len), ct(len);
    rng.fill(plain.data(), plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, {}, plain, ct, tag);

    Bytes out(len);
    ASSERT_TRUE(gcm.decrypt(iv, {}, ct, out, tag));
    Bytes in_place = ct;
    ASSERT_TRUE(gcm.decrypt(iv, {}, in_place, in_place, tag));
    EXPECT_TRUE(in_place == out);
    EXPECT_TRUE(in_place == plain);

    std::uint8_t bad_tag[16];
    std::memcpy(bad_tag, tag, 16);
    bad_tag[len % 16] ^= 0x01;
    in_place = ct;
    EXPECT_FALSE(gcm.decrypt(iv, {}, in_place, in_place, bad_tag));
    EXPECT_TRUE(all_zero(in_place)) << "flipped tag";

    in_place = ct;
    in_place[len / 2] ^= 0x80;
    EXPECT_FALSE(gcm.decrypt(iv, {}, in_place, in_place, tag));
    EXPECT_TRUE(all_zero(in_place)) << "flipped ciphertext";
  }
}

// --- Envelope (IV || CT || MAC, the paper's 28-byte overhead) ---------------

TEST(Envelope, OverheadIs28Bytes) {
  EXPECT_EQ(kSealOverhead, 28u);
  EXPECT_EQ(sealed_size(100), 128u);
  EXPECT_EQ(unsealed_size(128), 100u);
  EXPECT_THROW((void)unsealed_size(27), CryptoError);
}

TEST(Envelope, RoundTrip) {
  Rng rng(10);
  Bytes key(16);
  rng.fill(key.data(), 16);
  AesGcm gcm(key);
  Bytes plain(12345);
  rng.fill(plain.data(), plain.size());

  IvSequence iv_seq(11);
  const Bytes sealed = seal(gcm, iv_seq, plain);
  EXPECT_EQ(sealed.size(), plain.size() + 28);
  EXPECT_EQ(open(gcm, sealed), plain);
}

TEST(Envelope, FreshIvPerSeal) {
  Rng rng(12);
  IvSequence iv_seq(13);
  Bytes key(16), plain(32);
  rng.fill(key.data(), 16);
  rng.fill(plain.data(), plain.size());
  AesGcm gcm(key);
  const Bytes s1 = seal(gcm, iv_seq, plain);
  const Bytes s2 = seal(gcm, iv_seq, plain);
  // Same plaintext, different IV => different ciphertext.
  EXPECT_NE(s1, s2);
}

TEST(Envelope, OpenThrowsOnCorruption) {
  Rng rng(14);
  IvSequence iv_seq(15);
  Bytes key(16), plain(64);
  rng.fill(key.data(), 16);
  rng.fill(plain.data(), plain.size());
  AesGcm gcm(key);
  Bytes sealed = seal(gcm, iv_seq, plain);
  sealed[20] ^= 0xFF;
  EXPECT_THROW(open(gcm, sealed), CryptoError);
}

TEST(Envelope, SplitThenOpenInPlaceMatchesOpenInto) {
  Rng rng(19);
  IvSequence iv_seq(20);
  Bytes key(16), plain(1000);
  rng.fill(key.data(), 16);
  rng.fill(plain.data(), plain.size());
  AesGcm gcm(key);
  const Bytes sealed = seal(gcm, iv_seq, plain);

  EnvelopeTrailer trailer;
  Bytes data(plain.size());
  split_into(sealed, data, trailer);
  EXPECT_EQ(0, std::memcmp(trailer.iv, sealed.data(), kGcmIvSize));
  EXPECT_EQ(0, std::memcmp(trailer.tag, sealed.data() + kGcmIvSize + plain.size(),
                           kGcmTagSize));
  ASSERT_TRUE(open_in_place(gcm, trailer, data));
  EXPECT_EQ(data, plain);

  split_into(sealed, data, trailer);
  trailer.tag[3] ^= 0x10;
  EXPECT_FALSE(open_in_place(gcm, trailer, data));
  EXPECT_TRUE(std::all_of(data.begin(), data.end(), [](std::uint8_t v) { return v == 0; }));

  Bytes short_ct(plain.size() - 1);
  EXPECT_THROW(split_into(sealed, short_ct, trailer), CryptoError);
}

TEST(Envelope, WrongKeyFails) {
  Rng rng(16);
  IvSequence iv_seq(17);
  Bytes key1(16), key2(16), plain(64);
  rng.fill(key1.data(), 16);
  rng.fill(key2.data(), 16);
  rng.fill(plain.data(), plain.size());
  AesGcm gcm1(key1), gcm2(key2);
  const Bytes sealed = seal(gcm1, iv_seq, plain);
  EXPECT_THROW(open(gcm2, sealed), CryptoError);
}

TEST(Envelope, IvSequenceNeverRepeatsAcrossSeals) {
  // Satellite #4: the sealed envelope's first kGcmIvSize bytes are the IV.
  // Two seals under the same sequence must never share one.
  Rng rng(18);
  Bytes key(16), plain(48);
  rng.fill(key.data(), 16);
  rng.fill(plain.data(), plain.size());
  AesGcm gcm(key);
  IvSequence iv_seq(0xA5A5A5A5u);
  std::set<Bytes> ivs;
  for (int i = 0; i < 256; ++i) {
    const Bytes sealed = seal(gcm, iv_seq, plain);
    ASSERT_GE(sealed.size(), kGcmIvSize);
    Bytes iv(sealed.begin(), sealed.begin() + kGcmIvSize);
    EXPECT_TRUE(ivs.insert(std::move(iv)).second) << "IV reused at seal " << i;
  }
  EXPECT_EQ(iv_seq.issued(), 256u);
}

TEST(Envelope, IvSequenceLayoutIsSaltThenCounter) {
  // NIST SP 800-38D deterministic construction: fixed field (salt, 4B BE)
  // followed by the invocation counter (8B BE).
  IvSequence iv_seq(0x01020304u);
  std::uint8_t iv[kGcmIvSize];
  iv_seq.next(iv);
  const std::uint8_t expect0[kGcmIvSize] = {1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(std::memcmp(iv, expect0, kGcmIvSize), 0);
  iv_seq.next(iv);
  const std::uint8_t expect1[kGcmIvSize] = {1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(std::memcmp(iv, expect1, kGcmIvSize), 0);
  EXPECT_EQ(iv_seq.salt(), 0x01020304u);
  EXPECT_EQ(iv_seq.issued(), 2u);
}

TEST(Envelope, SaltedSequencesFromDistinctRngsDiffer) {
  Rng a(21), b(22);
  const IvSequence sa = IvSequence::salted(a);
  const IvSequence sb = IvSequence::salted(b);
  EXPECT_NE(sa.salt(), sb.salt());
}

// --- SHA-256 / HMAC ----------------------------------------------------------

TEST(Sha256, EmptyString) {
  const auto d = Sha256::hash({});
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  const auto d = Sha256::hash(ByteSpan(abc, 3));
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const std::string msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const auto d = Sha256::hash(ByteSpan(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                       msg.size()));
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(18);
  Bytes data(1000);
  rng.fill(data.data(), data.size());
  const auto one = Sha256::hash(data);

  Sha256 h;
  h.update(ByteSpan(data.data(), 1));
  h.update(ByteSpan(data.data() + 1, 62));
  h.update(ByteSpan(data.data() + 63, 937));
  std::uint8_t d2[32];
  h.final(d2);
  EXPECT_EQ(0, memcmp(one.data(), d2, 32));
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  std::uint8_t d[32];
  h.final(d);
  EXPECT_EQ(to_hex(ByteSpan(d, 32)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = hmac_sha256(
      key, ByteSpan(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(ByteSpan(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      ByteSpan(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      ByteSpan(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(ByteSpan(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, ByteSpan(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(ByteSpan(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DeriveKey, DistinctInfoDistinctKeys) {
  const Bytes master(16, 0x42);
  Bytes k1(16), k2(16);
  const std::string info1 = "seal", info2 = "mac";
  derive_key(master, ByteSpan(reinterpret_cast<const std::uint8_t*>(info1.data()),
                              info1.size()),
             k1);
  derive_key(master, ByteSpan(reinterpret_cast<const std::uint8_t*>(info2.data()),
                              info2.size()),
             k2);
  EXPECT_NE(k1, k2);
  Bytes too_long(64);
  EXPECT_THROW(derive_key(master, ByteSpan{}, too_long), Error);
}

}  // namespace
}  // namespace plinius::crypto
