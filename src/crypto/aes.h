// AES block cipher (FIPS-197), 128/192/256-bit keys.
//
// Plinius' encryption engine (paper §IV) uses AES-GCM from the SGX SDK:
// "AES-GCM uses a 128, 192 or 256 bit key for all cryptographic operations
// ... Plinius uses a 128 bit key." We implement the cipher from scratch for
// all three key sizes: a portable byte-oriented implementation, plus AES-NI
// and VAES kernels (the SGX SDK's crypto is also AES-NI-backed, so this
// mirrors the real deployment). Every kernel is compiled into every x86-64
// build (gcm_x86.cc, each function carrying its own target attribute), and
// one CPUID probe picks the one a process runs. CTR runs sixteen blocks per
// iteration on VAES (AVX-512) CPUs and eight on AES-NI ones.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace plinius::crypto {

/// The AES and GHASH kernels an Aes or AesGcm runs. Ordered: each kernel's
/// CPU requirements include the one before's. All three produce identical
/// bytes, so the choice decides speed only.
enum class GcmKernel {
  kPortable,  // byte-oriented AES, bit-serial GHASH: any CPU
  kClmul8,    // AES-NI + PCLMULQDQ + SSE4.1, eight blocks per GHASH reduction
  kVaes512,   // also VAES, VPCLMULQDQ, AVX-512F/BW: sixteen blocks per reduction
};

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize128 = 16;
  static constexpr std::size_t kKeySize192 = 24;
  static constexpr std::size_t kKeySize256 = 32;
  static constexpr int kMaxRounds = 14;

  /// Expands the key schedule and runs detail::cpu_gcm_kernel(). Throws
  /// CryptoError unless the key is 16, 24 or 32 bytes.
  explicit Aes(ByteSpan key);
  /// Runs `kernel`, which must be runnable on this CPU (one of
  /// detail::runnable_gcm_kernels()). Tests use it to reach every kernel in
  /// one process; production code takes the probe's choice.
  Aes(ByteSpan key, GcmKernel kernel);
  ~Aes();

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;

  [[nodiscard]] int rounds() const noexcept { return rounds_; }
  [[nodiscard]] GcmKernel kernel() const noexcept { return kernel_; }

  /// The expanded encryption key schedule, (rounds() + 1) × 16 bytes, in the
  /// layout the detail kernels below take.
  [[nodiscard]] const std::uint8_t* round_keys() const noexcept {
    return enc_round_keys_.data();
  }

  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

  /// CTR-mode transform (encrypt == decrypt). `counter` is the full 16-byte
  /// initial counter block; the low 32 bits (big-endian) are incremented per
  /// block, as GCM requires.
  void ctr_xcrypt(const std::uint8_t counter[kBlockSize], ByteSpan in,
                  MutableByteSpan out) const;

 private:
  // Round keys stored byte-wise, 16 bytes per round key, rounds_+1 keys.
  std::array<std::uint8_t, kBlockSize*(kMaxRounds + 1)> enc_round_keys_{};
  int rounds_ = 10;
  GcmKernel kernel_ = GcmKernel::kPortable;
};

namespace detail {

/// The widest kernel this CPU runs, probed once per process. kClmul8 and
/// kVaes512 are picked only after PCLMULQDQ matched gf128_mul (gcm.h) on
/// random inputs; otherwise the process stays on kPortable.
[[nodiscard]] GcmKernel cpu_gcm_kernel() noexcept;

/// Every kernel this CPU runs, kPortable first.
[[nodiscard]] inline std::vector<GcmKernel> runnable_gcm_kernels() {
  std::vector<GcmKernel> kernels;
  for (const GcmKernel k : {GcmKernel::kPortable, GcmKernel::kClmul8, GcmKernel::kVaes512}) {
    if (k <= cpu_gcm_kernel()) kernels.push_back(k);
  }
  return kernels;
}

#if defined(__x86_64__)
// The kClmul8 and kVaes512 kernels (gcm_x86.cc). Call them only on a CPU
// whose cpu_gcm_kernel() is at least their kernel.

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
void clmul_gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16],
                     std::uint8_t out[16]);
/// Absorbs `nblocks` whole blocks into the GHASH state `y`, with one
/// reduction per eight blocks (`h_powers` as above).
void clmul_ghash(const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
                 std::size_t nblocks);

/// The two kernels above at sixteen blocks per iteration, with one GHASH
/// reduction per 256 bytes. `h_powers` holds H^1..H^16 here. Output is
/// bitwise identical to the eight-block kernels.
void vaes512_ctr_xcrypt(const std::uint8_t* round_keys, int rounds,
                        const std::uint8_t counter[16], const std::uint8_t* in,
                        std::uint8_t* out, std::size_t len,
                        const std::uint8_t* h_powers = nullptr, std::uint8_t* y = nullptr);
void vaes512_ghash(const std::uint8_t* h_powers, std::uint8_t y[16], const std::uint8_t* in,
                   std::size_t nblocks);
#endif

}  // namespace detail

}  // namespace plinius::crypto
