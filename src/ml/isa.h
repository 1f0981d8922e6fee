// The instruction-set band the ml kernels run. Float and int8 GEMM,
// transpose and the im2col/col2im walks pick theirs from this one CPUID
// probe. Every band is compiled into every build: the SIMD kernels are
// x86-64 functions carrying their own target attribute, so no translation
// unit needs ISA flags. All bands compute the same bits, so the probe
// decides speed only. Tests reach the other runnable bands through the
// kernels' detail entry points, which take an Isa.
#pragma once

#include <vector>

namespace plinius::ml::detail {

/// Ordered: each band's CPU requirements include the one before's.
enum class Isa {
  kScalar,  // blocked portable C++, any CPU
  kAvx2,    // AVX2 + FMA
  kAvx512,  // AVX2 + FMA + AVX-512F/BW
};

/// The widest band this CPU runs, probed once per process.
[[nodiscard]] inline Isa cpu_isa() noexcept {
#if defined(__x86_64__)
  static const Isa isa = [] {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return Isa::kScalar;
    }
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
               ? Isa::kAvx512
               : Isa::kAvx2;
  }();
  return isa;
#else
  return Isa::kScalar;
#endif
}

/// Every band this CPU runs, kScalar first.
[[nodiscard]] inline std::vector<Isa> runnable_isas() {
  std::vector<Isa> isas;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (isa <= cpu_isa()) isas.push_back(isa);
  }
  return isas;
}

}  // namespace plinius::ml::detail
