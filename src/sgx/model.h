// Cost model for the Intel SGX enclave simulation.
//
// The evaluation-relevant effects of real SGX hardware are:
//   1. enclave transitions (ecall/ocall) cost ~13,100 cycles [Weichbrodt
//      et al., sgx-perf, Middleware'18 — cited by the paper];
//   2. EPC capacity is 93.5 MB usable; once an enclave's working set
//      exceeds it, the kernel driver swaps 4 KiB pages in/out with
//      re-encryption, costing tens of microseconds per fault;
//   3. memory moved across the enclave boundary traverses the memory
//      encryption engine (MEE), so copies into/out of the EPC run well
//      below plain DRAM bandwidth, and in-enclave crypto is slower than
//      native.
// The `hardware` profile models the paper's sgx-emlPM server (real SGX);
// the `simulation` profile models emlSGX-PM (SGX SDK simulation mode:
// no transitions through the CPU microcode, no EPC limit, native speeds).
#pragma once

#include <cstddef>

#include "common/clock.h"

namespace plinius::sgx {

struct SgxCostModel {
  bool real_sgx;
  double cpu_ghz;
  double transition_cycles;       // one boundary crossing (enter or exit)
  std::size_t epc_usable_bytes;   // 0 = unlimited (simulation mode)
  sim::Nanos page_fault_ns;       // EPC page swap: EWB + ELDU + #PF handling
  double epc_copy_in_gib_s;       // DRAM -> EPC through the MEE write path
  double epc_copy_out_gib_s;      // EPC -> DRAM
  double enclave_crypto_gib_s;    // AES-GCM throughput inside the enclave
  double native_crypto_gib_s;     // AES-GCM throughput outside
  sim::Nanos crypto_op_overhead_ns;  // fixed per-call GCM setup (key/J0/tag)
  std::size_t ocall_chunk_bytes;  // edge-buffer granularity for ocall I/O
  // Effective MAC-rate multiplier of the int8 GEMM path over the float
  // path. VPMADDWD retires two int8 MACs per int16 lane where FMA retires
  // one float MAC per float lane, and the narrower operands halve the
  // bandwidth pressure; ~2x is what the blocked kernels in ml/gemm.cc
  // actually deliver (see bench/micro_kernels). Quantized inference compute
  // is charged at compute_macs_per_s * int8_gemm_speedup.
  double int8_gemm_speedup;
  // Number of TCS entries the enclave is built with, i.e. how many threads
  // can execute enclave code concurrently. Parallel phases (sealing sweeps,
  // batch decryption, training compute) advance the simulated clock by the
  // critical path over this many lanes (EnclaveRuntime::charge_parallel).
  // Both profiles default to 1 — the paper's Plinius is single-threaded —
  // so simulated results only shift when a caller raises it explicitly.
  std::size_t tcs_count;

  /// Real SGX hardware (the paper's sgx-emlPM: Xeon E3-1270 @ 3.80 GHz).
  static SgxCostModel hardware(double ghz = 3.8);
  /// SGX SDK simulation mode (the paper's emlSGX-PM: Xeon Gold 5215 @ 2.50 GHz).
  static SgxCostModel simulation(double ghz = 2.5);
};

}  // namespace plinius::sgx
