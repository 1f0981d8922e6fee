// FIO-style workload engine (paper Fig. 2).
//
// Reproduces the paper's characterization run: "512 MB file per thread,
// 4 KB block size. Write workloads issue an fsync for each written block",
// sync I/O engine, sequential and random patterns, on each storage stack.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "storage/filesystem.h"

namespace plinius::storage {

struct FioJob {
  enum class Op { kRead, kWrite };
  enum class Pattern { kSequential, kRandom };

  Op op = Op::kRead;
  Pattern pattern = Pattern::kSequential;
  std::size_t file_size = 512ULL * 1024 * 1024;
  std::size_t block_size = 4096;
  std::uint64_t seed = 1;
};

struct FioResult {
  double throughput_mib_s = 0;
  sim::Nanos elapsed_ns = 0;
  std::size_t ios = 0;
};

/// Runs the job against a fresh file on `fs`, charging simulated time, and
/// reports throughput in simulated MiB/s.
FioResult run_fio(SimFileSystem& fs, const FioJob& job);

}  // namespace plinius::storage
