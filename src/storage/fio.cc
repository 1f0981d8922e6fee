#include "storage/fio.h"

#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace plinius::storage {

FioResult run_fio(SimFileSystem& fs, const FioJob& job) {
  expects(job.block_size > 0 && job.file_size % job.block_size == 0,
          "FioJob: file size must be a multiple of the block size");
  const std::size_t nblocks = job.file_size / job.block_size;

  const std::string fname = "fio.dat";
  // Read jobs need pre-existing on-device data; preallocation leaves every
  // page cold so reads hit the device, as after drop_caches.
  SimFile& file = fs.create(fname, job.file_size);
  fs.drop_caches();

  std::vector<std::size_t> order(nblocks);
  std::iota(order.begin(), order.end(), 0);
  if (job.pattern == FioJob::Pattern::kRandom) {
    Rng rng(job.seed);
    for (std::size_t i = nblocks; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
  }

  Bytes block(job.block_size);
  Rng(job.seed ^ 0xF10F10ULL).fill(block.data(), block.size());

  sim::Stopwatch sw(fs.clock());
  for (const std::size_t b : order) {
    const std::size_t offset = b * job.block_size;
    if (job.op == FioJob::Op::kWrite) {
      file.pwrite(offset, block);
      file.fsync();
    } else {
      file.pread(offset, block);
    }
  }

  FioResult result;
  result.elapsed_ns = sw.elapsed();
  result.ios = nblocks;
  result.throughput_mib_s =
      static_cast<double>(job.file_size) / (1024.0 * 1024.0) / (result.elapsed_ns / 1e9);
  fs.remove(fname);
  return result;
}

}  // namespace plinius::storage
