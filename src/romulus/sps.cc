#include "romulus/sps.h"

#include "common/error.h"
#include "common/rng.h"
#include "pm/root_slots.h"
#include "romulus/persist.h"

namespace plinius::romulus {

namespace {
constexpr int kArrayRootSlot = pm::kSpsArrayRootSlot;
}

SpsResult run_sps(Romulus& rom, const SpsConfig& config) {
  expects(config.swaps_per_tx > 0, "SPS: swaps_per_tx must be positive");
  const std::size_t nelems = config.array_bytes / sizeof(std::uint64_t);
  expects(nelems >= 2, "SPS: array too small");

  // Allocate (or reuse) the persistent array, initialized to 0..n-1.
  std::uint64_t array_off = rom.root(kArrayRootSlot);
  if (array_off == 0) {
    rom.run_transaction([&] {
      array_off = rom.pmalloc(nelems * sizeof(std::uint64_t));
      rom.tx_fill(array_off, nelems * sizeof(std::uint64_t), [&](std::uint8_t* dst) {
        auto* elems = reinterpret_cast<std::uint64_t*>(dst);
        for (std::size_t i = 0; i < nelems; ++i) elems[i] = i;
      });
      rom.set_root(kArrayRootSlot, array_off);
    });
  }

  auto* elems = reinterpret_cast<persist<std::uint64_t>*>(rom.main_base() + array_off);
  Rng rng(config.seed);

  const std::uint64_t txns =
      (config.total_swaps + config.swaps_per_tx - 1) / config.swaps_per_tx;

  sim::Stopwatch sw(rom.device().clock());
  std::uint64_t swaps_done = 0;
  for (std::uint64_t t = 0; t < txns; ++t) {
    rom.run_transaction([&] {
      for (std::size_t s = 0; s < config.swaps_per_tx; ++s) {
        const std::size_t i = rng.below(nelems);
        const std::size_t j = rng.below(nelems);
        const std::uint64_t a = elems[i];
        const std::uint64_t b = elems[j];
        elems[i] = b;
        elems[j] = a;
        ++swaps_done;
      }
    });
  }

  SpsResult result;
  result.transactions = txns;
  result.elapsed_ns = sw.elapsed();
  result.swaps_per_second =
      static_cast<double>(swaps_done) / (result.elapsed_ns / 1e9);
  return result;
}

}  // namespace plinius::romulus
