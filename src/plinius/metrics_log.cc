#include "plinius/metrics_log.h"

namespace plinius {

MetricsLog::MetricsLog(romulus::Romulus& rom)
    : PmRecordLog(rom, kRootSlot, 0x504C4D4554524943ULL /* "PLMETRIC" */, "MetricsLog",
                  /*compact_when_full=*/false) {}

void MetricsLog::truncate_after(std::uint64_t iteration) {
  const Header hdr = header();
  std::uint64_t keep = hdr.count;
  while (keep > 0 && read_record(hdr, keep - 1).iteration > iteration) --keep;
  if (keep != hdr.count) set_count(keep);
}

RecoveryLog::RecoveryLog(romulus::Romulus& rom)
    : PmRecordLog(rom, kRootSlot, 0x504C5245434F5652ULL /* "PLRECOVR" */, "RecoveryLog",
                  /*compact_when_full=*/true) {}

ServeLog::ServeLog(romulus::Romulus& rom)
    : PmRecordLog(rom, kRootSlot, 0x504C5345525645ULL /* "PLSERVE" */, "ServeLog",
                  /*compact_when_full=*/true) {}

std::uint64_t ServeLog::next_window() const {
  const Header hdr = header();
  return hdr.count == 0 ? 0 : read_record(hdr, hdr.count - 1).window + 1;
}

}  // namespace plinius
