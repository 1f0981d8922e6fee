#include "plinius/metrics_log.h"

#include <cstddef>
#include <string>

#include "common/error.h"

namespace plinius {

template <typename Record>
PmRecordLog<Record>::PmRecordLog(romulus::Romulus& rom, int root_slot,
                                 std::uint64_t magic, const char* name,
                                 bool compact_when_full)
    : rom_(&rom),
      root_slot_(root_slot),
      magic_(magic),
      name_(name),
      compact_when_full_(compact_when_full) {}

template <typename Record>
bool PmRecordLog<Record>::exists() const {
  const std::uint64_t off = rom_->root(root_slot_);
  return off != 0 && rom_->read<std::uint64_t>(off) == magic_;
}

template <typename Record>
typename PmRecordLog<Record>::Header PmRecordLog<Record>::header() const {
  if (!exists()) {
    throw Error(std::string("precondition violated: ") + name_ + ": no log in PM");
  }
  const Header hdr = rom_->read<Header>(rom_->root(root_slot_));
  if (hdr.count > hdr.capacity) {
    throw PmError(std::string(name_) + ": corrupt record count " +
                  std::to_string(hdr.count) + " exceeds capacity " +
                  std::to_string(hdr.capacity));
  }
  rom_->check_extent(hdr.entries_off, hdr.capacity, sizeof(Record), name_);
  return hdr;
}

template <typename Record>
void PmRecordLog<Record>::create(std::size_t capacity) {
  if (exists()) throw PmError(std::string(name_) + "::create: log already exists");
  expects(capacity > 0, "PmRecordLog: capacity must be positive");
  rom_->run_transaction([&] {
    Header hdr{magic_, capacity, 0, 0};
    hdr.entries_off = rom_->pmalloc(capacity * sizeof(Record));
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));
    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(root_slot_, hdr_off);
  });
}

template <typename Record>
void PmRecordLog<Record>::append(const Record& record) {
  Header hdr = header();
  if (hdr.count >= hdr.capacity && !compact_when_full_) {
    throw PmError(std::string(name_) + ": log is full");
  }
  rom_->run_transaction([&] {
    if (hdr.count >= hdr.capacity) {
      // Compact: keep the newest half.
      const std::uint64_t keep = hdr.capacity / 2;
      const std::uint64_t drop = hdr.count - keep;
      for (std::uint64_t i = 0; i < keep; ++i) {
        const Record e = read_record(hdr, drop + i);
        rom_->tx_store(hdr.entries_off + i * sizeof(Record), &e, sizeof(e));
      }
      hdr.count = keep;
    }
    rom_->tx_store(hdr.entries_off + hdr.count * sizeof(Record), &record, sizeof(record));
    rom_->tx_assign(rom_->root(root_slot_) + offsetof(Header, count), hdr.count + 1);
  });
}

template <typename Record>
Record PmRecordLog<Record>::at(std::size_t index) const {
  const Header hdr = header();
  if (index >= hdr.count) {
    throw PmError(std::string(name_) + "::at: index out of range");
  }
  rom_->device().charge_read(sizeof(Record));
  return read_record(hdr, index);
}

template <typename Record>
std::vector<Record> PmRecordLog<Record>::all() const {
  const Header hdr = header();
  rom_->device().charge_read(hdr.count * sizeof(Record));
  std::vector<Record> out(hdr.count);
  for (std::uint64_t i = 0; i < hdr.count; ++i) out[i] = read_record(hdr, i);
  return out;
}

template <typename Record>
void PmRecordLog<Record>::set_count(std::uint64_t count) {
  rom_->run_transaction([&] {
    rom_->tx_assign(rom_->root(root_slot_) + offsetof(Header, count), count);
  });
}

template class PmRecordLog<MetricsEntry>;
template class PmRecordLog<RecoveryRecord>;
template class PmRecordLog<ServeWindowRecord>;

MetricsLog::MetricsLog(romulus::Romulus& rom, sgx::EnclaveRuntime& /*enclave*/)
    : PmRecordLog(rom, kRootSlot, 0x504C4D4554524943ULL /* "PLMETRIC" */, "MetricsLog",
                  /*compact_when_full=*/false) {}

void MetricsLog::truncate_after(std::uint64_t iteration) {
  const Header hdr = header();
  std::uint64_t keep = hdr.count;
  while (keep > 0 && read_record(hdr, keep - 1).iteration > iteration) --keep;
  if (keep != hdr.count) set_count(keep);
}

RecoveryLog::RecoveryLog(romulus::Romulus& rom, sgx::EnclaveRuntime& /*enclave*/)
    : PmRecordLog(rom, kRootSlot, 0x504C5245434F5652ULL /* "PLRECOVR" */, "RecoveryLog",
                  /*compact_when_full=*/true) {}

ServeLog::ServeLog(romulus::Romulus& rom, sgx::EnclaveRuntime& /*enclave*/)
    : PmRecordLog(rom, kRootSlot, 0x504C5345525645ULL /* "PLSERVE" */, "ServeLog",
                  /*compact_when_full=*/true) {}

std::uint64_t ServeLog::next_window() const {
  const Header hdr = header();
  return hdr.count == 0 ? 0 : read_record(hdr, hdr.count - 1).window + 1;
}

}  // namespace plinius
