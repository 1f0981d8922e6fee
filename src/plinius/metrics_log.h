// Persistent training-metrics log.
//
// The paper's crash experiments (Figs. 9-10) plot loss curves across
// process kills; the curve itself must survive the crashes to be plotted.
// MetricsLog is an append-only, crash-consistent record of (iteration,
// loss, learning-rate) entries in PM: appends ride the same Romulus
// transaction machinery as the mirror, so the log never tears and never
// disagrees with the mirrored model about how far training got.
//
// Entries are plaintext: loss values are aggregate statistics that do not
// expose model parameters or training data (same argument as the paper's
// public hyper-parameters, §III). A sealed variant would be trivial but
// would make the common "tail -f the training curve" operation need keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"

namespace plinius {

/// Fixed-capacity, append-only PM array of trivially copyable records under
/// one root slot: the layout the three logs below and the serving fleet's
/// ModelRegistry share. Appends are durable Romulus transactions (nested in
/// a caller's transaction, they join it). The header is untrusted PM data, so
/// header() bounds the record count by the capacity, and the capacity by
/// main, before any caller reads or allocates over them. Defined entirely in
/// this header so record types above plinius_core (the registry's) need no
/// explicit instantiation here.
template <typename Record>
class PmRecordLog {
 public:
  [[nodiscard]] bool exists() const {
    const std::uint64_t off = rom_->root(root_slot_);
    return off != 0 && rom_->read<std::uint64_t>(off) == magic_;
  }

  /// Creates the log with a fixed capacity (one durable transaction).
  void create(std::size_t capacity) {
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

  /// Appends one record (durable transaction). When full, the log either
  /// throws PmError or first drops its oldest half (see each log).
  void append(const Record& record) {
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
          rom_->tx_store(record_off(hdr, i), &e, sizeof(e));
        }
        hdr.count = keep;
      }
      rom_->tx_store(record_off(hdr, hdr.count), &record, sizeof(record));
      rom_->tx_assign(rom_->root(root_slot_) + offsetof(Header, count), hdr.count + 1);
    });
  }

  [[nodiscard]] std::size_t size() const { return header().count; }
  [[nodiscard]] std::size_t capacity() const { return header().capacity; }

  [[nodiscard]] Record at(std::size_t index) const {
    const Header hdr = header();
    if (index >= hdr.count) throw PmError(std::string(name_) + "::at: index out of range");
    rom_->device().charge_read(sizeof(Record));
    return read_record(hdr, index);
  }

  [[nodiscard]] std::vector<Record> all() const {
    const Header hdr = header();
    rom_->device().charge_read(hdr.count * sizeof(Record));
    std::vector<Record> out(hdr.count);
    for (std::uint64_t i = 0; i < hdr.count; ++i) out[i] = read_record(hdr, i);
    return out;
  }

 protected:
  struct Header {
    std::uint64_t magic;
    std::uint64_t capacity;
    std::uint64_t count;
    std::uint64_t entries_off;
  };

  PmRecordLog(romulus::Romulus& rom, int root_slot, std::uint64_t magic, const char* name,
              bool compact_when_full)
      : rom_(&rom),
        root_slot_(root_slot),
        magic_(magic),
        name_(name),
        compact_when_full_(compact_when_full) {}

  [[nodiscard]] Header header() const {
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

  [[nodiscard]] romulus::Romulus& rom() const { return *rom_; }
  /// Main offset of record `index`; `hdr` must come from header().
  [[nodiscard]] static std::uint64_t record_off(const Header& hdr, std::uint64_t index) {
    return hdr.entries_off + index * sizeof(Record);
  }
  /// Reads a record without charging the PM read.
  [[nodiscard]] Record read_record(const Header& hdr, std::uint64_t index) const {
    return rom_->read<Record>(record_off(hdr, index));
  }

  /// Durably sets the record count (one transaction).
  void set_count(std::uint64_t count) {
    rom_->run_transaction([&] {
      rom_->tx_assign(rom_->root(root_slot_) + offsetof(Header, count), count);
    });
  }

 private:
  romulus::Romulus* rom_;
  int root_slot_;
  std::uint64_t magic_;
  const char* name_;
  bool compact_when_full_;
};

struct MetricsEntry {
  std::uint64_t iteration;
  float loss;
  float learning_rate;
};

/// The training-metrics log described above. append throws PmError when the
/// log is full.
class MetricsLog : public PmRecordLog<MetricsEntry> {
 public:
  static constexpr int kRootSlot = pm::kMetricsLogRootSlot;

  explicit MetricsLog(romulus::Romulus& rom);

  /// Drops every entry with iteration > `iteration` — used after a crash to
  /// reconcile the log with the restored mirror (entries from iterations
  /// whose mirror-out never committed are stale).
  void truncate_after(std::uint64_t iteration);
};

/// One recovery episode, as persisted by the trainer's recovery ladder
/// (tier values are plinius::RecoveryTier, stored wide for layout stability).
struct RecoveryRecord {
  std::uint64_t tier;
  std::uint64_t resume_iteration;
  std::uint64_t replica_repairs;   // A/B sibling rebuilds during this episode
  std::uint64_t rungs_failed;      // ladder rungs tried and exhausted first
  std::uint64_t flags;             // RecoveryRecord::kReformatted | ...
  static constexpr std::uint64_t kReformatted = 1;   // region was reformatted
  static constexpr std::uint64_t kMirrorRebuilt = 2; // mirror realloc'd
  static constexpr std::uint64_t kDatasetLost = 4;   // PM dataset must reload
};

/// Append-only PM log of RecoveryRecords — the crash-consistent trail of
/// every recovery the trainer performed, surviving the very faults it
/// documents (unless the region itself is reformatted, which the next
/// record's kReformatted flag then admits). Same Romulus transaction
/// machinery as MetricsLog, separate root slot. When full, the oldest half is
/// dropped first — recovery history must never block recovery itself.
class RecoveryLog : public PmRecordLog<RecoveryRecord> {
 public:
  static constexpr int kRootSlot = pm::kRecoveryLogRootSlot;

  explicit RecoveryLog(romulus::Romulus& rom);
};

/// One serving window, as persisted by serve::InferenceServer after each
/// run: offered/served/shed counts and the latency percentiles of the
/// window, plus the model iteration that was being served. Like MetricsEntry
/// these are aggregate statistics — no query data, no parameters.
struct ServeWindowRecord {
  std::uint64_t window;         // monotonically increasing per log
  std::uint64_t arrived;
  std::uint64_t completed;
  std::uint64_t shed;           // queue-full + deadline + expired, all replied
  std::uint64_t model_version;  // mirror iteration served during the window
  float p50_us;
  float p95_us;
  float p99_us;
};

/// Append-only PM log of serving windows: the crash-consistent SLO trail of
/// a Plinius serving deployment, riding the same Romulus transaction
/// machinery as MetricsLog (separate root slot). When full, the oldest half
/// is dropped — the serving path must never stall on its own telemetry.
class ServeLog : public PmRecordLog<ServeWindowRecord> {
 public:
  static constexpr int kRootSlot = pm::kServeLogRootSlot;

  explicit ServeLog(romulus::Romulus& rom);

  /// window value for the next append (max persisted window + 1; 0 if empty).
  [[nodiscard]] std::uint64_t next_window() const;
};

}  // namespace plinius
