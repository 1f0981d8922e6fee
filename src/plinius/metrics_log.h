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

#include <cstdint>
#include <vector>

#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

/// Fixed-capacity, append-only PM array of trivially copyable records under
/// one root slot: the layout the three logs below share. Appends are durable
/// Romulus transactions. The header is untrusted PM data, so header() bounds
/// the record count by the capacity, and the capacity by main, before any
/// caller reads or allocates over them.
template <typename Record>
class PmRecordLog {
 public:
  [[nodiscard]] bool exists() const;
  /// Creates the log with a fixed capacity (one durable transaction).
  void create(std::size_t capacity);
  /// Appends one record (durable transaction). When full, the log either
  /// throws PmError or first drops its oldest half (see each log).
  void append(const Record& record);
  [[nodiscard]] std::size_t size() const { return header().count; }
  [[nodiscard]] std::size_t capacity() const { return header().capacity; }
  [[nodiscard]] Record at(std::size_t index) const;
  [[nodiscard]] std::vector<Record> all() const;

 protected:
  struct Header {
    std::uint64_t magic;
    std::uint64_t capacity;
    std::uint64_t count;
    std::uint64_t entries_off;
  };

  PmRecordLog(romulus::Romulus& rom, int root_slot, std::uint64_t magic, const char* name,
              bool compact_when_full);

  [[nodiscard]] Header header() const;
  [[nodiscard]] Record read_record(const Header& hdr, std::uint64_t index) const {
    return rom_->read<Record>(hdr.entries_off + index * sizeof(Record));
  }
  /// Durably sets the record count (one transaction).
  void set_count(std::uint64_t count);

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

  MetricsLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave);

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

  RecoveryLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave);
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

  ServeLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave);

  /// window value for the next append (max persisted window + 1; 0 if empty).
  [[nodiscard]] std::uint64_t next_window() const;
};

}  // namespace plinius
