// Simulated persistent-memory device with cache-line-accurate crash
// semantics.
//
// The device keeps one byte image, what the CPU sees through loads and
// stores, plus an undo store holding the persisted bytes of the lines that
// a power failure would change back. A line's persistent content is its
// undo entry if it has one, else the image; only dirty or pending lines can
// have entries.
//
// The image is demand-zero: an anonymous mapping of 4 KiB pages (huge pages
// refused) in which a page becomes resident on its first write and reads of
// untouched pages see zeros. Stores, twin copies, image load and restore
// compare first and skip every line whose bytes would not change, so a
// run's resident set is the PM it really writes, not the device size.
//
// A store dirties its cache lines; a line it changes first saves its
// persisted bytes as an entry (a line whose bytes stay equal saves none).
// CLFLUSH commits the line immediately (the instruction is strongly
// ordered, which is why Romulus' clflush+nop combination is sound): the
// entry is dropped, since the image already holds the bytes. CLFLUSHOPT/CLWB
// move the line to a *pending* set; an SFENCE commits all pending lines. A
// line stored again after its flush keeps its flushed bytes as a
// copy-on-write snapshot, which the fence makes its entry (the line is still
// dirty). On a simulated crash, pending-but-unfenced lines each persist with
// probability 1/2 (the flush may or may not have reached the ADR-protected
// write-pending queue), dirty-unflushed lines are lost, and every line that
// did not persist gets its entry copied back into the image.
//
// Line state lives in 64-line bitmap words, and store/flush/fence act on a
// whole word at a time: counts are popcounts, and each word's entries share
// one 4 KiB block of 64 line slots. Blocks come from a free list and are
// kept until the device is destroyed, so the resident set is the high-water
// mark of differing lines, whatever the host's timing. Lines enter the
// pending set in flush order; the device keeps that order as a list of runs
// of newly pended lines, and a seeded crash draws one coin per still-pending
// line in list order (a line draws at its first entry), so outcomes depend
// only on the seed and the op sequence.
//
// This reproduces exactly the failure modes the Romulus twin-copy protocol
// and the Plinius mirroring protocol exist to mask, so crash-consistency
// tests are meaningful rather than vacuous.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "pm/latency.h"

namespace plinius::pm {

class FaultInjector;

inline constexpr std::size_t kCacheLine = 64;

/// Counters exposed for tests and the SPS benchmark.
struct PmStats {
  std::uint64_t stores = 0;
  std::uint64_t bytes_stored = 0;
  std::uint64_t flushes = 0;
  std::uint64_t lines_flushed = 0;
  std::uint64_t fences = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t crashes = 0;
  /// Coins a kSeededRandom crash drew, one per still-pending line.
  std::uint64_t crash_coin_flips = 0;
  // Media-fault accounting (see the media-fault section below).
  std::uint64_t media_bit_flips = 0;
  std::uint64_t media_torn_lines = 0;
  std::uint64_t media_poisoned_lines = 0;
  std::uint64_t poison_cleared = 0;
  std::uint64_t scrub_bytes = 0;
};

class PmDevice {
 public:
  /// Creates a device of `size` bytes (rounded up to a cache line).
  PmDevice(sim::Clock& clock, std::size_t size, PmLatencyModel model,
           std::uint64_t crash_seed = 0x9e3779b9ULL);

  PmDevice(const PmDevice&) = delete;
  PmDevice& operator=(const PmDevice&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// The image loads see. Write through it only after record_store().
  [[nodiscard]] std::uint8_t* data() noexcept { return image_.get(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return image_.get(); }

  /// Writes `src` into the image and dirties the lines, charging store
  /// cost. This is the store-interposition entry point Romulus and the
  /// allocator use. A line whose bytes in range already equal `src` is
  /// dirtied and charged but neither written nor given an undo entry.
  void store(std::size_t offset, const void* src, std::size_t len);

  /// store() of the image's own [src, src+len) into [dst, dst+len): same
  /// dirty lines, stats, charges and crash point. The ranges must not
  /// overlap. For write-mostly destinations (Romulus' back copy): a long
  /// copy streams past the cache.
  void copy_within(std::size_t dst, std::size_t src, std::size_t len);

  /// Marks lines dirty for an in-place mutation through data() (charges
  /// store cost too). Call it *before* writing the bytes: it saves each
  /// line's persisted bytes from the image, so bytes written ahead of it
  /// would be taken for persisted ones and survive a crash they must not.
  void record_store(std::size_t offset, std::size_t len);

  /// Reads from the image, charging load cost.
  void load(std::size_t offset, void* dst, std::size_t len);

  /// Charges read cost without copying (for code that reads via data()).
  void charge_read(std::size_t len);

  /// Persistent write-back of every line overlapping [offset, offset+len).
  void flush(std::size_t offset, std::size_t len, FlushKind kind);

  /// Orders/commits outstanding weak flushes.
  void fence(FenceKind kind);

  /// What happens to flushed-but-unfenced (pending) lines on a crash.
  /// kSeededRandom is the default hardware model; the two deterministic
  /// extremes exist so fault-injection sweeps can exercise both outcomes of
  /// the per-line coin flip.
  enum class CrashOutcome { kSeededRandom, kPersistAll, kDropAll };

  /// Simulated power failure: see the file comment for semantics.
  void crash(CrashOutcome outcome = CrashOutcome::kSeededRandom);

  /// True if every line is clean (flushed and fenced), i.e. the image is
  /// what would survive a power failure.
  [[nodiscard]] bool quiescent() const noexcept {
    return dirty_count_ == 0 && pending_count_ == 0;
  }

  /// Copies what would survive a power failure in [offset, offset+len)
  /// into `dst` (tests assert on it). Charges nothing.
  void read_persistent(std::size_t offset, void* dst, std::size_t len) const;

  /// Lines holding an undo entry (tests check a quiescent device has none).
  [[nodiscard]] std::size_t undo_lines() const noexcept { return undo_count_; }

  [[nodiscard]] const PmStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = PmStats{}; }

  [[nodiscard]] const PmLatencyModel& model() const noexcept { return model_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return *clock_; }

  /// Persists what would survive a power failure to a file / restores the
  /// device from one, emulating the DAX-mmapped file surviving across
  /// process lifetimes.
  void save_image(const std::string& path) const;
  void load_image(const std::string& path);

  /// In-memory equivalents of save_image/load_image, used by crash-point
  /// sweeps to rewind a workload thousands of times without file I/O.
  /// restore_persistent rejects images whose size differs from the arena.
  /// Load and restore write only the lines that differ from the image.
  [[nodiscard]] Bytes snapshot_persistent() const;
  void restore_persistent(ByteSpan image);

  /// Registers (or, with nullptr, removes) the fault injector whose op
  /// counter every store/flush/fence reports to. Owned by the caller;
  /// see pm/faultpoint.h.
  void attach_fault_injector(FaultInjector* injector);

  // --- media faults -----------------------------------------------------------
  //
  // Real PM media degrades independently of power failures: bit rot flips
  // stored bits, a torn internal write garbles part of a line, and
  // uncorrectable errors leave a line *poisoned* (reads raise a machine
  // check until the line is rewritten — the reason ndctl ships
  // address-range-scrub). Faults land in the line's persistent content: the
  // image for a clean line; for a dirty or pending line its undo entry
  // (saved first if it has none), so the cache copy masks the damage until
  // eviction.

  /// Flips bit `bit` (0-7) of the byte at `offset`.
  void flip_bit(std::size_t offset, unsigned bit);

  /// Torn internal media write: the second half of cache line `line` is
  /// replaced with deterministic garbage derived from `seed`.
  void tear_line(std::size_t line, std::uint64_t seed);

  /// Marks cache line `line` poisoned and scrambles its media content.
  /// A load() overlapping a poisoned line throws PmError (the simulated
  /// machine check); rewriting the line (any flush/fence commit) clears the
  /// poison, as hardware does on a full-line write.
  void poison_line(std::size_t line, std::uint64_t seed);

  [[nodiscard]] bool line_poisoned(std::size_t line) const noexcept;
  [[nodiscard]] std::size_t poisoned_line_count() const noexcept {
    return poisoned_count_;
  }

  /// Scrub pass over [offset, offset+len): charges sequential read
  /// bandwidth for the range (ARS traffic, accounted in stats().scrub_bytes)
  /// and returns the poisoned line indices found, without throwing.
  [[nodiscard]] std::vector<std::size_t> scrub_range(std::size_t offset,
                                                     std::size_t len);

 private:
  /// Lines [first, first+count) pended by one flush, in list order.
  struct LineRun {
    std::size_t first;
    std::size_t count;
  };

  /// The undo entries of one 64-line bitmap word, slot i for line 64w+i.
  struct UndoBlock {
    alignas(kCacheLine) std::uint8_t line[64][kCacheLine];
  };

  /// Writes [offset, offset+len) from `src` (not overlapping it) as one
  /// store op: marks the lines dirty, and each line whose bytes in range
  /// change saves its entry and is written. Long runs of written lines
  /// stream when `stream` is set.
  void write(std::size_t offset, const std::uint8_t* src, std::size_t len, bool stream);
  /// Charges and counts one store op of `len` bytes.
  void charge_store(std::size_t len);
  /// Dirties the lines `mask` of word w; a pending one first keeps its
  /// flushed bytes as a copy-on-write snapshot.
  void mark_dirty(std::size_t w, std::uint64_t mask);
  /// Saves the image's bytes as the entry of each line of `bits` (word w)
  /// that has none, with non-temporal stores if `stream` (the caller
  /// fences).
  void capture(std::size_t w, std::uint64_t bits, bool stream);
  /// Makes `bytes` the entry of `line`.
  void put_entry(std::size_t line, const std::uint8_t* bytes);
  /// Drops the entries of `bits` in word w; a word left with none returns
  /// its block to the free list.
  void drop(std::size_t w, std::uint64_t bits);
  /// The lines `bits` of word w persist their image bytes: their entries
  /// go, and a full-line write-back clears their poison.
  void commit(std::size_t w, std::uint64_t bits);
  /// The persisted bytes of `line`, where a media fault lands.
  std::uint8_t* media_line(std::size_t line);
  /// Commits every pending line (snapshots win) and empties the pending set.
  void commit_pending();
  void append_pending_run(std::size_t first, std::size_t count);
  /// Drops every entry and clears the dirty, pending and poisoned lines:
  /// the image becomes what persists (image load and restore).
  void reset_state();
  void check_range(std::size_t offset, std::size_t len) const;
  static bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t line) noexcept;
  static void set_bit(std::vector<std::uint64_t>& bits, std::size_t line) noexcept;

  struct Unmap {
    std::size_t size;
    void operator()(std::uint8_t* image) const noexcept;
  };
  using Image = std::unique_ptr<std::uint8_t[], Unmap>;
  /// Zero-filled and resident page by page: each 4 KiB page on its first
  /// write, never as part of a transparent huge page.
  static Image map_demand_zero(std::size_t size);

  sim::Clock* clock_;
  std::size_t size_;
  PmLatencyModel model_;
  Image image_;

  // Cache-line state as bitmaps (a set of line indices would cost ~50 bytes
  // per entry; a 100 MB mirror write touches ~1.6 M lines).
  std::vector<std::uint64_t> dirty_bits_;
  std::vector<std::uint64_t> pending_bits_;
  // Every line that became pending since the last fence or crash, as runs in
  // flush order. A line clflushed out of the pending set keeps its entry; a
  // fence or crash skips lines whose pending bit is already clear.
  std::vector<LineRun> pending_runs_;
  // Copy-on-write snapshots for the rare store-after-flush-before-fence case.
  std::unordered_map<std::size_t, std::array<std::uint8_t, kCacheLine>> pending_snapshots_;
  std::size_t dirty_count_ = 0;
  std::size_t pending_count_ = 0;

  // Undo store: per word, the lines holding an entry and their block (null
  // when the word has none). Every block ever taken lives in undo_pool_.
  std::vector<std::uint64_t> undo_bits_;
  std::vector<UndoBlock*> undo_blocks_;
  std::vector<std::unique_ptr<UndoBlock>> undo_pool_;
  std::vector<UndoBlock*> undo_free_;
  std::size_t undo_count_ = 0;

  // Poisoned (uncorrectable-error) lines; cleared when the line is rewritten.
  std::vector<std::uint64_t> poison_bits_;
  std::size_t poisoned_count_ = 0;

  Rng crash_rng_;
  PmStats stats_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace plinius::pm
