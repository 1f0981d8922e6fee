// SGX-Romulus: durable transactions on persistent memory (paper §IV).
//
// Reimplementation of the Romulus algorithm [Correia, Felber, Ramalhete,
// SPAA'18] as ported to SGX by the paper. The persistent region holds twin
// copies of the user heap:
//
//   [ header | main region | back region ]
//
// `main` is where user code performs in-place modifications inside a
// transaction; `back` is a snapshot of the previous consistent state. The
// header records a tri-state consistency flag. A transaction uses at most
// four persistence fences regardless of size:
//
//   1. state=MUTATING, PWB, fence            -- announce mutation
//   2. (user stores, each interposed: log range + PWB) ... fence
//   3. state=COPYING, PWB, fence             -- main is now durable
//   4. apply the volatile log main->back (PWB each range), fence,
//      state=IDLE, PWB                       -- next txn's fence orders it
//
// Recovery after a crash:
//   MUTATING -> main may be torn: restore main from back;
//   COPYING  -> main is consistent: redo the copy main->back;
//   IDLE     -> nothing to do.
//
// The volatile log (modified offset/length ranges) lives in enclave DRAM and
// is lost on crash, which is exactly why COPYING recovery re-copies the
// whole main region.
//
// All stores to persistent data must go through tx_store()/persist<T> so the
// log and PWBs stay correct; reads can use plain loads via main_base().
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "pm/device.h"
#include "pm/root_slots.h"
#include "romulus/execution.h"

namespace plinius::romulus {

/// PWB + fence combination (paper §V footnote: clwb+sfence,
/// clflushopt+sfence — used by Plinius — and clflush+nop).
struct PwbPolicy {
  pm::FlushKind pwb = pm::FlushKind::kClflushOpt;
  pm::FenceKind fence = pm::FenceKind::kSfence;

  static PwbPolicy clflush_nop() {
    return {pm::FlushKind::kClflush, pm::FenceKind::kNop};
  }
  static PwbPolicy clflushopt_sfence() {
    return {pm::FlushKind::kClflushOpt, pm::FenceKind::kSfence};
  }
  static PwbPolicy clwb_sfence() {
    return {pm::FlushKind::kClwb, pm::FenceKind::kSfence};
  }
};

/// Number of root-object slots (Romulus' "array of persistent memory
/// objects" referenced from the persistent header). Slot assignments are
/// centralized in pm/root_slots.h; the capacity lives there too so the
/// registry's compile-time range check and this array can never disagree.
inline constexpr int kRootSlots = pm::kRootSlotCapacity;

class Romulus {
 public:
  /// Attaches to a region of `dev` at `region_offset`, consisting of a
  /// header page plus twin copies of `main_size` bytes each. When `format`
  /// is true (or the region magic is absent) the region is initialized; an
  /// existing region is recovered instead (Algorithm 1 of the paper).
  Romulus(pm::PmDevice& dev, std::size_t region_offset, std::size_t main_size,
          PwbPolicy policy, bool format = false,
          ExecutionProfile profile = ExecutionProfile::native());

  Romulus(const Romulus&) = delete;
  Romulus& operator=(const Romulus&) = delete;
  ~Romulus();

  /// Total device bytes needed for a region with `main_size` user bytes.
  [[nodiscard]] static std::size_t region_bytes(std::size_t main_size);

  // --- transactions ----------------------------------------------------------
  /// Runs `body` as a durable transaction. If body throws anything other
  /// than SimulatedCrash, the transaction is *aborted*: main is rolled back
  /// from the back copy (the same restoration the MUTATING branch of
  /// recovery performs) and the header returns to IDLE, so subsequent reads
  /// and transactions see the pre-transaction state. The exception then
  /// propagates.
  template <typename F>
  void run_transaction(F&& body) {
    begin_transaction();
    try {
      body();
    } catch (const SimulatedCrash&) {
      // A simulated power failure mid-transaction must not commit — and
      // must not roll back either: the process "died" with the header in
      // MUTATING. Recovery happens when the region is re-attached.
      abandon_transaction();
      throw;
    } catch (...) {
      abort_transaction();
      throw;
    }
    end_transaction();
  }

  void begin_transaction();
  void end_transaction();
  /// Rolls back an in-flight transaction: main is restored from back, the
  /// header returns to IDLE, and the volatile log is dropped. No-op when no
  /// transaction is open (so the flat-nesting unwind can call it at every
  /// level). The committed pre-transaction state is intact afterwards.
  void abort_transaction();
  /// Drops in-flight transaction bookkeeping without committing *or*
  /// rolling back (simulated process death). The region is left in
  /// MUTATING state with main possibly torn; only recover() — run when the
  /// region is re-attached — makes it readable again.
  void abandon_transaction() noexcept;
  [[nodiscard]] bool in_transaction() const noexcept { return tx_depth_ > 0; }

  /// Transactional store: writes into main and logs+PWBs the range.
  void tx_store(std::size_t offset, const void* src, std::size_t len);

  /// Registers an in-place mutation performed directly through main_base().
  void tx_record(std::size_t offset, std::size_t len);

  /// Typed convenience.
  template <typename T>
  void tx_assign(std::size_t offset, const T& value) {
    tx_store(offset, &value, sizeof(T));
  }

  /// The one PM range check. Throws PmError naming `ctx`, the extent and the
  /// main size unless [offset, offset + len) lies inside the main region.
  /// Overflow-safe (offset + len is never formed), so any offset/length pair
  /// read from untrusted PM can be checked before it is dereferenced.
  void check_extent(std::uint64_t offset, std::uint64_t len, const char* ctx) const {
    if (offset > main_size_ || len > main_size_ - offset) throw_extent(offset, len, ctx);
  }

  /// check_extent over an array of `count` elements of `elem_size` bytes.
  /// The byte length saturates instead of wrapping, so a corrupt persistent
  /// count fails the check rather than landing back in range.
  void check_extent(std::uint64_t offset, std::uint64_t count, std::uint64_t elem_size,
                    const char* ctx) const {
    check_extent(offset,
                 elem_size != 0 && count > UINT64_MAX / elem_size ? UINT64_MAX
                                                                  : count * elem_size,
                 ctx);
  }

  template <typename T>
  [[nodiscard]] T read(std::size_t offset, const char* ctx = "Romulus::read") const {
    check_extent(offset, sizeof(T), ctx);
    T out;
    std::memcpy(&out, main_base() + offset, sizeof(T));
    return out;
  }

  // --- allocator ---------------------------------------------------------------
  /// Allocates `size` bytes in the main region; returns the offset within
  /// main. Must be called inside a transaction (metadata updates are
  /// transactional). Throws PmError when the region is exhausted.
  [[nodiscard]] std::size_t pmalloc(std::size_t size);
  /// Returns a block to the free list. Must be called inside a transaction.
  void pmfree(std::size_t offset);
  /// Bytes currently allocated (excluding allocator metadata).
  [[nodiscard]] std::size_t allocated_bytes() const;

  // --- roots ---------------------------------------------------------------------
  /// Persistent root pointers surviving restarts (offsets into main, by
  /// convention; 0 = null). set_root must be called inside a transaction.
  void set_root(int slot, std::uint64_t value);
  [[nodiscard]] std::uint64_t root(int slot) const;

  // --- direct access ---------------------------------------------------------------
  [[nodiscard]] std::uint8_t* main_base() noexcept;
  [[nodiscard]] const std::uint8_t* main_base() const noexcept;
  [[nodiscard]] std::size_t main_size() const noexcept { return main_size_; }
  [[nodiscard]] pm::PmDevice& device() noexcept { return *dev_; }
  [[nodiscard]] const pm::PmDevice& device() const noexcept { return *dev_; }
  [[nodiscard]] PwbPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const ExecutionProfile& profile() const noexcept { return profile_; }

  // --- scrub / media-fault introspection (device-coordinate extents) ---------------
  [[nodiscard]] std::size_t region_offset() const noexcept { return region_offset_; }
  /// Device offset of the main region (header page excluded).
  [[nodiscard]] std::size_t main_region_offset() const noexcept { return main_offset(); }
  /// Device offset of the back (twin) region.
  [[nodiscard]] std::size_t back_region_offset() const noexcept { return back_offset(); }
  /// Main-relative offset/length of the allocator metadata words.
  [[nodiscard]] static constexpr std::size_t alloc_meta_offset() noexcept {
    return kAllocMetaOffset;
  }
  [[nodiscard]] static constexpr std::size_t alloc_meta_bytes() noexcept {
    return kAllocMetaBytes;
  }
  [[nodiscard]] static constexpr std::size_t header_bytes() noexcept {
    return kHeaderBytes;
  }

  /// Checks the persistent header (magic, state in range, recorded main
  /// size), throwing PmError naming the corrupt field and its value. The
  /// header has no twin, so a failure here is unrecoverable at the Romulus
  /// tier — callers reformat (losing the region) or fail over.
  void validate_header() const;

  /// Media-fault repair: restores the whole main region from the back twin
  /// (the MUTATING-recovery copy, exposed for scrubbing). Only legal when
  /// idle. The caller must re-validate afterwards — if back was the corrupt
  /// twin, this propagates the damage and validation still fails.
  void restore_main_from_back();

  /// Media-fault repair in the other direction: rewrites back from a main
  /// region that has been validated good, re-synchronizing the twins.
  void rewrite_back_from_main();

  /// Bytes on which the two twins currently disagree (0 when healthy and
  /// idle: every committed transaction re-syncs the ranges it logged).
  [[nodiscard]] std::size_t twin_divergence() const;

  /// Runs crash recovery explicitly (also run by the constructor when
  /// attaching to an existing region — e.g. after PmDevice::crash()).
  void recover();

  /// Tri-state consistency flag recorded in the persistent header.
  enum class State : std::uint64_t { kIdle = 0, kMutating = 1, kCopying = 2 };

  /// The header state as currently visible through the volatile image.
  /// Outside a transaction this must be kIdle; fault-injection harnesses
  /// assert exactly that after recovery.
  [[nodiscard]] State header_state() const { return state(); }

  /// Walks the allocator metadata (bump, free_head, in_use) and the free
  /// list, throwing PmError on any inconsistency: out-of-range or
  /// misaligned offsets, free-list cycles, overlapping free blocks, or
  /// accounting that does not satisfy  in_use + free bytes == bump-allocated
  /// bytes. Crash-recovery sweeps call this after every re-attach.
  void validate_allocator() const;

  /// The Romulus instance owning the current open transaction on this
  /// thread (used by persist<T> interposition), or nullptr.
  [[nodiscard]] static Romulus* current() noexcept;

  /// Translates a pointer into the main region to its offset; throws
  /// PmError if the pointer is outside main.
  [[nodiscard]] std::size_t offset_of(const void* p) const;

 private:
  struct Header {  // lives at region_offset, 64-byte aligned fields
    std::uint64_t magic;
    std::uint64_t state;
    std::uint64_t main_size;
  };
  static constexpr std::uint64_t kMagic = 0x524F4D554C555331ULL;  // "ROMULUS1"
  static constexpr std::size_t kHeaderBytes = 64;
  // First bytes of main: root slots + allocator metadata (twin-protected).
  static constexpr std::size_t kRootBytes = kRootSlots * 8;
  static constexpr std::size_t kAllocMetaOffset = kRootBytes;
  static constexpr std::size_t kAllocMetaBytes = 24;  // bump, free_head, in_use
  static constexpr std::size_t kHeapStart = kRootBytes + kAllocMetaBytes + 8;

  [[noreturn]] void throw_extent(std::uint64_t offset, std::uint64_t len,
                                 const char* ctx) const;
  void format_region();
  void charge_log_append();
  void set_state(State s);
  [[nodiscard]] State state() const;
  void pwb(std::size_t offset, std::size_t len);
  void pfence();
  void close_tx_span();
  void copy_main_to_back_full();
  void copy_back_to_main_full();

  [[nodiscard]] std::size_t main_offset() const noexcept {
    return region_offset_ + kHeaderBytes;
  }
  [[nodiscard]] std::size_t back_offset() const noexcept {
    return main_offset() + main_size_;
  }

  pm::PmDevice* dev_;
  std::size_t region_offset_;
  std::size_t main_size_;
  PwbPolicy policy_;
  ExecutionProfile profile_;

  struct LogEntry {
    std::size_t offset;
    std::size_t len;
  };
  std::vector<LogEntry> log_;  // volatile redo log (enclave DRAM)
  int tx_depth_ = 0;
  std::uint64_t tx_span_id_ = 0;  // open obs span for the outermost tx, 0 = none

  static thread_local Romulus* current_;
};

}  // namespace plinius::romulus
