#include "romulus/romulus.h"

#include <bit>
#include <cstring>
#include <string>
#include <unordered_set>

#include "common/error.h"
#include "obs/trace.h"

namespace plinius::romulus {

thread_local Romulus* Romulus::current_ = nullptr;

std::size_t Romulus::region_bytes(std::size_t main_size) {
  return kHeaderBytes + 2 * align_up(main_size, pm::kCacheLine);
}

Romulus::Romulus(pm::PmDevice& dev, std::size_t region_offset, std::size_t main_size,
                 PwbPolicy policy, bool format, ExecutionProfile profile)
    : dev_(&dev),
      region_offset_(region_offset),
      main_size_(align_up(main_size, pm::kCacheLine)),
      policy_(policy),
      profile_(std::move(profile)) {
  expects(main_size_ >= kHeapStart + pm::kCacheLine,
          "Romulus: main region too small for metadata");
  if (region_offset_ + region_bytes(main_size_) > dev.size()) {
    throw PmError("Romulus: region does not fit in the PM device");
  }

  Header hdr{};
  std::memcpy(&hdr, dev_->data() + region_offset_, sizeof(hdr));
  if (format) {
    format_region();
  } else if (hdr.magic != kMagic) {
    // Distinguish a fresh (all-zero) region from a garbage header: silently
    // reformatting over media corruption would destroy recoverable data and
    // mask the fault from the recovery ladder.
    bool all_zero = true;
    for (std::size_t i = 0; i < kHeaderBytes; ++i) {
      if (dev_->data()[region_offset_ + i] != 0) {
        all_zero = false;
        break;
      }
    }
    if (!all_zero) {
      throw PmError("Romulus: corrupt region header at offset " +
                    std::to_string(region_offset_) + ": magic " +
                    std::to_string(hdr.magic) + " != " + std::to_string(kMagic) +
                    " (media fault? pass format=true to discard the region)");
    }
    format_region();
  } else {
    if (hdr.main_size != main_size_) {
      throw PmError("Romulus: existing region at offset " +
                    std::to_string(region_offset_) + " has main size " +
                    std::to_string(hdr.main_size) + ", expected " +
                    std::to_string(main_size_));
    }
    recover();
  }
}

Romulus::~Romulus() {
  if (current_ == this) current_ = nullptr;
}

Romulus* Romulus::current() noexcept { return current_; }

std::uint8_t* Romulus::main_base() noexcept { return dev_->data() + main_offset(); }
const std::uint8_t* Romulus::main_base() const noexcept {
  return dev_->data() + main_offset();
}

void Romulus::throw_extent(std::uint64_t offset, std::uint64_t len,
                           const char* ctx) const {
  // Out-of-range extents almost always mean a corrupt persistent offset or
  // length; name the numbers so fault-sweep triage can locate the bad field.
  throw PmError(std::string(ctx) + ": extent [" + std::to_string(offset) + ", +" +
                std::to_string(len) + ") exceeds main size " +
                std::to_string(main_size_) + " (corrupt persistent offset?)");
}

std::size_t Romulus::offset_of(const void* p) const {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  const std::uint8_t* base = main_base();
  if (bytes < base || bytes >= base + main_size_) {
    throw PmError("Romulus::offset_of: pointer outside the main region");
  }
  return static_cast<std::size_t>(bytes - base);
}

void Romulus::pwb(std::size_t offset, std::size_t len) {
  // Execution-environment slowdown: charge the extra fraction of the real
  // flush cost (e.g. enclave code flushing untrusted PM).
  sim::Stopwatch sw(dev_->clock());
  dev_->flush(offset, len, policy_.pwb);
  if (profile_.pm_op_multiplier > 1.0) {
    dev_->clock().advance((profile_.pm_op_multiplier - 1.0) * sw.elapsed());
  }
}

void Romulus::pfence() {
  sim::Stopwatch sw(dev_->clock());
  dev_->fence(policy_.fence);
  if (profile_.pm_op_multiplier > 1.0) {
    dev_->clock().advance((profile_.pm_op_multiplier - 1.0) * sw.elapsed());
  }
}

void Romulus::charge_log_append() {
  sim::Nanos cost = profile_.log_entry_ns;
  if (profile_.log_spill_threshold > 0 && log_.size() >= profile_.log_spill_threshold) {
    cost += profile_.log_spill_ns;
  }
  dev_->clock().advance(cost);
}

void Romulus::set_state(State s) {
  const auto v = static_cast<std::uint64_t>(s);
  dev_->store(region_offset_ + offsetof(Header, state), &v, sizeof(v));
  pwb(region_offset_ + offsetof(Header, state), sizeof(v));
}

Romulus::State Romulus::state() const {
  std::uint64_t v = 0;
  std::memcpy(&v, dev_->data() + region_offset_ + offsetof(Header, state), sizeof(v));
  return static_cast<State>(v);
}

void Romulus::format_region() {
  // Precondition: the underlying area is zeroed (fresh device/file), so main
  // and back agree everywhere except the metadata written here.
  Header hdr{kMagic, static_cast<std::uint64_t>(State::kIdle), main_size_};
  dev_->store(region_offset_, &hdr, sizeof(hdr));
  pwb(region_offset_, sizeof(hdr));

  // Roots = 0, allocator: bump at kHeapStart, empty free list, 0 in use.
  std::uint8_t meta[kHeapStart] = {};
  std::uint64_t bump = kHeapStart;
  std::memcpy(meta + kAllocMetaOffset, &bump, 8);
  dev_->store(main_offset(), meta, sizeof(meta));
  pwb(main_offset(), sizeof(meta));

  // Mirror the metadata into back so the twins start consistent.
  dev_->store(back_offset(), meta, sizeof(meta));
  pwb(back_offset(), sizeof(meta));
  pfence();
}

// --- transactions -------------------------------------------------------------

void Romulus::begin_transaction() {
  if (tx_depth_++ > 0) return;  // nested: flat transaction
  if (current_ != nullptr && current_ != this) {
    throw PmError("Romulus: another instance has an open transaction on this thread");
  }
  current_ = this;
  if (obs::Tracer* t = dev_->clock().tracer(); t != nullptr && t->enabled()) {
    tx_span_id_ = t->open(obs::Category::kRomulusTx, "romulus.tx",
                          dev_->clock().now());
  }
  set_state(State::kMutating);
  pfence();  // fence 1
}

void Romulus::end_transaction() {
  expects(tx_depth_ > 0, "Romulus::end_transaction without begin");
  if (--tx_depth_ > 0) return;

  pfence();  // fence 2: user PWBs on main are durable
  set_state(State::kCopying);
  pfence();  // fence 3: state change durable; main is the consistent copy

  // Apply the volatile log: replicate modified ranges into back.
  for (const LogEntry& e : log_) {
    dev_->copy_within(back_offset() + e.offset, main_offset() + e.offset, e.len);
    pwb(back_offset() + e.offset, e.len);
  }
  pfence();  // fence 4: back is consistent
  set_state(State::kIdle);
  // No fence: the next transaction's first fence (or recovery semantics —
  // COPYING just redoes an idempotent copy) orders the IDLE store.

  log_.clear();
  current_ = nullptr;
  close_tx_span();
}

void Romulus::abandon_transaction() noexcept {
  tx_depth_ = 0;
  log_.clear();
  if (current_ == this) current_ = nullptr;
  // The bracket dies with the transaction: a simulated crash wiped it out,
  // so there is no meaningful end timestamp to commit.
  if (tx_span_id_ != 0) {
    if (obs::Tracer* t = dev_->clock().tracer(); t != nullptr) {
      t->cancel(tx_span_id_);
    }
    tx_span_id_ = 0;
  }
}

void Romulus::abort_transaction() {
  if (tx_depth_ == 0) return;  // already aborted at an inner nesting level
  tx_depth_ = 0;
  log_.clear();
  if (current_ == this) current_ = nullptr;
  // The body's partial stores may have torn main; back still holds the last
  // consistent state (fence 1 guaranteed MUTATING was durable before any
  // user store, so back was never touched). Restore main from back exactly
  // as the MUTATING branch of recover() would after a power failure, then
  // return the header to IDLE. If a simulated crash fires inside this
  // rollback, the header is still MUTATING and re-attach recovery redoes it.
  copy_back_to_main_full();
  set_state(State::kIdle);
  pfence();
  close_tx_span();
}

void Romulus::close_tx_span() {
  if (tx_span_id_ == 0) return;
  if (obs::Tracer* t = dev_->clock().tracer(); t != nullptr) {
    t->close(tx_span_id_, dev_->clock().now());
  }
  tx_span_id_ = 0;
}

void Romulus::tx_check(std::size_t offset, std::size_t len, const char* ctx) const {
  if (!in_transaction()) {
    throw Error(std::string("precondition violated: ") + ctx + " outside a transaction");
  }
  check_extent(offset, len, ctx);
}

std::uint8_t* Romulus::tx_begin_store(std::size_t offset, std::size_t len,
                                       const char* ctx) {
  tx_check(offset, len, ctx);
  dev_->record_store(main_offset() + offset, len);
  return main_base() + offset;
}

void Romulus::tx_end_store(std::size_t offset, std::size_t len) {
  pwb(main_offset() + offset, len);
  charge_log_append();
  log_.push_back({offset, len});
}

void Romulus::tx_store(std::size_t offset, const void* src, std::size_t len) {
  tx_check(offset, len, "Romulus::tx_store");
  dev_->store(main_offset() + offset, src, len);
  tx_end_store(offset, len);
}

// --- recovery --------------------------------------------------------------------

void Romulus::copy_main_to_back_full() {
  dev_->charge_read(main_size_);
  dev_->copy_within(back_offset(), main_offset(), main_size_);
  dev_->flush(back_offset(), main_size_, policy_.pwb);
  pfence();
}

void Romulus::copy_back_to_main_full() {
  dev_->charge_read(main_size_);
  dev_->store(main_offset(), dev_->data() + back_offset(), main_size_);
  dev_->flush(main_offset(), main_size_, policy_.pwb);
  pfence();
}

void Romulus::recover() {
  expects(!in_transaction(), "Romulus::recover during a transaction");
  log_.clear();
  switch (state()) {
    case State::kIdle:
      break;
    case State::kMutating:
      // main may be torn; back holds the last consistent state.
      copy_back_to_main_full();
      break;
    case State::kCopying:
      // main is consistent; the copy to back may be partial. The volatile
      // log died with the crash, so redo the full copy.
      copy_main_to_back_full();
      break;
    default:
      throw PmError("Romulus::recover: corrupt header state " +
                    std::to_string(static_cast<std::uint64_t>(state())) +
                    " (expected 0=IDLE, 1=MUTATING or 2=COPYING)");
  }
  set_state(State::kIdle);
  pfence();
}

// --- scrub helpers -------------------------------------------------------------

void Romulus::validate_header() const {
  Header hdr{};
  std::memcpy(&hdr, dev_->data() + region_offset_, sizeof(hdr));
  if (hdr.magic != kMagic) {
    throw PmError("Romulus::validate_header: magic " + std::to_string(hdr.magic) +
                  " != " + std::to_string(kMagic) + " at region offset " +
                  std::to_string(region_offset_));
  }
  if (hdr.state > static_cast<std::uint64_t>(State::kCopying)) {
    throw PmError("Romulus::validate_header: state " + std::to_string(hdr.state) +
                  " out of range (expected 0=IDLE, 1=MUTATING or 2=COPYING)");
  }
  if (hdr.main_size != main_size_) {
    throw PmError("Romulus::validate_header: recorded main size " +
                  std::to_string(hdr.main_size) + " != attached size " +
                  std::to_string(main_size_));
  }
}

void Romulus::restore_main_from_back() {
  expects(!in_transaction(), "Romulus::restore_main_from_back during a transaction");
  copy_back_to_main_full();
}

void Romulus::rewrite_back_from_main() {
  expects(!in_transaction(), "Romulus::rewrite_back_from_main during a transaction");
  copy_main_to_back_full();
}

std::size_t Romulus::twin_divergence() const {
  // Word at a time (main_size_ is a cache-line multiple); bytes are counted
  // only inside unequal words, where OR-folding each byte's bits into its
  // low bit leaves one set bit per differing byte.
  constexpr std::uint64_t kByteLowBits = 0x0101010101010101ULL;
  const std::uint8_t* main = main_base();
  const std::uint8_t* back = dev_->data() + back_offset();
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < main_size_; i += 8) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, main + i, 8);
    std::memcpy(&b, back + i, 8);
    std::uint64_t x = a ^ b;
    if (x == 0) continue;
    x |= x >> 4;
    x |= x >> 2;
    x |= x >> 1;
    divergent += static_cast<std::size_t>(std::popcount(x & kByteLowBits));
  }
  return divergent;
}

// --- roots --------------------------------------------------------------------------

void Romulus::set_root(int slot, std::uint64_t value) {
  expects(slot >= 0 && slot < kRootSlots, "Romulus::set_root: bad slot");
  tx_assign(static_cast<std::size_t>(slot) * 8, value);
}

std::uint64_t Romulus::root(int slot) const {
  expects(slot >= 0 && slot < kRootSlots, "Romulus::root: bad slot");
  return read<std::uint64_t>(static_cast<std::size_t>(slot) * 8);
}

// --- allocator -----------------------------------------------------------------------
//
// Block layout: 16-byte header {block_size, next_free} followed by the
// payload; blocks are cache-line multiples. Free blocks form a singly
// linked list threaded through the headers. All metadata mutations are
// transactional, so the allocator state is crash-consistent like any other
// persistent data.

namespace {
constexpr std::size_t kBlockHeader = 16;
constexpr std::size_t kMinSplit = 128;

struct AllocMeta {
  std::uint64_t bump;
  std::uint64_t free_head;
  std::uint64_t in_use;
};
}  // namespace

std::size_t Romulus::pmalloc(std::size_t size) {
  expects(in_transaction(), "Romulus::pmalloc outside a transaction");
  expects(size > 0, "Romulus::pmalloc: zero size");
  if (size > main_size_) {
    // Also guards the align_up below against wrapping for huge sizes.
    throw PmError("Romulus::pmalloc: request exceeds the persistent heap");
  }
  const std::size_t need = align_up(size + kBlockHeader, pm::kCacheLine);

  auto meta = read<AllocMeta>(kAllocMetaOffset);

  // First-fit over the free list.
  std::uint64_t prev = 0;
  std::uint64_t cur = meta.free_head;
  while (cur != 0) {
    const auto block_size = read<std::uint64_t>(cur);
    const auto next_free = read<std::uint64_t>(cur + 8);
    if (block_size >= need) {
      // Unlink.
      if (prev == 0) {
        meta.free_head = next_free;
      } else {
        tx_assign(prev + 8, next_free);
      }
      // Split if the remainder is worth keeping.
      std::uint64_t used = block_size;
      if (block_size - need >= kMinSplit) {
        used = need;
        const std::uint64_t rem = cur + need;
        tx_assign(rem, block_size - need);        // remainder size
        tx_assign(rem + 8, meta.free_head);        // push remainder
        meta.free_head = rem;
      }
      tx_assign(cur, used);
      tx_assign(cur + 8, std::uint64_t{0});
      meta.in_use += used;
      tx_assign(kAllocMetaOffset, meta);
      return cur + kBlockHeader;
    }
    prev = cur;
    cur = next_free;
  }

  // Bump allocation.
  if (meta.bump + need > main_size_) {
    throw PmError("Romulus::pmalloc: persistent heap exhausted");
  }
  const std::uint64_t block = meta.bump;
  meta.bump += need;
  meta.in_use += need;
  tx_assign(block, static_cast<std::uint64_t>(need));
  tx_assign(block + 8, std::uint64_t{0});
  tx_assign(kAllocMetaOffset, meta);
  return block + kBlockHeader;
}

void Romulus::pmfree(std::size_t offset) {
  expects(in_transaction(), "Romulus::pmfree outside a transaction");
  if (offset < kHeapStart + kBlockHeader || offset >= main_size_) {
    throw PmError("Romulus::pmfree: offset " + std::to_string(offset) +
                  " outside the heap [" + std::to_string(kHeapStart + kBlockHeader) +
                  ", " + std::to_string(main_size_) + ")");
  }
  const std::size_t block = offset - kBlockHeader;
  const auto block_size = read<std::uint64_t>(block);
  if (block_size == 0 || block + block_size > main_size_) {
    throw PmError("Romulus::pmfree: corrupt block header at offset " +
                  std::to_string(block) + ": size " + std::to_string(block_size) +
                  " overruns main size " + std::to_string(main_size_));
  }
  auto meta = read<AllocMeta>(kAllocMetaOffset);
  if (meta.in_use < block_size) {
    throw PmError("Romulus::pmfree: accounting underflow freeing block at offset " +
                  std::to_string(block) + ": size " + std::to_string(block_size) +
                  " > in_use " + std::to_string(meta.in_use) +
                  " (double free or corrupt allocator metadata?)");
  }
  tx_assign(block + 8, meta.free_head);
  meta.free_head = block;
  meta.in_use -= block_size;
  tx_assign(kAllocMetaOffset, meta);
}

std::size_t Romulus::allocated_bytes() const {
  return read<AllocMeta>(kAllocMetaOffset).in_use;
}

void Romulus::validate_allocator() const {
  const auto meta = read<AllocMeta>(kAllocMetaOffset);
  const auto fail = [](const std::string& why) {
    throw PmError("Romulus::validate_allocator: " + why);
  };
  if (meta.bump < kHeapStart || meta.bump > main_size_) fail("bump out of range");
  if ((meta.bump - kHeapStart) % pm::kCacheLine != 0) fail("bump misaligned");

  // Pass 1: the free list — in-range, aligned, acyclic, sane sizes.
  std::unordered_set<std::uint64_t> free_blocks;
  for (std::uint64_t cur = meta.free_head; cur != 0;) {
    if (cur < kHeapStart || cur >= meta.bump) fail("free block outside the heap");
    if ((cur - kHeapStart) % pm::kCacheLine != 0) fail("free block misaligned");
    if (!free_blocks.insert(cur).second) fail("free-list cycle");
    const auto size = read<std::uint64_t>(cur);
    if (size < pm::kCacheLine || size % pm::kCacheLine != 0) {
      fail("free block has a corrupt size");
    }
    if (size > meta.bump - cur) fail("free block overruns bump");
    cur = read<std::uint64_t>(cur + 8);
  }

  // Pass 2: the heap is a contiguous tiling of blocks [kHeapStart, bump);
  // each block is either on the free list or accounted in in_use, and every
  // free-list entry sits on a block boundary (no double-linked half-blocks).
  std::uint64_t used_bytes = 0;
  std::uint64_t free_bytes = 0;
  std::size_t free_seen = 0;
  for (std::uint64_t off = kHeapStart; off != meta.bump;) {
    if (off > meta.bump) fail("heap walk overruns bump");
    const auto size = read<std::uint64_t>(off);
    if (size < pm::kCacheLine || size % pm::kCacheLine != 0) {
      fail("block has a corrupt size");
    }
    if (size > meta.bump - off) fail("block overruns bump");
    if (free_blocks.contains(off)) {
      free_bytes += size;
      ++free_seen;
    } else {
      used_bytes += size;
    }
    off += size;
  }
  if (free_seen != free_blocks.size()) fail("free block off any block boundary");
  if (used_bytes != meta.in_use) fail("in_use does not match live blocks");
  if (used_bytes + free_bytes != meta.bump - kHeapStart) {
    fail("used + free bytes do not tile the heap");
  }
}

}  // namespace plinius::romulus
