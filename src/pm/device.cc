#include "pm/device.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <new>
#include <utility>

#include <sys/mman.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.h"
#include "obs/trace.h"
#include "pm/faultpoint.h"

namespace plinius::pm {

namespace {

constexpr std::uint64_t kAllLines = ~std::uint64_t{0};

// Calls f(w, mask) for each bitmap word w overlapping lines [first, last];
// `mask` selects the word's lines inside the range.
template <class F>
void for_each_word(std::size_t first, std::size_t last, F&& f) {
  const std::size_t wf = first / 64;
  const std::size_t wl = last / 64;
  for (std::size_t w = wf; w <= wl; ++w) {
    const std::uint64_t lo = w == wf ? kAllLines << (first % 64) : kAllLines;
    const std::uint64_t hi = w == wl ? kAllLines >> (63 - last % 64) : kAllLines;
    f(w, lo & hi);
  }
}

// Calls f(line) for each set bit of `bits`, lowest first; bit i is line base+i.
template <class F>
void for_each_bit(std::uint64_t bits, std::size_t base, F&& f) {
  for (; bits != 0; bits &= bits - 1) {
    f(base + static_cast<std::size_t>(std::countr_zero(bits)));
  }
}

// Calls f(lo, n) for each maximal run of set bits of `bits`: bits lo..lo+n-1.
template <class F>
void for_each_span(std::uint64_t bits, F&& f) {
  while (bits != 0) {
    const int lo = std::countr_zero(bits);
    const int n = std::countr_one(bits >> lo);
    f(static_cast<std::size_t>(lo), static_cast<std::size_t>(n));
    if (lo + n == 64) break;
    bits &= kAllLines << (lo + n);
  }
}

// Lines per 64 KiB: the shortest copy worth streaming past the cache, and
// the longest run for_each_run hands over at once.
constexpr std::size_t kStreamLines = 1024;

// Walks lines [first, last] word by word: take(w, mask) returns the lines of
// word w to act on (and may update the bitmaps), and emit(first, count) gets
// the runs of taken lines, ascending, merged across word edges. A run is
// handed over once it reaches kStreamLines at a word edge, while the lines
// take() just read are still in cache; a longer run arrives as consecutive
// pieces.
template <class Take, class Emit>
void for_each_run(std::size_t first, std::size_t last, Take&& take, Emit&& emit) {
  std::size_t run = 0;
  std::size_t count = 0;
  for_each_word(first, last, [&](std::size_t w, std::uint64_t mask) {
    for_each_span(take(w, mask), [&](std::size_t lo, std::size_t n) {
      const std::size_t line = w * 64 + lo;
      if (count > 0 && run + count == line) {
        count += n;
      } else {
        if (count > 0) emit(run, count);
        run = line;
        count = n;
      }
    });
    if (count >= kStreamLines) {
      emit(run, count);
      count = 0;
    }
  });
  if (count > 0) emit(run, count);
}

// True if the kCacheLine bytes at a and b are equal.
bool line_equal(const std::uint8_t* a, const std::uint8_t* b) {
#if defined(__SSE2__)
  __m128i eq = _mm_set1_epi8(-1);
  for (std::size_t i = 0; i < kCacheLine; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    eq = _mm_and_si128(eq, _mm_cmpeq_epi8(x, y));
  }
  return _mm_movemask_epi8(eq) == 0xFFFF;
#else
  return std::memcmp(a, b, kCacheLine) == 0;
#endif
}

// Copies at or above this length stream; shorter ones are not worth the
// store fence and would leave partial write-combining buffers.
constexpr std::size_t kStreamMin = kStreamLines * kCacheLine;

#if defined(__SSE2__)
// Copies `len` bytes, a multiple of 64, with SSE2 (baseline x86-64)
// non-temporal stores to a 16-byte aligned `dst`. Callers fence.
void stream_body(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  for (std::size_t i = 0; i < len; i += 64) {
    auto* d = reinterpret_cast<__m128i*>(dst + i);
    const auto* s = reinterpret_cast<const __m128i*>(src + i);
    const __m128i v0 = _mm_loadu_si128(s);
    const __m128i v1 = _mm_loadu_si128(s + 1);
    const __m128i v2 = _mm_loadu_si128(s + 2);
    const __m128i v3 = _mm_loadu_si128(s + 3);
    _mm_stream_si128(d, v0);
    _mm_stream_si128(d + 1, v1);
    _mm_stream_si128(d + 2, v2);
    _mm_stream_si128(d + 3, v3);
  }
}
#endif

// memcpy for the device's write-mostly destinations: Romulus' back copy,
// which only a crash, recovery, abort or scrub reads. A long copy writes it
// with non-temporal stores, which skip the read-for-ownership of every
// destination line and leave the cache to what the enclave reads next.
// Same bytes as memcpy.
void stream_copy(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
#if defined(__SSE2__)
  if (len >= kStreamMin) {
    const std::size_t head = (0 - reinterpret_cast<std::uintptr_t>(dst)) % 16;
    const std::size_t body = (len - head) / 64 * 64;
    std::memcpy(dst, src, head);
    stream_body(dst + head, src + head, body);
    _mm_sfence();
    std::memcpy(dst + head + body, src + head + body, len - head - body);
    return;
  }
#endif
  std::memcpy(dst, src, len);
}

// Copies whole cache lines into undo slots; with `stream` (a long store),
// by non-temporal stores, which the caller fences. Entries are write-mostly
// as well (only a crash, a media fault or an image read reads them back),
// and a whole-line non-temporal store needs no read-for-ownership.
void copy_lines(std::uint8_t* dst, const std::uint8_t* src, std::size_t len, bool stream) {
#if defined(__SSE2__)
  if (stream) {
    stream_body(dst, src, len);
    return;
  }
#endif
  std::memcpy(dst, src, len);
}

void store_fence() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

// Copies into `dst` the lines of `src` that differ from it, `len` a multiple
// of kCacheLine: an equal line is only read, so a demand-zero page that
// stays zero is never faulted in. Runs are copied every 64 KiB, while their
// source is still in cache from the comparison.
void copy_changed_lines(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  std::size_t run = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < len; i += kCacheLine) {
    if (!line_equal(dst + i, src + i)) {
      if (n == 0) run = i;
      n += kCacheLine;
      if (n < kStreamMin) continue;
    }
    if (n > 0) std::memcpy(dst + run, src + run, n);
    n = 0;
  }
  if (n > 0) std::memcpy(dst + run, src + run, n);
}

// The staging chunk of image save and load.
constexpr std::size_t kImageChunk = std::size_t{1} << 20;

}  // namespace

PmDevice::PmDevice(sim::Clock& clock, std::size_t size, PmLatencyModel model,
                   std::uint64_t crash_seed)
    : clock_(&clock),
      size_(align_up(size, kCacheLine)),
      model_(model),
      image_(map_demand_zero(size_)),
      crash_rng_(crash_seed) {
  const std::size_t words = (size_ / kCacheLine + 63) / 64;
  dirty_bits_.assign(words, 0);
  pending_bits_.assign(words, 0);
  undo_bits_.assign(words, 0);
  undo_blocks_.assign(words, nullptr);
  poison_bits_.assign(words, 0);
}

PmDevice::Image PmDevice::map_demand_zero(std::size_t size) {
  expects(size > 0, "PmDevice: size must be positive");
  void* image = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
  if (image == MAP_FAILED) throw std::bad_alloc();
  Image owned(static_cast<std::uint8_t*>(image), Unmap{size});
  // 4 KiB pages only, whatever the host's THP policy: a huge page would make
  // one touched line resident with its 2 MiB neighbours. EINVAL is a kernel
  // without THP, which has no huge pages to refuse.
  if (::madvise(image, size, MADV_NOHUGEPAGE) != 0 && errno != EINVAL) {
    throw PmError(std::string("PmDevice: madvise(MADV_NOHUGEPAGE) failed: ") +
                  std::strerror(errno));
  }
  return owned;
}

void PmDevice::Unmap::operator()(std::uint8_t* image) const noexcept {
  ::munmap(image, size);
}

void PmDevice::check_range(std::size_t offset, std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    throw PmError("PmDevice: access out of range");
  }
}

bool PmDevice::test_bit(const std::vector<std::uint64_t>& bits, std::size_t line) noexcept {
  return (bits[line / 64] >> (line % 64)) & 1;
}

void PmDevice::set_bit(std::vector<std::uint64_t>& bits, std::size_t line) noexcept {
  bits[line / 64] |= (std::uint64_t{1} << (line % 64));
}

// --- undo store ------------------------------------------------------------------

void PmDevice::capture(std::size_t w, std::uint64_t bits, bool stream) {
  bits &= ~undo_bits_[w];
  if (bits == 0) return;
  UndoBlock*& block = undo_blocks_[w];
  if (block == nullptr) {
    if (undo_free_.empty()) {
      undo_pool_.push_back(std::make_unique_for_overwrite<UndoBlock>());
      block = undo_pool_.back().get();
    } else {
      block = undo_free_.back();
      undo_free_.pop_back();
    }
  }
  for_each_span(bits, [&](std::size_t lo, std::size_t n) {
    copy_lines(block->line[lo], image_.get() + (w * 64 + lo) * kCacheLine, n * kCacheLine,
               stream);
  });
  undo_bits_[w] |= bits;
  undo_count_ += static_cast<std::size_t>(std::popcount(bits));
}

void PmDevice::put_entry(std::size_t line, const std::uint8_t* bytes) {
  const std::size_t w = line / 64;
  capture(w, std::uint64_t{1} << (line % 64), /*stream=*/false);
  std::memcpy(undo_blocks_[w]->line[line % 64], bytes, kCacheLine);
}

void PmDevice::drop(std::size_t w, std::uint64_t bits) {
  bits &= undo_bits_[w];
  if (bits == 0) return;
  undo_bits_[w] &= ~bits;
  undo_count_ -= static_cast<std::size_t>(std::popcount(bits));
  if (undo_bits_[w] == 0) {
    undo_free_.push_back(std::exchange(undo_blocks_[w], nullptr));
  }
}

void PmDevice::commit(std::size_t w, std::uint64_t bits) {
  drop(w, bits);
  // A full-line write-back remaps a poisoned line (ndctl clear-error
  // semantics): the media location is good again.
  if (poisoned_count_ == 0) return;
  const auto cleared = static_cast<std::size_t>(std::popcount(poison_bits_[w] & bits));
  poison_bits_[w] &= ~bits;
  poisoned_count_ -= cleared;
  stats_.poison_cleared += cleared;
}

// --- stores ----------------------------------------------------------------------

void PmDevice::store(std::size_t offset, const void* src, std::size_t len) {
  if (len == 0) return;
  check_range(offset, len);
  write(offset, static_cast<const std::uint8_t*>(src), len, /*stream=*/false);
}

void PmDevice::copy_within(std::size_t dst, std::size_t src, std::size_t len) {
  check_range(src, len);
  expects(src + len <= dst || dst + len <= src, "PmDevice::copy_within: ranges overlap");
  if (len == 0) return;
  check_range(dst, len);
  write(dst, image_.get() + src, len, /*stream=*/true);
}

void PmDevice::attach_fault_injector(FaultInjector* injector) {
  expects(injector == nullptr || injector_ == nullptr,
          "PmDevice: a fault injector is already attached");
  injector_ = injector;
}

void PmDevice::mark_dirty(std::size_t w, std::uint64_t mask) {
  for_each_bit(pending_bits_[w] & mask, w * 64, [&](std::size_t line) {
    if (pending_snapshots_.contains(line)) return;
    // Copy-on-write: the flushed-but-unfenced content must be preserved —
    // it, not the new store, is what the fence will persist.
    std::array<std::uint8_t, kCacheLine> snap;
    std::memcpy(snap.data(), image_.get() + line * kCacheLine, kCacheLine);
    pending_snapshots_.emplace(line, snap);
  });
  dirty_count_ += static_cast<std::size_t>(std::popcount(mask & ~dirty_bits_[w]));
  dirty_bits_[w] |= mask;
}

void PmDevice::record_store(std::size_t offset, std::size_t len) {
  if (len == 0) return;
  check_range(offset, len);
  // Every store op is a crash point before it acts: a crash here leaves its
  // lines as they were.
  if (injector_ != nullptr) injector_->on_op(FaultOp::kStore, offset, len);
  const bool stream = len >= kStreamMin;
  for_each_word(offset / kCacheLine, (offset + len - 1) / kCacheLine,
                [&](std::size_t w, std::uint64_t mask) {
    mark_dirty(w, mask);
    capture(w, mask, stream);
  });
  if (stream) store_fence();
  charge_store(len);
}

void PmDevice::write(std::size_t offset, const std::uint8_t* src, std::size_t len,
                     bool stream) {
  if (injector_ != nullptr) injector_->on_op(FaultOp::kStore, offset, len);
  const std::size_t end = offset + len;
  const bool stream_entries = len >= kStreamMin;
  std::uint8_t* const image = image_.get();
  for_each_run(offset / kCacheLine, (end - 1) / kCacheLine,
               [&](std::size_t w, std::uint64_t mask) {
                 mark_dirty(w, mask);
                 std::uint64_t changed = 0;
                 const std::size_t base = w * 64 * kCacheLine;
                 if (mask == kAllLines && base >= offset && base + 64 * kCacheLine <= end) {
                   // A word of whole lines, the bulk of a long store.
                   const std::uint8_t* from = src + (base - offset);
                   for (std::size_t i = 0; i < 64; ++i) {
                     if (!line_equal(image + base + i * kCacheLine, from + i * kCacheLine)) {
                       changed |= std::uint64_t{1} << i;
                     }
                   }
                 } else {
                   for_each_bit(mask, w * 64, [&](std::size_t line) {
                     const std::size_t lo = std::max(offset, line * kCacheLine);
                     const std::size_t hi = std::min(end, (line + 1) * kCacheLine);
                     if (std::memcmp(image + lo, src + (lo - offset), hi - lo) != 0) {
                       changed |= std::uint64_t{1} << (line % 64);
                     }
                   });
                 }
                 capture(w, changed, stream_entries);
                 return changed;
               },
               [&](std::size_t run, std::size_t count) {
                 const std::size_t lo = std::max(offset, run * kCacheLine);
                 const std::size_t hi = std::min(end, (run + count) * kCacheLine);
                 if (stream) {
                   stream_copy(image + lo, src + (lo - offset), hi - lo);
                 } else {
                   std::memcpy(image + lo, src + (lo - offset), hi - lo);
                 }
               });
  if (stream_entries) store_fence();
  charge_store(len);
}

void PmDevice::charge_store(std::size_t len) {
  ++stats_.stores;
  stats_.bytes_stored += len;
  const sim::Nanos t0 = clock_->now();
  clock_->advance(sim::bandwidth_ns(static_cast<double>(len), model_.store_gib_s));
  const obs::Attr a[] = {{"bytes", static_cast<double>(len)}};
  obs::trace_complete(*clock_, obs::Category::kPmStore, "pm.store", t0,
                      clock_->now(), a, 1);
}

void PmDevice::load(std::size_t offset, void* dst, std::size_t len) {
  check_range(offset, len);
  if (poisoned_count_ > 0 && len > 0) {
    const std::size_t first = offset / kCacheLine;
    const std::size_t last = (offset + len - 1) / kCacheLine;
    for (std::size_t line = first; line <= last; ++line) {
      if (test_bit(poison_bits_, line)) {
        throw PmError("PmDevice::load: poisoned line " + std::to_string(line) +
                      " (uncorrectable media error) in read [" +
                      std::to_string(offset) + ", +" + std::to_string(len) + ")");
      }
    }
  }
  charge_read(len);
  std::memcpy(dst, image_.get() + offset, len);
}

void PmDevice::charge_read(std::size_t len) {
  stats_.bytes_read += len;
  const sim::Nanos t0 = clock_->now();
  clock_->advance(model_.read_latency_ns +
                  sim::bandwidth_ns(static_cast<double>(len), model_.read_gib_s));
  const obs::Attr a[] = {{"bytes", static_cast<double>(len)}};
  obs::trace_complete(*clock_, obs::Category::kPmRead, "pm.read", t0,
                      clock_->now(), a, 1);
}

// --- flush, fence, crash ------------------------------------------------------------

void PmDevice::append_pending_run(std::size_t first, std::size_t count) {
  if (!pending_runs_.empty() &&
      pending_runs_.back().first + pending_runs_.back().count == first) {
    pending_runs_.back().count += count;
  } else {
    pending_runs_.push_back({first, count});
  }
}

void PmDevice::commit_pending() {
  for (const LineRun& run : pending_runs_) {
    for_each_word(run.first, run.first + run.count - 1,
                  [&](std::size_t w, std::uint64_t mask) {
      // Lines already committed by clflush have a clear bit.
      const std::uint64_t bits = pending_bits_[w] & mask;
      pending_bits_[w] &= ~bits;
      pending_count_ -= static_cast<std::size_t>(std::popcount(bits));
      commit(w, bits);
    });
  }
  // A line stored after its flush persists its flushed content, not the
  // newer image bytes, and stays dirty: the snapshot becomes its entry. (A
  // re-flushed line is clean, and its snapshot equals the image.)
  for (const auto& [line, snap] : pending_snapshots_) {
    if (test_bit(dirty_bits_, line)) put_entry(line, snap.data());
  }
  pending_runs_.clear();
  pending_snapshots_.clear();
}

void PmDevice::flush(std::size_t offset, std::size_t len, FlushKind kind) {
  if (len == 0) return;
  check_range(offset, len);
  if (injector_ != nullptr) injector_->on_op(FaultOp::kFlush, offset, len);
  ++stats_.flushes;

  // Dirty or pending lines act; clean lines are no-ops. Every acting line
  // leaves the dirty set.
  std::size_t acted = 0;
  const auto act = [&](std::size_t w, std::uint64_t mask) {
    const std::uint64_t dirty = dirty_bits_[w] & mask;
    const std::uint64_t pend = pending_bits_[w] & mask;
    acted += static_cast<std::size_t>(std::popcount(dirty | pend));
    dirty_bits_[w] &= ~dirty;
    dirty_count_ -= static_cast<std::size_t>(std::popcount(dirty));
    return std::pair{dirty, pend};
  };
  const std::size_t first = offset / kCacheLine;
  const std::size_t last = (offset + len - 1) / kCacheLine;
  if (kind == FlushKind::kClflush) {
    // Strongly ordered: the line is persistent when the instruction
    // retires, no fence needed (Romulus' clflush+nop combination). A pending
    // line leaves the pending set; its run entry stays and is skipped.
    for_each_word(first, last, [&](std::size_t w, std::uint64_t mask) {
      const auto [dirty, pend] = act(w, mask);
      pending_bits_[w] &= ~pend;
      pending_count_ -= static_cast<std::size_t>(std::popcount(pend));
      if (!pending_snapshots_.empty()) {
        for_each_bit(pend, w * 64, [&](std::size_t line) { pending_snapshots_.erase(line); });
      }
      commit(w, dirty | pend);
    });
  } else {
    for_each_run(first, last,
                 [&](std::size_t w, std::uint64_t mask) {
                   const auto [dirty, pend] = act(w, mask);
                   if (!pending_snapshots_.empty()) {
                     // Re-flush of a pending line: the newest content wins.
                     for_each_bit(pend, w * 64, [&](std::size_t line) {
                       if (auto it = pending_snapshots_.find(line);
                           it != pending_snapshots_.end()) {
                         std::memcpy(it->second.data(),
                                     image_.get() + line * kCacheLine, kCacheLine);
                       }
                     });
                   }
                   const std::uint64_t fresh = dirty & ~pend;
                   pending_bits_[w] |= fresh;
                   pending_count_ += static_cast<std::size_t>(std::popcount(fresh));
                   return fresh;
                 },
                 [&](std::size_t run, std::size_t count) { append_pending_run(run, count); });
  }

  stats_.lines_flushed += acted;
  const double issue_ns = kind == FlushKind::kClflush       ? model_.clflush_ns
                          : kind == FlushKind::kClflushOpt ? model_.clflushopt_issue_ns
                                                           : model_.clwb_issue_ns;
  const sim::Nanos t0 = clock_->now();
  clock_->advance(static_cast<double>(acted) *
                  (issue_ns + sim::bandwidth_ns(kCacheLine, model_.flush_drain_gib_s)));
  const obs::Attr a[] = {{"lines", static_cast<double>(acted)}};
  obs::trace_complete(*clock_, obs::Category::kPmFlush, "pm.flush", t0,
                      clock_->now(), a, 1);
}

void PmDevice::fence(FenceKind kind) {
  // Nop fences count as crash points too: the clflush+nop policy's "fence"
  // sites are protocol boundaries even though the hardware does nothing.
  if (injector_ != nullptr) injector_->on_op(FaultOp::kFence, 0, 0);
  ++stats_.fences;
  if (kind == FenceKind::kNop) return;
  const sim::Nanos t0 = clock_->now();
  clock_->advance(model_.sfence_ns);
  obs::trace_complete(*clock_, obs::Category::kPmFence, "pm.fence", t0,
                      clock_->now());
  commit_pending();
}

void PmDevice::crash(CrashOutcome outcome) {
  ++stats_.crashes;
  // Fold pending into dirty before the coins clear it: every line that does
  // not persist is restored from its entry below.
  for (std::size_t w = 0; w < dirty_bits_.size(); ++w) dirty_bits_[w] |= pending_bits_[w];

  // Weakly-ordered flushes that were not fenced may or may not have reached
  // the ADR-protected write-pending queue: commit each with probability 1/2
  // (or deterministically, when a sweep pins the coin flip). Coins are drawn
  // in pending-list order, one per line still pending at its first entry.
  if (outcome == CrashOutcome::kPersistAll) {
    commit_pending();
  } else {
    for (const LineRun& run : pending_runs_) {
      for_each_word(run.first, run.first + run.count - 1,
                    [&](std::size_t w, std::uint64_t mask) {
        const std::uint64_t bits = pending_bits_[w] & mask;
        pending_bits_[w] &= ~bits;
        if (outcome != CrashOutcome::kSeededRandom) return;
        for_each_bit(bits, w * 64, [&](std::size_t line) {
          ++stats_.crash_coin_flips;
          if ((crash_rng_.next() & 1) == 0) return;
          const std::uint64_t bit = std::uint64_t{1} << (line % 64);
          commit(w, bit);
          if (const auto it = pending_snapshots_.find(line); it != pending_snapshots_.end()) {
            put_entry(line, it->second.data());
          }
        });
      });
    }
    pending_runs_.clear();
    pending_snapshots_.clear();
  }
  pending_count_ = 0;

  // Dirty-unflushed lines never left the cache: lost. Each line with an
  // entry gets its persisted bytes back; the rest already hold them.
  std::uint8_t* const image = image_.get();
  for (std::size_t w = 0; w < dirty_bits_.size(); ++w) {
    const std::uint64_t restore = std::exchange(dirty_bits_[w], 0) & undo_bits_[w];
    if (restore == 0) continue;
    const UndoBlock* block = undo_blocks_[w];
    for_each_span(restore, [&](std::size_t lo, std::size_t n) {
      std::memcpy(image + (w * 64 + lo) * kCacheLine, block->line[lo], n * kCacheLine);
    });
    drop(w, restore);
  }
  dirty_count_ = 0;
}

void PmDevice::reset_state() {
  std::fill(dirty_bits_.begin(), dirty_bits_.end(), 0);
  std::fill(pending_bits_.begin(), pending_bits_.end(), 0);
  dirty_count_ = 0;
  pending_count_ = 0;
  pending_runs_.clear();
  pending_snapshots_.clear();
  for (std::size_t w = 0; w < undo_bits_.size(); ++w) drop(w, kAllLines);
  // Rewinding to a known-good image models replaced/repaired media too.
  std::fill(poison_bits_.begin(), poison_bits_.end(), 0);
  poisoned_count_ = 0;
}

// --- images ------------------------------------------------------------------------

void PmDevice::read_persistent(std::size_t offset, void* dst, std::size_t len) const {
  check_range(offset, len);
  auto* out = static_cast<std::uint8_t*>(dst);
  std::memcpy(out, image_.get() + offset, len);
  if (undo_count_ == 0 || len == 0) return;
  const std::size_t end = offset + len;
  for_each_word(offset / kCacheLine, (end - 1) / kCacheLine,
                [&](std::size_t w, std::uint64_t mask) {
    for_each_bit(undo_bits_[w] & mask, w * 64, [&](std::size_t line) {
      const std::size_t lo = std::max(offset, line * kCacheLine);
      const std::size_t hi = std::min(end, (line + 1) * kCacheLine);
      std::memcpy(out + (lo - offset), undo_blocks_[w]->line[line % 64] + lo % kCacheLine,
                  hi - lo);
    });
  });
}

void PmDevice::save_image(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw PmError("PmDevice::save_image: cannot open " + path);
  Bytes chunk(std::min(size_, kImageChunk));
  for (std::size_t off = 0; off < size_ && out; off += chunk.size()) {
    const std::size_t n = std::min(chunk.size(), size_ - off);
    read_persistent(off, chunk.data(), n);
    out.write(reinterpret_cast<const char*>(chunk.data()), static_cast<std::streamsize>(n));
  }
  if (!out) throw PmError("PmDevice::save_image: short write to " + path);
}

void PmDevice::load_image(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw PmError("PmDevice::load_image: cannot open " + path);
  // An image from a differently-sized arena must be rejected in both
  // directions: a short file would leave stale tail bytes posing as
  // persisted state, a long one would be silently truncated.
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size != size_) {
    throw PmError("PmDevice::load_image: image " + path + " is " +
                  std::to_string(file_size) + " bytes, arena is " +
                  std::to_string(size_));
  }
  in.seekg(0, std::ios::beg);
  Bytes chunk(std::min(size_, kImageChunk));
  for (std::size_t off = 0; off < size_; off += chunk.size()) {
    const std::size_t n = std::min(chunk.size(), size_ - off);
    in.read(reinterpret_cast<char*>(chunk.data()), static_cast<std::streamsize>(n));
    if (in.gcount() != static_cast<std::streamsize>(n)) {
      throw PmError("PmDevice::load_image: short read from " + path);
    }
    copy_changed_lines(image_.get() + off, chunk.data(), n);
  }
  reset_state();
}

// --- media faults --------------------------------------------------------------

namespace {
// Deterministic per-line garbage so fault sweeps are bit-reproducible.
void fill_garbage(std::uint8_t* dst, std::size_t len, std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = static_cast<std::uint8_t>(sm.next());
  }
}
}  // namespace

std::uint8_t* PmDevice::media_line(std::size_t line) {
  const std::size_t w = line / 64;
  const std::uint64_t bit = std::uint64_t{1} << (line % 64);
  if (((dirty_bits_[w] | pending_bits_[w]) & bit) == 0) {
    return image_.get() + line * kCacheLine;
  }
  capture(w, bit, /*stream=*/false);
  return undo_blocks_[w]->line[line % 64];
}

void PmDevice::flip_bit(std::size_t offset, unsigned bit) {
  check_range(offset, 1);
  media_line(offset / kCacheLine)[offset % kCacheLine] ^=
      static_cast<std::uint8_t>(1u << (bit % 8));
  ++stats_.media_bit_flips;
}

void PmDevice::tear_line(std::size_t line, std::uint64_t seed) {
  check_range(line * kCacheLine, kCacheLine);
  // The first half of the internal write landed; the second half is garbage.
  fill_garbage(media_line(line) + kCacheLine / 2, kCacheLine / 2, seed);
  ++stats_.media_torn_lines;
}

void PmDevice::poison_line(std::size_t line, std::uint64_t seed) {
  check_range(line * kCacheLine, kCacheLine);
  fill_garbage(media_line(line), kCacheLine, seed);
  if (!test_bit(poison_bits_, line)) {
    set_bit(poison_bits_, line);
    ++poisoned_count_;
  }
  ++stats_.media_poisoned_lines;
}

bool PmDevice::line_poisoned(std::size_t line) const noexcept {
  return line < size_ / kCacheLine && test_bit(poison_bits_, line);
}

std::vector<std::size_t> PmDevice::scrub_range(std::size_t offset, std::size_t len) {
  check_range(offset, len);
  std::vector<std::size_t> poisoned;
  if (len == 0) return poisoned;
  stats_.scrub_bytes += len;
  const sim::Nanos t0 = clock_->now();
  clock_->advance(model_.read_latency_ns +
                  sim::bandwidth_ns(static_cast<double>(len), model_.read_gib_s));
  const obs::Attr a[] = {{"bytes", static_cast<double>(len)}};
  obs::trace_complete(*clock_, obs::Category::kPmRead, "pm.scrub_read", t0,
                      clock_->now(), a, 1);
  if (poisoned_count_ == 0) return poisoned;
  for_each_word(offset / kCacheLine, (offset + len - 1) / kCacheLine,
                [&](std::size_t w, std::uint64_t mask) {
    for_each_bit(poison_bits_[w] & mask, w * 64,
                 [&](std::size_t line) { poisoned.push_back(line); });
  });
  return poisoned;
}

Bytes PmDevice::snapshot_persistent() const {
  Bytes image(size_);
  read_persistent(0, image.data(), size_);
  return image;
}

void PmDevice::restore_persistent(ByteSpan image) {
  if (image.size() != size_) {
    throw PmError("PmDevice::restore_persistent: image is " +
                  std::to_string(image.size()) + " bytes, arena is " +
                  std::to_string(size_));
  }
  copy_changed_lines(image_.get(), image.data(), size_);
  reset_state();
}

}  // namespace plinius::pm
