#include "pm/device.h"

#include <array>
#include <bit>
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

// Walks lines [first, last] word by word: take(w, mask) returns the lines of
// word w to act on (and may update the bitmaps), and emit(first, count) gets
// each maximal run of taken lines, ascending, merged across word edges.
template <class Take, class Emit>
void for_each_run(std::size_t first, std::size_t last, Take&& take, Emit&& emit) {
  std::size_t run = 0;
  std::size_t count = 0;
  for_each_word(first, last, [&](std::size_t w, std::uint64_t mask) {
    std::uint64_t bits = take(w, mask);
    while (bits != 0) {
      const int lo = std::countr_zero(bits);
      const int n = std::countr_one(bits >> lo);
      const std::size_t line = w * 64 + static_cast<std::size_t>(lo);
      if (count > 0 && run + count == line) {
        count += static_cast<std::size_t>(n);
      } else {
        if (count > 0) emit(run, count);
        run = line;
        count = static_cast<std::size_t>(n);
      }
      if (lo + n == 64) break;
      bits &= kAllLines << (lo + n);
    }
  });
  if (count > 0) emit(run, count);
}

// Copies at or above this length stream; shorter ones are not worth the
// store fence and would leave partial write-combining buffers.
constexpr std::size_t kStreamMin = std::size_t{64} << 10;

// memcpy for the device's write-mostly destinations: the persistent image
// and Romulus' back copy, which only a crash, recovery, abort or scrub
// reads. A long copy writes them with non-temporal stores (SSE2, baseline
// x86-64), which skip the read-for-ownership of every destination line and
// leave the cache to what the enclave reads next. Same bytes as memcpy.
void stream_copy(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
#if defined(__SSE2__)
  if (len >= kStreamMin) {
    const std::size_t head = (0 - reinterpret_cast<std::uintptr_t>(dst)) % 16;
    std::memcpy(dst, src, head);
    std::size_t i = head;
    for (; i + 64 <= len; i += 64) {
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
    _mm_sfence();
    std::memcpy(dst + i, src + i, len - i);
    return;
  }
#endif
  std::memcpy(dst, src, len);
}

}  // namespace

PmDevice::PmDevice(sim::Clock& clock, std::size_t size, PmLatencyModel model,
                   std::uint64_t crash_seed)
    : clock_(&clock),
      size_(align_up(size, kCacheLine)),
      model_(model),
      volatile_(map_zeroed(size_)),
      persistent_(map_zeroed(size_)),
      crash_rng_(crash_seed) {
  const std::size_t lines = size_ / kCacheLine;
  dirty_bits_.assign((lines + 63) / 64, 0);
  pending_bits_.assign((lines + 63) / 64, 0);
  poison_bits_.assign((lines + 63) / 64, 0);
}

PmDevice::Image PmDevice::map_zeroed(std::size_t size) {
  expects(size > 0, "PmDevice: size must be positive");
  void* image = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (image == MAP_FAILED) throw std::bad_alloc();
  return Image(static_cast<std::uint8_t*>(image), Unmap{size});
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

void PmDevice::clear_bit(std::vector<std::uint64_t>& bits, std::size_t line) noexcept {
  bits[line / 64] &= ~(std::uint64_t{1} << (line % 64));
}

void PmDevice::store(std::size_t offset, const void* src, std::size_t len) {
  record_store(offset, len);
  std::memcpy(volatile_.get() + offset, src, len);
}

void PmDevice::copy_within(std::size_t dst, std::size_t src, std::size_t len) {
  check_range(src, len);
  expects(src + len <= dst || dst + len <= src, "PmDevice::copy_within: ranges overlap");
  record_store(dst, len);
  stream_copy(volatile_.get() + dst, volatile_.get() + src, len);
}

void PmDevice::attach_fault_injector(FaultInjector* injector) {
  expects(injector == nullptr || injector_ == nullptr,
          "PmDevice: a fault injector is already attached");
  injector_ = injector;
}

void PmDevice::record_store(std::size_t offset, std::size_t len) {
  if (len == 0) return;
  check_range(offset, len);
  for_each_word(offset / kCacheLine, (offset + len - 1) / kCacheLine,
                [&](std::size_t w, std::uint64_t mask) {
    for_each_bit(pending_bits_[w] & mask, w * 64, [&](std::size_t line) {
      if (pending_snapshots_.contains(line)) return;
      // Copy-on-write: the flushed-but-unfenced content must be preserved —
      // it, not the new store, is what the fence will persist.
      std::array<std::uint8_t, kCacheLine> snap;
      std::memcpy(snap.data(), volatile_.get() + line * kCacheLine, kCacheLine);
      pending_snapshots_.emplace(line, snap);
    });
    dirty_count_ += static_cast<std::size_t>(std::popcount(mask & ~dirty_bits_[w]));
    dirty_bits_[w] |= mask;
  });
  // The lines are dirty before the injector may crash the device here, so
  // crash() restores them even when the caller wrote them through data()
  // ahead of this call (persist<T>, pm_make).
  if (injector_ != nullptr) injector_->on_op(FaultOp::kStore, offset, len);
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
  std::memcpy(dst, volatile_.get() + offset, len);
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

void PmDevice::commit_line(std::size_t line, const std::uint8_t* snapshot) {
  const std::uint8_t* src =
      snapshot != nullptr ? snapshot : volatile_.get() + line * kCacheLine;
  std::memcpy(persistent_.get() + line * kCacheLine, src, kCacheLine);
  // A full-line write-back remaps a poisoned line (ndctl clear-error
  // semantics): the media location is good again.
  if (poisoned_count_ > 0 && test_bit(poison_bits_, line)) {
    clear_bit(poison_bits_, line);
    --poisoned_count_;
    ++stats_.poison_cleared;
  }
}

void PmDevice::commit_run(std::size_t first, std::size_t count) {
  stream_copy(persistent_.get() + first * kCacheLine,
              volatile_.get() + first * kCacheLine, count * kCacheLine);
  if (poisoned_count_ == 0) return;
  for_each_word(first, first + count - 1, [&](std::size_t w, std::uint64_t mask) {
    const auto cleared = static_cast<std::size_t>(std::popcount(poison_bits_[w] & mask));
    poison_bits_[w] &= ~mask;
    poisoned_count_ -= cleared;
    stats_.poison_cleared += cleared;
  });
}

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
    for_each_run(run.first, run.first + run.count - 1,
                 [&](std::size_t w, std::uint64_t mask) {
                   // Lines already committed by clflush have a clear bit.
                   const std::uint64_t bits = pending_bits_[w] & mask;
                   pending_bits_[w] &= ~bits;
                   pending_count_ -= static_cast<std::size_t>(std::popcount(bits));
                   return bits;
                 },
                 [&](std::size_t first, std::size_t count) { commit_run(first, count); });
  }
  // Store-after-flush lines persist their flushed content, not the newer
  // volatile bytes the bulk copy wrote.
  for (const auto& [line, snap] : pending_snapshots_) commit_line(line, snap.data());
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
    for_each_run(first, last,
                 [&](std::size_t w, std::uint64_t mask) {
                   const auto [dirty, pend] = act(w, mask);
                   pending_bits_[w] &= ~pend;
                   pending_count_ -= static_cast<std::size_t>(std::popcount(pend));
                   if (!pending_snapshots_.empty()) {
                     for_each_bit(pend, w * 64, [&](std::size_t line) {
                       pending_snapshots_.erase(line);
                     });
                   }
                   return dirty | pend;
                 },
                 [&](std::size_t run, std::size_t count) { commit_run(run, count); });
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
                                     volatile_.get() + line * kCacheLine, kCacheLine);
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
  // Only dirty or pending lines can differ between the two images (a media
  // fault on a clean line hits both). Fold pending into dirty before the
  // coins clear it; those runs, and only those, are restored below.
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
          const auto it = pending_snapshots_.find(line);
          commit_line(line, it != pending_snapshots_.end() ? it->second.data() : nullptr);
        });
      });
    }
    pending_runs_.clear();
    pending_snapshots_.clear();
  }
  pending_count_ = 0;

  // Dirty-unflushed lines never left the cache: lost.
  for_each_run(0, size_ / kCacheLine - 1,
               [&](std::size_t w, std::uint64_t mask) {
                 return std::exchange(dirty_bits_[w], 0) & mask;
               },
               [&](std::size_t first, std::size_t count) {
                 std::memcpy(volatile_.get() + first * kCacheLine,
                             persistent_.get() + first * kCacheLine, count * kCacheLine);
               });
  dirty_count_ = 0;
}

void PmDevice::reset_to_persistent() {
  std::memcpy(volatile_.get(), persistent_.get(), size_);
  std::fill(dirty_bits_.begin(), dirty_bits_.end(), 0);
  std::fill(pending_bits_.begin(), pending_bits_.end(), 0);
  dirty_count_ = 0;
  pending_count_ = 0;
  pending_runs_.clear();
  pending_snapshots_.clear();
  // Rewinding to a known-good image models replaced/repaired media too.
  std::fill(poison_bits_.begin(), poison_bits_.end(), 0);
  poisoned_count_ = 0;
}

void PmDevice::save_image(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw PmError("PmDevice::save_image: cannot open " + path);
  out.write(reinterpret_cast<const char*>(persistent_.get()),
            static_cast<std::streamsize>(size_));
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
  in.read(reinterpret_cast<char*>(persistent_.get()), static_cast<std::streamsize>(size_));
  if (in.gcount() != static_cast<std::streamsize>(size_)) {
    throw PmError("PmDevice::load_image: short read from " + path);
  }
  reset_to_persistent();
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

void PmDevice::flip_bit(std::size_t offset, unsigned bit) {
  check_range(offset, 1);
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (bit % 8));
  persistent_[offset] ^= mask;
  const std::size_t line = offset / kCacheLine;
  if (!test_bit(dirty_bits_, line) && !test_bit(pending_bits_, line)) {
    volatile_[offset] ^= mask;
  }
  ++stats_.media_bit_flips;
}

void PmDevice::tear_line(std::size_t line, std::uint64_t seed) {
  const std::size_t offset = line * kCacheLine;
  check_range(offset, kCacheLine);
  // The first half of the internal write landed; the second half is garbage.
  fill_garbage(persistent_.get() + offset + kCacheLine / 2, kCacheLine / 2, seed);
  if (!test_bit(dirty_bits_, line) && !test_bit(pending_bits_, line)) {
    std::memcpy(volatile_.get() + offset, persistent_.get() + offset, kCacheLine);
  }
  ++stats_.media_torn_lines;
}

void PmDevice::poison_line(std::size_t line, std::uint64_t seed) {
  const std::size_t offset = line * kCacheLine;
  check_range(offset, kCacheLine);
  fill_garbage(persistent_.get() + offset, kCacheLine, seed);
  if (!test_bit(dirty_bits_, line) && !test_bit(pending_bits_, line)) {
    std::memcpy(volatile_.get() + offset, persistent_.get() + offset, kCacheLine);
  }
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
  return Bytes(persistent_.get(), persistent_.get() + size_);
}

void PmDevice::restore_persistent(ByteSpan image) {
  if (image.size() != size_) {
    throw PmError("PmDevice::restore_persistent: image is " +
                  std::to_string(image.size()) + " bytes, arena is " +
                  std::to_string(size_));
  }
  std::memcpy(persistent_.get(), image.data(), size_);
  reset_to_persistent();
}

}  // namespace plinius::pm
