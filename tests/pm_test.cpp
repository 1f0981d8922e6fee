#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "pm/device.h"
#include "pm/faultpoint.h"
#include "romulus/romulus.h"

#include <unistd.h>

namespace plinius::pm {
namespace {

class PmDeviceTest : public ::testing::Test {
 protected:
  sim::Clock clock_;
  PmDevice dev_{clock_, 64 * 1024, PmLatencyModel::optane(), /*crash_seed=*/1};
};

TEST_F(PmDeviceTest, SizeRoundedToCacheLine) {
  sim::Clock c;
  PmDevice d(c, 100, PmLatencyModel::optane());
  EXPECT_EQ(d.size(), 128u);
}

TEST_F(PmDeviceTest, RejectsZeroSize) {
  sim::Clock c;
  EXPECT_THROW(PmDevice(c, 0, PmLatencyModel::optane()), Error);
}

TEST_F(PmDeviceTest, StoreVisibleThroughLoad) {
  const char msg[] = "hello pm";
  dev_.store(128, msg, sizeof(msg));
  char back[sizeof(msg)];
  dev_.load(128, back, sizeof(back));
  EXPECT_STREQ(back, msg);
}

TEST_F(PmDeviceTest, OutOfRangeAccessThrows) {
  char byte = 0;
  EXPECT_THROW(dev_.store(dev_.size(), &byte, 1), PmError);
  EXPECT_THROW(dev_.store(dev_.size() - 1, &byte, 2), PmError);
  EXPECT_THROW(dev_.load(dev_.size(), &byte, 1), PmError);
  EXPECT_NO_THROW(dev_.store(dev_.size() - 1, &byte, 1));
}

TEST_F(PmDeviceTest, UnflushedStoreLostOnCrash) {
  const std::uint32_t v = 0xdeadbeef;
  dev_.store(0, &v, sizeof(v));
  dev_.crash();
  std::uint32_t back = 1;
  dev_.load(0, &back, sizeof(back));
  EXPECT_EQ(back, 0u);  // device starts zeroed; the store never persisted
}

TEST_F(PmDeviceTest, ClflushPersistsWithoutFence) {
  const std::uint32_t v = 0xdeadbeef;
  dev_.store(0, &v, sizeof(v));
  dev_.flush(0, sizeof(v), FlushKind::kClflush);
  // No fence: clflush is strongly ordered (the paper's clflush+nop combo).
  dev_.crash();
  std::uint32_t back = 0;
  dev_.load(0, &back, sizeof(back));
  EXPECT_EQ(back, v);
}

TEST_F(PmDeviceTest, ClflushOptRequiresFence) {
  // Without the fence, persistence of a clflushopt'd line is *not guaranteed*
  // (it persists with probability 1/2 in the model). With the fence it is.
  const std::uint64_t v = 0x1122334455667788ULL;
  dev_.store(0, &v, sizeof(v));
  dev_.flush(0, sizeof(v), FlushKind::kClflushOpt);
  dev_.fence(FenceKind::kSfence);
  dev_.crash();
  std::uint64_t back = 0;
  dev_.load(0, &back, sizeof(back));
  EXPECT_EQ(back, v);
}

TEST(PmCrash, UnfencedClflushOptSometimesLost) {
  // Across many seeds, an unfenced clflushopt must be lost at least once and
  // survive at least once — that nondeterminism is what fences eliminate.
  int survived = 0, lost = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    sim::Clock clock;
    PmDevice dev(clock, 4096, PmLatencyModel::optane(), seed);
    const std::uint32_t v = 0xabcd1234;
    dev.store(0, &v, sizeof(v));
    dev.flush(0, sizeof(v), FlushKind::kClflushOpt);
    dev.crash();  // no fence!
    std::uint32_t back = 0;
    dev.load(0, &back, sizeof(back));
    (back == v ? survived : lost)++;
  }
  EXPECT_GT(survived, 0);
  EXPECT_GT(lost, 0);
}

TEST_F(PmDeviceTest, StoreAfterFlushBeforeFencePersistsFlushedContent) {
  // The fence persists what was flushed, not what was stored afterwards.
  const std::uint32_t first = 0x11111111, second = 0x22222222;
  dev_.store(0, &first, sizeof(first));
  dev_.flush(0, sizeof(first), FlushKind::kClflushOpt);
  dev_.store(0, &second, sizeof(second));  // dirties the line again
  dev_.fence(FenceKind::kSfence);
  dev_.crash();
  std::uint32_t back = 0;
  dev_.load(0, &back, sizeof(back));
  EXPECT_EQ(back, first);
}

TEST_F(PmDeviceTest, ReflushAfterStoreUpdatesPending) {
  const std::uint32_t first = 0x11111111, second = 0x22222222;
  dev_.store(0, &first, sizeof(first));
  dev_.flush(0, sizeof(first), FlushKind::kClflushOpt);
  dev_.store(0, &second, sizeof(second));
  dev_.flush(0, sizeof(second), FlushKind::kClflushOpt);  // newest content wins
  dev_.fence(FenceKind::kSfence);
  dev_.crash();
  std::uint32_t back = 0;
  dev_.load(0, &back, sizeof(back));
  EXPECT_EQ(back, second);
}

TEST_F(PmDeviceTest, CrashRestoresVolatileFromPersistent) {
  const std::uint32_t committed = 0xAAAAAAAA;
  dev_.store(64, &committed, sizeof(committed));
  dev_.flush(64, sizeof(committed), FlushKind::kClflush);

  const std::uint32_t uncommitted = 0xBBBBBBBB;
  dev_.store(64, &uncommitted, sizeof(uncommitted));
  dev_.crash();

  std::uint32_t back = 0;
  dev_.load(64, &back, sizeof(back));
  EXPECT_EQ(back, committed);
}

// tx_fill, pm_make and persist<T> record a store and then write its bytes
// in place through data(). The record saves the lines' persisted bytes, so a
// crash at a later store op, with the bytes written, must bring back the
// committed value.
TEST_F(PmDeviceTest, CrashRestoresLinesWrittenAfterTheirRecord) {
  const std::uint32_t committed = 0xAAAAAAAA;
  dev_.store(200, &committed, sizeof(committed));
  dev_.flush(200, sizeof(committed), FlushKind::kClflush);

  FaultInjector fi(dev_);
  fi.arm(2);
  const std::uint32_t written = 0xCCCCCCCC;
  dev_.record_store(200, sizeof(written));
  std::memcpy(dev_.data() + 200, &written, sizeof(written));
  EXPECT_THROW(dev_.record_store(200, sizeof(written)), SimulatedCrash);
  dev_.crash(PmDevice::CrashOutcome::kDropAll);

  std::uint32_t back = 0;
  dev_.load(200, &back, sizeof(back));
  EXPECT_EQ(back, committed);
  Bytes persisted(dev_.size());
  dev_.read_persistent(0, persisted.data(), persisted.size());
  EXPECT_EQ(0, std::memcmp(dev_.data(), persisted.data(), dev_.size()));
  EXPECT_EQ(dev_.undo_lines(), 0u);
}

TEST_F(PmDeviceTest, QuiescentTracksCleanliness) {
  EXPECT_TRUE(dev_.quiescent());
  const std::uint8_t b = 7;
  dev_.store(0, &b, 1);
  EXPECT_FALSE(dev_.quiescent());
  dev_.flush(0, 1, FlushKind::kClflushOpt);
  EXPECT_FALSE(dev_.quiescent());  // pending, not yet fenced
  dev_.fence(FenceKind::kSfence);
  EXPECT_TRUE(dev_.quiescent());
}

TEST_F(PmDeviceTest, MultiLineRangeFlush) {
  std::uint8_t buf[1000];
  Rng(5).fill(buf, sizeof(buf));
  dev_.store(30, buf, sizeof(buf));  // crosses 17 cache lines, misaligned
  dev_.flush(30, sizeof(buf), FlushKind::kClflushOpt);
  dev_.fence(FenceKind::kSfence);
  dev_.crash();
  std::uint8_t back[1000];
  dev_.load(30, back, sizeof(back));
  EXPECT_EQ(0, memcmp(buf, back, sizeof(buf)));
}

TEST_F(PmDeviceTest, PersistentImagePeek) {
  const std::uint32_t v = 0x5555AAAA;
  dev_.store(0, &v, sizeof(v));
  std::uint32_t persisted = 1;
  dev_.read_persistent(0, &persisted, sizeof(persisted));
  EXPECT_EQ(persisted, 0u);  // not yet flushed
  dev_.flush(0, sizeof(v), FlushKind::kClflush);
  dev_.read_persistent(0, &persisted, sizeof(persisted));
  EXPECT_EQ(persisted, v);
}

TEST_F(PmDeviceTest, StatsCountOperations) {
  const std::uint8_t b[128] = {};
  dev_.store(0, b, sizeof(b));
  dev_.flush(0, sizeof(b), FlushKind::kClflushOpt);
  dev_.fence(FenceKind::kSfence);
  const auto& s = dev_.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.bytes_stored, 128u);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_EQ(s.lines_flushed, 2u);
  EXPECT_EQ(s.fences, 1u);
  dev_.reset_stats();
  EXPECT_EQ(dev_.stats().stores, 0u);
}

TEST_F(PmDeviceTest, TimeAdvancesWithOperations) {
  const auto t0 = clock_.now();
  std::uint8_t buf[4096];
  Rng(1).fill(buf, sizeof(buf));
  dev_.store(0, buf, sizeof(buf));
  const auto t1 = clock_.now();
  EXPECT_GT(t1, t0);
  dev_.flush(0, sizeof(buf), FlushKind::kClflushOpt);
  dev_.fence(FenceKind::kSfence);
  const auto t2 = clock_.now();
  EXPECT_GT(t2, t1);
}

TEST_F(PmDeviceTest, ClflushCostsMoreThanClflushOptPerLine) {
  std::uint8_t buf[4096];
  Rng(2).fill(buf, sizeof(buf));

  sim::Clock c1, c2;
  PmDevice d1(c1, 8192, PmLatencyModel::optane());
  PmDevice d2(c2, 8192, PmLatencyModel::optane());
  d1.store(0, buf, sizeof(buf));
  d2.store(0, buf, sizeof(buf));

  sim::Stopwatch s1(c1);
  d1.flush(0, sizeof(buf), FlushKind::kClflush);
  d1.fence(FenceKind::kNop);
  const auto clflush_time = s1.elapsed();

  sim::Stopwatch s2(c2);
  d2.flush(0, sizeof(buf), FlushKind::kClflushOpt);
  d2.fence(FenceKind::kSfence);
  const auto clflushopt_time = s2.elapsed();

  EXPECT_GT(clflush_time, clflushopt_time);
}

TEST_F(PmDeviceTest, ClwbBehavesLikeClflushOptForPersistence) {
  const std::uint64_t v = 0x77;
  dev_.store(0, &v, sizeof(v));
  dev_.flush(0, sizeof(v), FlushKind::kClwb);
  EXPECT_FALSE(dev_.quiescent());  // needs the fence
  dev_.fence(FenceKind::kSfence);
  EXPECT_TRUE(dev_.quiescent());
  dev_.crash();
  std::uint64_t back = 0;
  dev_.load(0, &back, sizeof(back));
  EXPECT_EQ(back, v);
}

TEST_F(PmDeviceTest, ClwbSlightlyCheaperThanClflushOpt) {
  std::uint8_t buf[4096];
  Rng(9).fill(buf, sizeof(buf));
  sim::Clock c1, c2;
  PmDevice d1(c1, 8192, PmLatencyModel::optane());
  PmDevice d2(c2, 8192, PmLatencyModel::optane());
  d1.store(0, buf, sizeof(buf));
  d2.store(0, buf, sizeof(buf));
  sim::Stopwatch s1(c1);
  d1.flush(0, sizeof(buf), FlushKind::kClwb);
  const auto clwb_ns = s1.elapsed();
  sim::Stopwatch s2(c2);
  d2.flush(0, sizeof(buf), FlushKind::kClflushOpt);
  EXPECT_LT(clwb_ns, s2.elapsed());
}

TEST_F(PmDeviceTest, FlushingCleanLinesIsFree) {
  dev_.flush(0, 4096, FlushKind::kClflushOpt);
  EXPECT_EQ(dev_.stats().lines_flushed, 0u);
}

TEST_F(PmDeviceTest, SaveAndLoadImage) {
  const char msg[] = "persisted across processes";
  dev_.store(256, msg, sizeof(msg));
  dev_.flush(256, sizeof(msg), FlushKind::kClflush);
  const std::string path = ::testing::TempDir() + "/pm_image.bin";
  dev_.save_image(path);

  sim::Clock c2;
  PmDevice dev2(c2, dev_.size(), PmLatencyModel::optane());
  dev2.load_image(path);
  char back[sizeof(msg)];
  dev2.load(256, back, sizeof(back));
  EXPECT_STREQ(back, msg);
  std::remove(path.c_str());
}

TEST_F(PmDeviceTest, LoadImageMissingFileThrows) {
  EXPECT_THROW(dev_.load_image("/nonexistent/pm_image.bin"), PmError);
}

TEST_F(PmDeviceTest, LoadImageRejectsSizeMismatchBothWays) {
  const char msg[] = "sized image";
  dev_.store(0, msg, sizeof(msg));
  dev_.flush(0, sizeof(msg), FlushKind::kClflush);
  const std::string path = ::testing::TempDir() + "/pm_image_sized.bin";
  dev_.save_image(path);

  sim::Clock c2;
  PmDevice smaller(c2, dev_.size() / 2, PmLatencyModel::optane());
  EXPECT_THROW(smaller.load_image(path), PmError);  // image larger than arena

  sim::Clock c3;
  PmDevice bigger(c3, dev_.size() * 2, PmLatencyModel::optane());
  EXPECT_THROW(bigger.load_image(path), PmError);  // image smaller than arena

  // An exact match still loads.
  sim::Clock c4;
  PmDevice exact(c4, dev_.size(), PmLatencyModel::optane());
  exact.load_image(path);
  char back[sizeof(msg)];
  exact.load(0, back, sizeof(back));
  EXPECT_STREQ(back, msg);
  std::remove(path.c_str());
}

TEST_F(PmDeviceTest, SnapshotRestoreRoundTrip) {
  const std::uint64_t v = 0xDEADBEEF;
  dev_.store(64, &v, sizeof(v));
  dev_.flush(64, sizeof(v), FlushKind::kClflush);
  const Bytes snap = dev_.snapshot_persistent();
  EXPECT_EQ(snap.size(), dev_.size());

  const std::uint64_t w = 0xFACE;
  dev_.store(64, &w, sizeof(w));
  dev_.flush(64, sizeof(w), FlushKind::kClflush);

  dev_.restore_persistent(snap);
  std::uint64_t back = 0;
  dev_.load(64, &back, sizeof(back));
  EXPECT_EQ(back, v);

  Bytes wrong(dev_.size() + 1);
  EXPECT_THROW(dev_.restore_persistent(wrong), PmError);
}

// Property-style sweep: random store/flush/fence sequences; after a crash,
// every line must equal either its last fenced content or (for pending
// lines) one of the two legal values — never garbage.
class PmRandomizedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmRandomizedTest, CrashNeverYieldsTornState) {
  sim::Clock clock;
  constexpr std::size_t kSize = 16 * 1024;
  PmDevice dev(clock, kSize, PmLatencyModel::optane(), GetParam());
  Rng rng(GetParam() * 1000 + 17);

  // Shadow model: for each line, the set of values that may legally survive.
  constexpr std::size_t kLines = kSize / kCacheLine;
  std::vector<std::vector<std::vector<std::uint8_t>>> legal(kLines);
  std::vector<std::vector<std::uint8_t>> current(kLines,
                                                 std::vector<std::uint8_t>(kCacheLine, 0));
  for (std::size_t l = 0; l < kLines; ++l) {
    legal[l].push_back(current[l]);  // initial zeroes are persistent
  }

  for (int op = 0; op < 300; ++op) {
    const std::size_t line = rng.below(kLines);
    const int action = static_cast<int>(rng.below(3));
    if (action == 0) {
      std::vector<std::uint8_t> data(kCacheLine);
      rng.fill(data.data(), data.size());
      dev.store(line * kCacheLine, data.data(), data.size());
      current[line] = data;
    } else if (action == 1) {
      dev.flush(line * kCacheLine, kCacheLine, FlushKind::kClflushOpt);
      // Until the fence, both old and new content are legal outcomes.
      legal[line].push_back(current[line]);
    } else {
      dev.fence(FenceKind::kSfence);
      // After a fence every previously flushed line's newest flushed value
      // is the only legal one; approximate by keeping the last pushed value
      // of every line that has more than one candidate.
      for (auto& cands : legal) {
        if (cands.size() > 1) cands.erase(cands.begin(), cands.end() - 1);
      }
    }
  }
  dev.crash();

  for (std::size_t l = 0; l < kLines; ++l) {
    std::uint8_t actual[kCacheLine];
    dev.read_persistent(l * kCacheLine, actual, kCacheLine);
    bool matched = false;
    for (const auto& cand : legal[l]) {
      if (std::memcmp(actual, cand.data(), kCacheLine) == 0) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "line " << l << " has torn/illegal content, seed "
                         << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmRandomizedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// --- differential check against the per-line reference --------------------
//
// RefPmDevice is the device written one cache line at a time with two full
// images, volatile and persistent: a line index list for the pending set, a
// loop over every line of a range, one 64-byte copy per committed line.
// PmDevice keeps one image plus an undo store and works on whole bitmap
// words and merged runs instead; seeded op sequences drive both and every
// observable must stay bitwise equal. The reference also tracks which lines
// the design gives an undo entry, so the device's entry count is checked
// after every op too.

class RefPmDevice {
 public:
  RefPmDevice(std::size_t size, PmLatencyModel model, std::uint64_t crash_seed)
      : model_(model),
        volatile_(size, 0),
        persistent_(size, 0),
        dirty_(size / kCacheLine, false),
        pending_(size / kCacheLine, false),
        poison_(size / kCacheLine, false),
        faulted_dirty_(size / kCacheLine, false),
        entry_(size / kCacheLine, false),
        word_entries_((size / kCacheLine + 63) / 64, 0),
        crash_rng_(crash_seed) {}

  // Situations the op sequences must reach for the check to mean anything.
  struct Coverage {
    std::size_t cow_snapshots = 0;
    std::size_t reflushed_snapshots = 0;
    std::size_t clflushed_pending = 0;
    std::size_t out_of_order_pends = 0;
    std::size_t crashes_with_pending[3] = {};
    std::size_t crashes_over_snapshots = 0;
    std::size_t crashes_over_faulted_dirty = 0;
    std::size_t poison_cleared_by_commit = 0;
    // Undo store paths.
    std::size_t unchanged_lines_without_entry = 0;
    std::size_t late_partial_captures = 0;
    std::size_t faults_on_dirty_without_entry = 0;
    std::size_t fences_leaving_dirty_entries = 0;
    std::size_t crashes_restoring_entries[3] = {};
    std::size_t blocks_reused_after_fence = 0;
    std::size_t snapshots_with_entries = 0;
    std::size_t restores_with_entries = 0;
  };

  std::uint8_t* data() { return volatile_.data(); }
  const std::uint8_t* persistent_image() const { return persistent_.data(); }
  const PmStats& stats() const { return stats_; }
  const sim::Clock& clock() const { return clock_; }
  const Coverage& coverage() const { return coverage_; }
  bool quiescent() const { return dirty_count_ == 0 && pending_count_ == 0; }
  std::size_t poisoned_line_count() const { return poisoned_count_; }
  std::size_t undo_lines() const { return entry_count_; }

  // A line whose bytes in range change takes an entry (if it has none); an
  // unchanged one does not.
  void store(std::size_t offset, const void* src, std::size_t len) {
    if (len == 0) return;
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    for (std::size_t line = offset / kCacheLine; line <= (offset + len - 1) / kCacheLine;
         ++line) {
      const std::size_t lo = std::max(offset, line * kCacheLine);
      const std::size_t hi = std::min(offset + len, (line + 1) * kCacheLine);
      const bool held = dirty_[line] || pending_[line];
      mark_dirty(line);
      if (std::memcmp(volatile_.data() + lo, bytes + (lo - offset), hi - lo) == 0) {
        if (!entry_[line]) ++coverage_.unchanged_lines_without_entry;
      } else if (!entry_[line]) {
        if (held && hi - lo < kCacheLine) ++coverage_.late_partial_captures;
        take_entry(line);
      }
    }
    std::memcpy(volatile_.data() + offset, src, len);
    charge_store(len);
  }

  // Every line in range takes an entry: its bytes are written afterwards.
  void record_store(std::size_t offset, std::size_t len) {
    if (len == 0) return;
    for (std::size_t line = offset / kCacheLine; line <= (offset + len - 1) / kCacheLine;
         ++line) {
      mark_dirty(line);
      take_entry(line);
    }
    charge_store(len);
  }

  // Returns false where the device throws (a poisoned line in range).
  bool load(std::size_t offset, void* dst, std::size_t len) {
    if (len > 0) {
      for (std::size_t line = offset / kCacheLine; line <= (offset + len - 1) / kCacheLine;
           ++line) {
        if (poison_[line]) return false;
      }
    }
    charge_read(len);
    std::memcpy(dst, volatile_.data() + offset, len);
    return true;
  }

  void charge_read(std::size_t len) {
    stats_.bytes_read += len;
    clock_.advance(model_.read_latency_ns +
                   sim::bandwidth_ns(static_cast<double>(len), model_.read_gib_s));
  }

  void flush(std::size_t offset, std::size_t len, FlushKind kind) {
    if (len == 0) return;
    ++stats_.flushes;
    std::size_t acted = 0;
    for (std::size_t line = offset / kCacheLine; line <= (offset + len - 1) / kCacheLine;
         ++line) {
      const bool was_pending = pending_[line];
      if (!dirty_[line] && !was_pending) continue;
      ++acted;
      if (kind == FlushKind::kClflush) {
        commit_line(line, nullptr);
        if (was_pending) {
          pending_[line] = false;
          --pending_count_;
          snapshots_.erase(line);
          ++coverage_.clflushed_pending;
        }
      } else if (was_pending) {
        if (auto it = snapshots_.find(line); it != snapshots_.end()) {
          std::memcpy(it->second.data(), volatile_.data() + line * kCacheLine, kCacheLine);
          ++coverage_.reflushed_snapshots;
        }
      } else {
        if (!pending_list_.empty() && line < pending_list_.back()) {
          ++coverage_.out_of_order_pends;
        }
        pending_[line] = true;
        ++pending_count_;
        pending_list_.push_back(line);
      }
      if (dirty_[line]) {
        dirty_[line] = false;
        --dirty_count_;
      }
    }
    stats_.lines_flushed += acted;
    const double issue_ns = kind == FlushKind::kClflush       ? model_.clflush_ns
                            : kind == FlushKind::kClflushOpt ? model_.clflushopt_issue_ns
                                                             : model_.clwb_issue_ns;
    clock_.advance(static_cast<double>(acted) *
                   (issue_ns + sim::bandwidth_ns(kCacheLine, model_.flush_drain_gib_s)));
  }

  void fence(FenceKind kind) {
    ++stats_.fences;
    if (kind == FenceKind::kNop) return;
    clock_.advance(model_.sfence_ns);
    fencing_ = true;
    for (const std::size_t line : pending_list_) {
      if (!pending_[line]) continue;
      const auto it = snapshots_.find(line);
      commit_line(line, it != snapshots_.end() ? it->second.data() : nullptr);
      pending_[line] = false;
      --pending_count_;
    }
    fencing_ = false;
    pending_list_.clear();
    snapshots_.clear();
  }

  void crash(PmDevice::CrashOutcome outcome) {
    ++stats_.crashes;
    if (pending_count_ > 0) ++coverage_.crashes_with_pending[static_cast<int>(outcome)];
    if (!snapshots_.empty()) ++coverage_.crashes_over_snapshots;
    for (std::size_t line = 0; line < faulted_dirty_.size(); ++line) {
      if (faulted_dirty_[line] && (dirty_[line] || pending_[line])) {
        ++coverage_.crashes_over_faulted_dirty;
        break;
      }
    }
    std::fill(faulted_dirty_.begin(), faulted_dirty_.end(), false);
    for (const std::size_t line : pending_list_) {
      if (!pending_[line]) continue;
      bool persists = outcome == PmDevice::CrashOutcome::kPersistAll;
      if (outcome == PmDevice::CrashOutcome::kSeededRandom) {
        ++stats_.crash_coin_flips;
        persists = (crash_rng_.next() & 1) != 0;
      }
      if (persists) {
        const auto it = snapshots_.find(line);
        // The line is lost from the cache either way: a snapshot is its
        // entry until the restore below.
        dirty_[line] = true;
        commit_line(line, it != snapshots_.end() ? it->second.data() : nullptr);
      }
      pending_[line] = false;
    }
    pending_count_ = 0;
    pending_list_.clear();
    snapshots_.clear();
    if (entry_count_ > 0) ++coverage_.crashes_restoring_entries[static_cast<int>(outcome)];
    volatile_ = persistent_;
    drop_all_entries();
    std::fill(dirty_.begin(), dirty_.end(), false);
    dirty_count_ = 0;
  }

  void flip_bit(std::size_t offset, unsigned bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    persistent_[offset] ^= mask;
    const std::size_t line = offset / kCacheLine;
    if (!dirty_[line] && !pending_[line]) volatile_[offset] ^= mask;
    note_fault(line);
    ++stats_.media_bit_flips;
  }

  void tear_line(std::size_t line, std::uint64_t seed) {
    garbage(persistent_.data() + line * kCacheLine + kCacheLine / 2, kCacheLine / 2, seed);
    refresh_clean_line(line);
    note_fault(line);
    ++stats_.media_torn_lines;
  }

  void poison_line(std::size_t line, std::uint64_t seed) {
    garbage(persistent_.data() + line * kCacheLine, kCacheLine, seed);
    refresh_clean_line(line);
    note_fault(line);
    if (!poison_[line]) {
      poison_[line] = true;
      ++poisoned_count_;
    }
    ++stats_.media_poisoned_lines;
  }

  std::vector<std::size_t> scrub_range(std::size_t offset, std::size_t len) {
    std::vector<std::size_t> poisoned;
    if (len == 0) return poisoned;
    stats_.scrub_bytes += len;
    clock_.advance(model_.read_latency_ns +
                   sim::bandwidth_ns(static_cast<double>(len), model_.read_gib_s));
    for (std::size_t line = offset / kCacheLine; line <= (offset + len - 1) / kCacheLine;
         ++line) {
      if (poison_[line]) poisoned.push_back(line);
    }
    return poisoned;
  }

  Bytes snapshot_persistent() {
    if (entry_count_ > 0) ++coverage_.snapshots_with_entries;
    return persistent_;
  }

  void restore_persistent(const Bytes& image) {
    if (entry_count_ > 0) ++coverage_.restores_with_entries;
    persistent_ = image;
    volatile_ = image;
    std::fill(dirty_.begin(), dirty_.end(), false);
    std::fill(pending_.begin(), pending_.end(), false);
    std::fill(poison_.begin(), poison_.end(), false);
    dirty_count_ = pending_count_ = poisoned_count_ = 0;
    pending_list_.clear();
    snapshots_.clear();
    std::fill(faulted_dirty_.begin(), faulted_dirty_.end(), false);
    drop_all_entries();
  }

 private:
  void mark_dirty(std::size_t line) {
    if (pending_[line] && !snapshots_.contains(line)) {
      std::array<std::uint8_t, kCacheLine> snap;
      std::memcpy(snap.data(), volatile_.data() + line * kCacheLine, kCacheLine);
      snapshots_.emplace(line, snap);
      ++coverage_.cow_snapshots;
    }
    if (!dirty_[line]) {
      dirty_[line] = true;
      ++dirty_count_;
    }
  }

  void charge_store(std::size_t len) {
    ++stats_.stores;
    stats_.bytes_stored += len;
    clock_.advance(sim::bandwidth_ns(static_cast<double>(len), model_.store_gib_s));
  }

  // Persists the snapshot (or the volatile line). A line still dirty keeps
  // its new persisted bytes as an entry; any other line drops its entry.
  void commit_line(std::size_t line, const std::uint8_t* snapshot) {
    const std::uint8_t* src =
        snapshot != nullptr ? snapshot : volatile_.data() + line * kCacheLine;
    std::memcpy(persistent_.data() + line * kCacheLine, src, kCacheLine);
    if (snapshot != nullptr && dirty_[line]) {
      if (fencing_) ++coverage_.fences_leaving_dirty_entries;
      take_entry(line);
    } else {
      drop_entry(line);
    }
    faulted_dirty_[line] = false;
    if (poison_[line]) {
      poison_[line] = false;
      --poisoned_count_;
      ++stats_.poison_cleared;
      ++coverage_.poison_cleared_by_commit;
    }
  }

  // Blocks are modelled as the device keeps them: one per word with
  // entries, returned to a free list when the word has none left.
  void take_entry(std::size_t line) {
    if (entry_[line]) return;
    entry_[line] = true;
    ++entry_count_;
    if (word_entries_[line / 64]++ > 0) return;
    if (free_blocks_ > 0) {
      --free_blocks_;
      if (last_freed_by_fence_) ++coverage_.blocks_reused_after_fence;
    }
  }

  void drop_entry(std::size_t line) {
    if (!entry_[line]) return;
    entry_[line] = false;
    --entry_count_;
    if (--word_entries_[line / 64] == 0) {
      ++free_blocks_;
      last_freed_by_fence_ = fencing_;
    }
  }

  void drop_all_entries() {
    for (std::size_t line = 0; line < entry_.size(); ++line) drop_entry(line);
  }

  // A media fault on a dirty line reaches only the persistent image, so the
  // two images differ there until a commit or crash.
  void note_fault(std::size_t line) {
    if (dirty_[line]) faulted_dirty_[line] = true;
    if ((dirty_[line] || pending_[line]) && !entry_[line]) {
      ++coverage_.faults_on_dirty_without_entry;
      take_entry(line);
    }
  }

  void refresh_clean_line(std::size_t line) {
    if (!dirty_[line] && !pending_[line]) {
      std::memcpy(volatile_.data() + line * kCacheLine,
                  persistent_.data() + line * kCacheLine, kCacheLine);
    }
  }

  static void garbage(std::uint8_t* dst, std::size_t len, std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (std::size_t i = 0; i < len; ++i) dst[i] = static_cast<std::uint8_t>(sm.next());
  }

  PmLatencyModel model_;
  sim::Clock clock_;
  Bytes volatile_;
  Bytes persistent_;
  std::vector<bool> dirty_, pending_, poison_, faulted_dirty_, entry_;
  std::vector<std::size_t> word_entries_;
  std::vector<std::size_t> pending_list_;
  std::unordered_map<std::size_t, std::array<std::uint8_t, kCacheLine>> snapshots_;
  std::size_t dirty_count_ = 0, pending_count_ = 0, poisoned_count_ = 0;
  std::size_t entry_count_ = 0, free_blocks_ = 0;
  bool fencing_ = false;
  bool last_freed_by_fence_ = false;
  Rng crash_rng_;
  PmStats stats_;
  Coverage coverage_;
};

void expect_same_stats(const PmStats& a, const PmStats& b, const std::string& where) {
  EXPECT_EQ(a.stores, b.stores) << where;
  EXPECT_EQ(a.bytes_stored, b.bytes_stored) << where;
  EXPECT_EQ(a.flushes, b.flushes) << where;
  EXPECT_EQ(a.lines_flushed, b.lines_flushed) << where;
  EXPECT_EQ(a.fences, b.fences) << where;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.crashes, b.crashes) << where;
  EXPECT_EQ(a.crash_coin_flips, b.crash_coin_flips) << where;
  EXPECT_EQ(a.media_bit_flips, b.media_bit_flips) << where;
  EXPECT_EQ(a.media_torn_lines, b.media_torn_lines) << where;
  EXPECT_EQ(a.media_poisoned_lines, b.media_poisoned_lines) << where;
  EXPECT_EQ(a.poison_cleared, b.poison_cleared) << where;
  EXPECT_EQ(a.scrub_bytes, b.scrub_bytes) << where;
}

class PmDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

// 300 lines: four full bitmap words and a partial fifth, so ranges cross
// word edges and the last word's unused high bits are live in the masks.
TEST_P(PmDifferentialTest, WordParallelDeviceMatchesPerLineReference) {
  constexpr std::size_t kLines = 300;
  constexpr std::size_t kSize = kLines * kCacheLine;
  const std::uint64_t seed = GetParam();
  sim::Clock clock;
  PmDevice dev(clock, kSize, PmLatencyModel::optane(), seed);
  RefPmDevice ref(kSize, PmLatencyModel::optane(), seed);
  Rng rng(seed * 7919 + 3);
  std::optional<Bytes> saved;

  // Offsets cluster near word edges (multiples of 64 lines) and inside a
  // small hot window, so re-stores, re-flushes and clflushes of pending
  // lines are common rather than lucky.
  const auto pick_offset = [&] {
    switch (rng.below(3)) {
      case 0: {
        const std::size_t edge = 64 * (1 + rng.below(kLines / 64));
        const std::size_t line = std::min(kLines - 1, edge - 2 + rng.below(4));
        return line * kCacheLine + rng.below(kCacheLine);
      }
      case 1: return 100 * kCacheLine + rng.below(6 * kCacheLine);
      default: return rng.below(kSize);
    }
  };
  const auto pick_len = [&](std::size_t offset) {
    const std::size_t max = kSize - offset;
    const std::size_t want = rng.below(4) == 0 ? 1 + rng.below(140 * kCacheLine)
                                               : 1 + rng.below(3 * kCacheLine);
    return std::min(want, max);
  };
  const auto flush_kind = [&] {
    return static_cast<FlushKind>(rng.below(3));
  };

  for (int op = 0; op < 4000; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const std::uint64_t pick = rng.below(100);
    if (pick < 14) {
      const std::size_t off = pick_offset();
      Bytes data(pick_len(off));
      rng.fill(data.data(), data.size());
      dev.store(off, data.data(), data.size());
      ref.store(off, data.data(), data.size());
    } else if (pick < 22) {
      // A store of the bytes already there, or with one byte changed: the
      // unchanged lines must take no undo entry.
      const std::size_t off = pick_offset();
      const std::size_t len = pick_len(off);
      Bytes data(ref.data() + off, ref.data() + off + len);
      if (rng.below(2) == 0) data[rng.below(len)] ^= 0x5A;
      dev.store(off, data.data(), len);
      ref.store(off, data.data(), len);
    } else if (pick < 34) {
      // In-place mutation through data(), recorded before it is written.
      const std::size_t off = pick_offset();
      const std::size_t len = pick_len(off);
      Bytes data(len);
      rng.fill(data.data(), data.size());
      dev.record_store(off, len);
      ref.record_store(off, len);
      std::memcpy(dev.data() + off, data.data(), len);
      std::memcpy(ref.data() + off, data.data(), len);
    } else if (pick < 66) {
      const std::size_t off = pick_offset();
      const std::size_t len = pick_len(off);
      const FlushKind kind = flush_kind();
      dev.flush(off, len, kind);
      ref.flush(off, len, kind);
    } else if (pick < 78) {
      const FenceKind kind = rng.below(4) == 0 ? FenceKind::kNop : FenceKind::kSfence;
      dev.fence(kind);
      ref.fence(kind);
    } else if (pick < 82) {
      const auto outcome = static_cast<PmDevice::CrashOutcome>(rng.below(3));
      const std::uint64_t dev_coins = dev.stats().crash_coin_flips;
      const std::uint64_t ref_coins = ref.stats().crash_coin_flips;
      dev.crash(outcome);
      ref.crash(outcome);
      EXPECT_EQ(dev.stats().crash_coin_flips - dev_coins,
                ref.stats().crash_coin_flips - ref_coins)
          << "coin flips consumed by the crash, " << where;
    } else if (pick < 84) {
      const std::size_t off = rng.below(kSize);
      const auto bit = static_cast<unsigned>(rng.below(8));
      dev.flip_bit(off, bit);
      ref.flip_bit(off, bit);
    } else if (pick < 86) {
      const std::size_t line = rng.below(kLines);
      const std::uint64_t s = rng.next();
      dev.tear_line(line, s);
      ref.tear_line(line, s);
    } else if (pick < 88) {
      const std::size_t line = rng.below(kLines);
      const std::uint64_t s = rng.next();
      dev.poison_line(line, s);
      ref.poison_line(line, s);
    } else if (pick < 91) {
      const std::size_t off = pick_offset();
      const std::size_t len = rng.below(3) == 0 ? 0 : pick_len(off);
      EXPECT_EQ(dev.scrub_range(off, len), ref.scrub_range(off, len)) << where;
    } else if (pick < 94) {
      const std::size_t off = pick_offset();
      const std::size_t len = pick_len(off);
      Bytes a(len), b(len);
      const bool ref_ok = ref.load(off, b.data(), len);
      bool dev_ok = true;
      try {
        dev.load(off, a.data(), len);
      } catch (const PmError&) {
        dev_ok = false;
      }
      ASSERT_EQ(dev_ok, ref_ok) << "load of a poisoned range, " << where;
      if (dev_ok) {
        EXPECT_EQ(a, b) << where;
      }
    } else if (pick < 96) {
      const std::size_t len = rng.below(4096);
      dev.charge_read(len);
      ref.charge_read(len);
    } else if (pick < 98) {
      saved = dev.snapshot_persistent();
      ASSERT_EQ(*saved, ref.snapshot_persistent()) << where;
    } else if (saved.has_value()) {
      dev.restore_persistent(*saved);
      ref.restore_persistent(*saved);
    }

    ASSERT_EQ(0, std::memcmp(dev.data(), ref.data(), kSize)) << "volatile image, " << where;
    ASSERT_EQ(0, std::memcmp(dev.snapshot_persistent().data(), ref.persistent_image(), kSize))
        << "persistent image, " << where;
    expect_same_stats(dev.stats(), ref.stats(), where);
    ASSERT_EQ(dev.quiescent(), ref.quiescent()) << where;
    ASSERT_EQ(dev.undo_lines(), ref.undo_lines()) << "undo entries, " << where;
    if (dev.quiescent()) {
      ASSERT_EQ(dev.undo_lines(), 0u) << "entries on a quiescent device, " << where;
    }
    ASSERT_EQ(dev.poisoned_line_count(), ref.poisoned_line_count()) << where;
    ASSERT_EQ(clock.now(), ref.clock().now()) << "sim clock, " << where;
    if (HasFailure()) return;
  }

  const RefPmDevice::Coverage& c = ref.coverage();
  EXPECT_GT(c.cow_snapshots, 0u);
  EXPECT_GT(c.reflushed_snapshots, 0u);
  EXPECT_GT(c.clflushed_pending, 0u);
  EXPECT_GT(c.out_of_order_pends, 0u);
  EXPECT_GT(c.poison_cleared_by_commit, 0u);
  EXPECT_GT(c.crashes_over_snapshots, 0u);
  EXPECT_GT(c.crashes_over_faulted_dirty, 0u);
  EXPECT_GT(c.unchanged_lines_without_entry, 0u);
  EXPECT_GT(c.late_partial_captures, 0u);
  EXPECT_GT(c.faults_on_dirty_without_entry, 0u);
  EXPECT_GT(c.fences_leaving_dirty_entries, 0u);
  EXPECT_GT(c.blocks_reused_after_fence, 0u);
  EXPECT_GT(c.snapshots_with_entries, 0u);
  EXPECT_GT(c.restores_with_entries, 0u);
  for (int outcome = 0; outcome < 3; ++outcome) {
    EXPECT_GT(c.crashes_with_pending[outcome], 0u) << "crash outcome " << outcome;
    EXPECT_GT(c.crashes_restoring_entries[outcome], 0u) << "crash outcome " << outcome;
  }
  EXPECT_GT(dev.stats().crash_coin_flips, 0u);
}

// Long copies stream into Romulus' back copy (copy_within) and save the
// lines they change in the undo store: each round stores a >= 64 KiB range
// of "main" at an unaligned offset and flushes it, then crashes between
// flush and fence or fences; then copies a long range of main into "back"
// as Romulus' twin copy does and crashes right after it, after its flush, or
// after its fence. Both images, the entry count, the stats and the sim clock
// must match the per-line reference after every step.
TEST_P(PmDifferentialTest, StreamedCopiesMatchPerLineReference) {
  constexpr std::size_t kLines = 4096;
  constexpr std::size_t kSize = kLines * kCacheLine;
  constexpr std::size_t kBack = kSize / 2;
  const std::uint64_t seed = GetParam();
  sim::Clock clock;
  PmDevice dev(clock, kSize, PmLatencyModel::optane(), seed);
  RefPmDevice ref(kSize, PmLatencyModel::optane(), seed);
  Rng rng(seed * 104729 + 11);
  std::uint64_t crashes_with_pending = 0;

  const auto check = [&](const std::string& where) {
    ASSERT_EQ(0, std::memcmp(dev.data(), ref.data(), kSize))
        << "volatile image, " << where;
    ASSERT_EQ(0, std::memcmp(dev.snapshot_persistent().data(), ref.persistent_image(), kSize))
        << "persistent image, " << where;
    expect_same_stats(dev.stats(), ref.stats(), where);
    ASSERT_EQ(dev.quiescent(), ref.quiescent()) << where;
    ASSERT_EQ(dev.undo_lines(), ref.undo_lines()) << "undo entries, " << where;
    ASSERT_EQ(clock.now(), ref.clock().now()) << "sim clock, " << where;
  };
  const auto crash = [&](PmDevice::CrashOutcome outcome) {
    crashes_with_pending += !dev.quiescent();
    dev.crash(outcome);
    ref.crash(outcome);
  };
  // A long range of one half: past the 64 KiB streaming threshold, at a
  // byte offset that is neither line- nor 16-byte aligned.
  const auto pick_range = [&] {
    const std::size_t len = (64 << 10) + 1 + rng.below(48 << 10);
    return std::pair{1 + rng.below(kBack - len - 1), len};
  };

  for (int round = 0; round < 12; ++round) {
    const std::string at =
        "seed " + std::to_string(seed) + " round " + std::to_string(round);
    auto [off, len] = pick_range();
    Bytes data(len);
    rng.fill(data.data(), data.size());
    dev.store(off, data.data(), len);
    ref.store(off, data.data(), len);
    // Even rounds leave the lines pending (a weak flush) and crash with each
    // outcome in turn; odd rounds take any flush and fence it.
    const auto kind =
        static_cast<FlushKind>(round % 2 == 0 ? 1 + rng.below(2) : rng.below(3));
    dev.flush(off, len, kind);
    ref.flush(off, len, kind);
    check(at + ", main flushed");
    if (round % 2 == 0) {
      crash(static_cast<PmDevice::CrashOutcome>(round / 2 % 3));
      check(at + ", crash between flush and fence");
    } else {
      dev.fence(FenceKind::kSfence);
      ref.fence(FenceKind::kSfence);
      check(at + ", main fenced");
    }

    std::tie(off, len) = pick_range();
    dev.copy_within(kBack + off, off, len);
    ref.store(kBack + off, ref.data() + off, len);
    check(at + ", twin copy");
    const std::uint64_t stop = rng.below(3);
    if (stop > 0) {
      const auto back_kind = static_cast<FlushKind>(rng.below(3));
      dev.flush(kBack + off, len, back_kind);
      ref.flush(kBack + off, len, back_kind);
      check(at + ", back flushed");
    }
    if (stop > 1) {
      dev.fence(FenceKind::kSfence);
      ref.fence(FenceKind::kSfence);
      check(at + ", back fenced");
    }
    crash(static_cast<PmDevice::CrashOutcome>(rng.below(3)));
    check(at + ", crash after the twin copy");
    if (HasFailure()) return;
  }
  EXPECT_GE(crashes_with_pending, 6u);
  EXPECT_GT(dev.stats().crash_coin_flips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- residency -------------------------------------------------------------------
//
// The image is demand-zero: a page is resident once something writes it,
// and only then. These tests read the image mapping's Rss from
// /proc/self/smaps (the shared zero page that reads of untouched pages map
// is not counted there).

const std::size_t kPage = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
constexpr std::size_t kResidencyDevice = std::size_t{64} << 20;

// Resident pages of the mapping that holds dev's image. Fails the test
// unless smaps lists one mapping spanning exactly the image.
std::size_t resident_pages(const PmDevice& dev) {
  const auto image = reinterpret_cast<std::uintptr_t>(dev.data());
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool found = false;
  bool inside = false;
  std::size_t rss_kb = 0;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " ", &lo, &hi) == 2) {
      inside = lo <= image && image < hi;
      if (inside) {
        found = true;
        EXPECT_EQ(lo, image) << "the image's mapping starts before it";
        EXPECT_EQ(hi, image + dev.size()) << "the image's mapping is not its own";
      }
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      rss_kb = std::stoul(line.substr(4));
    }
  }
  EXPECT_TRUE(found) << "no /proc/self/smaps mapping holds the image";
  return rss_kb * 1024 / kPage;
}

// Pages of the image holding a nonzero byte (reading one maps no page).
std::size_t nonzero_pages(const PmDevice& dev) {
  std::size_t pages = 0;
  for (std::size_t off = 0; off < dev.size(); off += kPage) {
    const std::uint8_t* page = dev.data() + off;
    if (std::any_of(page, page + kPage, [](std::uint8_t b) { return b != 0; })) ++pages;
  }
  return pages;
}

TEST(PmDeviceResidency, FreshDeviceHoldsNoPages) {
  sim::Clock clock;
  PmDevice dev(clock, kResidencyDevice, PmLatencyModel::optane());
  EXPECT_EQ(resident_pages(dev), 0u);
}

TEST(PmDeviceResidency, UnchangedWritesRecoveryAndCrashLeavePagesUnmapped) {
  sim::Clock clock;
  PmDevice dev(clock, kResidencyDevice, PmLatencyModel::optane());
  Bytes buf(std::size_t{1} << 20);
  dev.load(std::size_t{40} << 20, buf.data(), buf.size());
  dev.read_persistent(std::size_t{42} << 20, buf.data(), buf.size());
  std::fill(buf.begin(), buf.end(), std::uint8_t{0});
  dev.store(std::size_t{44} << 20, buf.data(), buf.size());
  dev.copy_within(std::size_t{48} << 20, std::size_t{52} << 20, std::size_t{4} << 20);
  dev.flush(std::size_t{44} << 20, std::size_t{8} << 20, FlushKind::kClflushOpt);
  dev.crash();
  EXPECT_EQ(resident_pages(dev), 0u);

  // Format writes the header and the allocator metadata of both twins.
  constexpr std::size_t kMain = std::size_t{16} << 20;
  const auto policy = romulus::PwbPolicy::clflushopt_sfence();
  std::size_t formatted = 0;
  {
    romulus::Romulus rom(dev, 0, kMain, policy, /*format=*/true);
    formatted = nonzero_pages(dev);
    EXPECT_GT(formatted, 0u);
    EXPECT_EQ(resident_pages(dev), formatted);
    // A transaction that dies before writing leaves the header MUTATING.
    EXPECT_THROW(rom.run_transaction([] { throw SimulatedCrash("residency"); }),
                 SimulatedCrash);
  }
  dev.crash();
  // Re-attaching recovers: the full back -> main copy over twins that never
  // diverged writes nothing.
  const std::uint64_t stored = dev.stats().bytes_stored;
  romulus::Romulus rom(dev, 0, kMain, policy);
  EXPECT_GE(dev.stats().bytes_stored - stored, kMain);
  EXPECT_EQ(rom.header_state(), romulus::Romulus::State::kIdle);
  EXPECT_EQ(resident_pages(dev), formatted);
  EXPECT_EQ(nonzero_pages(dev), formatted);
}

TEST(PmDeviceResidency, ChangedStoreAddsThePagesItSpans) {
  sim::Clock clock;
  PmDevice dev(clock, kResidencyDevice, PmLatencyModel::optane());
  const Bytes ones(2 * kPage, 0xA5);
  // Two pages' worth of bytes starting mid-page span three pages.
  dev.store(10 * kPage + 100, ones.data(), ones.size());
  EXPECT_EQ(resident_pages(dev), 3u);
  dev.store(100 * kPage, ones.data(), kPage);
  EXPECT_EQ(resident_pages(dev), 4u);
  // Storing the same bytes again writes nothing new.
  dev.store(10 * kPage + 100, ones.data(), ones.size());
  EXPECT_EQ(resident_pages(dev), 4u);
}

TEST(PmDeviceResidency, RestoreAndLoadOfMostlyZeroImageLeaveZeroPagesUnmapped) {
  Bytes snap(kResidencyDevice);
  const std::size_t last = kResidencyDevice / kPage - 1;
  for (const std::size_t page : {std::size_t{3}, std::size_t{1000}, last}) {
    snap.at(page * kPage + 7) = 0x5A;
  }

  sim::Clock clock;
  const std::string path = ::testing::TempDir() + "/pm_residency.img";
  {
    // One device at a time: the kernel merges adjacent images into one
    // mapping.
    PmDevice restored(clock, kResidencyDevice, PmLatencyModel::optane());
    restored.restore_persistent(snap);
    EXPECT_EQ(resident_pages(restored), 3u);
    EXPECT_EQ(std::memcmp(restored.data(), snap.data(), snap.size()), 0);
    restored.save_image(path);
  }
  PmDevice loaded(clock, kResidencyDevice, PmLatencyModel::optane());
  loaded.load_image(path);
  std::remove(path.c_str());
  EXPECT_EQ(resident_pages(loaded), 3u);
  EXPECT_EQ(std::memcmp(loaded.data(), snap.data(), snap.size()), 0);
}

}  // namespace
}  // namespace plinius::pm
