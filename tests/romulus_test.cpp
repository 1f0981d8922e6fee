#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "pm/device.h"
#include "pm/faultpoint.h"
#include "romulus/persist.h"
#include "romulus/romulus.h"
#include "romulus/sps.h"
#include "scone/scone.h"

namespace plinius::romulus {
namespace {

constexpr std::size_t kMain = 1024 * 1024;

class RomulusTest : public ::testing::Test {
 protected:
  RomulusTest()
      : dev_(clock_, Romulus::region_bytes(kMain), pm::PmLatencyModel::optane(), 7),
        rom_(dev_, 0, kMain, PwbPolicy::clflushopt_sfence(), /*format=*/true) {}

  sim::Clock clock_;
  pm::PmDevice dev_;
  Romulus rom_;
};

TEST_F(RomulusTest, RegionBytesAccountsForTwins) {
  EXPECT_GE(Romulus::region_bytes(kMain), 2 * kMain);
}

TEST_F(RomulusTest, FormatLeavesIdleQuiescentState) {
  EXPECT_FALSE(rom_.in_transaction());
  EXPECT_EQ(rom_.allocated_bytes(), 0u);
  for (int i = 0; i < kRootSlots; ++i) EXPECT_EQ(rom_.root(i), 0u);
}

TEST_F(RomulusTest, TxStoreVisibleAfterCommit) {
  const std::uint64_t v = 0xFEEDFACE;
  std::size_t off = 0;
  rom_.run_transaction([&] {
    off = rom_.pmalloc(64);
    rom_.tx_assign(off, v);
  });
  EXPECT_EQ(rom_.read<std::uint64_t>(off), v);
}

TEST_F(RomulusTest, StoreOutsideTransactionThrows) {
  EXPECT_THROW(rom_.tx_assign(256, std::uint64_t{1}), Error);
  EXPECT_THROW((void)rom_.pmalloc(64), Error);
  EXPECT_THROW(rom_.pmfree(256), Error);
  EXPECT_THROW(rom_.set_root(0, 1), Error);
}

TEST_F(RomulusTest, OutOfRangeStoreThrows) {
  rom_.begin_transaction();
  EXPECT_THROW(rom_.tx_assign(kMain, std::uint64_t{1}), PmError);
  rom_.end_transaction();
}

TEST_F(RomulusTest, CommittedTransactionSurvivesCrash) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    off = rom_.pmalloc(64);
    rom_.tx_assign(off, std::uint64_t{123456789});
    rom_.set_root(0, off);
  });

  dev_.crash();
  Romulus recovered(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  const auto root = recovered.root(0);
  EXPECT_EQ(root, off);
  EXPECT_EQ(recovered.read<std::uint64_t>(root), 123456789u);
}

TEST_F(RomulusTest, CrashMidTransactionRollsBack) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    off = rom_.pmalloc(64);
    rom_.tx_assign(off, std::uint64_t{1});
    rom_.set_root(0, off);
  });

  // Crash in the middle of a mutation: the new value must NOT survive.
  EXPECT_THROW(rom_.run_transaction([&] {
    rom_.tx_assign(off, std::uint64_t{2});
    throw SimulatedCrash("mid-tx");
  }),
               SimulatedCrash);
  dev_.crash();

  Romulus recovered(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  EXPECT_EQ(recovered.read<std::uint64_t>(off), 1u);
}

TEST_F(RomulusTest, NestedTransactionsAreFlat) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    off = rom_.pmalloc(64);
    rom_.run_transaction([&] { rom_.tx_assign(off, std::uint64_t{5}); });
    EXPECT_TRUE(rom_.in_transaction());
  });
  EXPECT_FALSE(rom_.in_transaction());
  EXPECT_EQ(rom_.read<std::uint64_t>(off), 5u);
}

TEST_F(RomulusTest, FourFencesPerTransaction) {
  rom_.run_transaction([&] { (void)rom_.pmalloc(64); });
  dev_.reset_stats();
  rom_.run_transaction([&] {
    const auto off = rom_.pmalloc(64);
    rom_.tx_assign(off, std::uint64_t{1});
    rom_.tx_assign(off + 8, std::uint64_t{2});
    rom_.tx_assign(off + 16, std::uint64_t{3});
  });
  // "Romulus uses at most four persistence fences ... regardless of
  // transaction size."
  EXPECT_EQ(dev_.stats().fences, 4u);
}

TEST(RomulusTxFill, MatchesTxStoreAtEveryCrashPoint) {
  // The same transaction, once copying from a staging buffer and once
  // writing the bytes in place, crashed before each of its PM ops in turn
  // (every pending line persisting) and once run to the end: both devices
  // must agree on every image, counter and charge.
  Rng rng(11);
  Bytes payload(3 * 4096 + 77);
  rng.fill(payload.data(), payload.size());
  struct Side {
    sim::Clock clock;
    pm::PmDevice dev{clock, Romulus::region_bytes(kMain), pm::PmLatencyModel::optane(), 5};
    Romulus rom{dev, 0, kMain, PwbPolicy::clflushopt_sfence(), /*format=*/true};
    pm::FaultInjector injector{dev};
  };
  const auto run = [&](bool fill, std::uint64_t crash_at) {
    auto side = std::make_unique<Side>();
    side->injector.reset();
    if (crash_at > 0) side->injector.arm(crash_at);
    try {
      side->rom.run_transaction([&] {
        side->rom.tx_assign(4096 + 8, std::uint64_t{42});
        // Shares a cache line with the word above, which is flushed but not
        // yet fenced: the copy-on-write snapshot must see the same bytes.
        if (fill) {
          side->rom.tx_fill(4096 + 40, payload.size(), [&](std::uint8_t* dst) {
            std::memcpy(dst, payload.data(), payload.size());
          });
        } else {
          side->rom.tx_store(4096 + 40, payload.data(), payload.size());
        }
      });
    } catch (const SimulatedCrash&) {
      side->rom.abandon_transaction();
      side->dev.crash(pm::PmDevice::CrashOutcome::kPersistAll);
    }
    return side;
  };
  const std::uint64_t ops = run(false, 0)->injector.ops();
  ASSERT_GT(ops, 4u);
  for (std::uint64_t crash_at = 0; crash_at <= ops; ++crash_at) {
    const auto a = run(false, crash_at);
    const auto b = run(true, crash_at);
    const pm::PmDevice& da = a->dev;
    const pm::PmDevice& db = b->dev;
    Bytes pa(da.size()), pb(db.size());
    da.read_persistent(0, pa.data(), pa.size());
    db.read_persistent(0, pb.data(), pb.size());
    ASSERT_EQ(0, std::memcmp(pa.data(), pb.data(), da.size()))
        << "crash before op " << crash_at;
    ASSERT_EQ(0, std::memcmp(da.data(), db.data(), da.size()))
        << "crash before op " << crash_at;
    EXPECT_EQ(da.stats().stores, db.stats().stores);
    EXPECT_EQ(da.stats().bytes_stored, db.stats().bytes_stored);
    EXPECT_EQ(da.stats().lines_flushed, db.stats().lines_flushed);
    EXPECT_EQ(da.stats().fences, db.stats().fences);
    EXPECT_EQ(a->clock.now(), b->clock.now());
  }
}

TEST_F(RomulusTest, TwinDivergenceCountsBytesAtWordEdges) {
  EXPECT_EQ(rom_.twin_divergence(), 0u);
  // {main-relative offset, XOR mask, which twin}: single high/low/middle
  // bits on both sides of 8-byte word edges, a fully differing word, the
  // first and the last byte of the region, and damage in either twin.
  struct Flip {
    std::size_t off;
    std::uint8_t mask;
    bool in_back;
  };
  const Flip flips[] = {{0, 0xFF, true},   {7, 0x80, true},   {8, 0x01, true},
                        {15, 0x10, false}, {16, 0xFF, true},  {17, 0x02, true},
                        {18, 0x04, true},  {19, 0x08, true},  {20, 0x20, true},
                        {21, 0x40, true},  {22, 0x80, true},  {23, 0x01, false},
                        {63, 0x80, false}, {64, 0x01, true},  {kMain - 1, 0x80, true}};
  for (const Flip& f : flips) {
    const std::size_t base =
        f.in_back ? rom_.back_region_offset() : rom_.main_region_offset();
    dev_.data()[base + f.off] ^= f.mask;
  }
  std::size_t want = 0;
  const std::uint8_t* main = dev_.data() + rom_.main_region_offset();
  const std::uint8_t* back = dev_.data() + rom_.back_region_offset();
  for (std::size_t i = 0; i < kMain; ++i) want += main[i] != back[i] ? 1 : 0;
  ASSERT_EQ(want, std::size(flips));
  EXPECT_EQ(rom_.twin_divergence(), want);

  for (const Flip& f : flips) {
    const std::size_t base =
        f.in_back ? rom_.back_region_offset() : rom_.main_region_offset();
    dev_.data()[base + f.off] ^= f.mask;
  }
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

TEST_F(RomulusTest, RootSlotsPersist) {
  rom_.run_transaction([&] { rom_.set_root(3, 0xCAFE); });
  EXPECT_EQ(rom_.root(3), 0xCAFEu);
  EXPECT_THROW((void)rom_.root(-1), Error);
  EXPECT_THROW((void)rom_.root(kRootSlots), Error);
}

TEST_F(RomulusTest, ReattachWithDifferentSizeThrows) {
  EXPECT_THROW(Romulus(dev_, 0, kMain / 2, PwbPolicy::clflushopt_sfence()), PmError);
}

TEST_F(RomulusTest, RegionMustFitDevice) {
  EXPECT_THROW(Romulus(dev_, 128, kMain, PwbPolicy::clflushopt_sfence(), true), PmError);
}

// --- allocator ----------------------------------------------------------------

TEST_F(RomulusTest, PmallocReturnsDistinctAlignedBlocks) {
  std::size_t a = 0, b = 0;
  rom_.run_transaction([&] {
    a = rom_.pmalloc(100);
    b = rom_.pmalloc(100);
  });
  EXPECT_NE(a, b);
  EXPECT_GE(b, a + 100);
  EXPECT_GT(rom_.allocated_bytes(), 200u);
}

TEST_F(RomulusTest, PmfreeEnablesReuse) {
  std::size_t a = 0;
  rom_.run_transaction([&] { a = rom_.pmalloc(256); });
  const auto used = rom_.allocated_bytes();
  rom_.run_transaction([&] { rom_.pmfree(a); });
  EXPECT_LT(rom_.allocated_bytes(), used);
  std::size_t b = 0;
  rom_.run_transaction([&] { b = rom_.pmalloc(256); });
  EXPECT_EQ(a, b);  // first-fit reuses the freed block
}

TEST_F(RomulusTest, FreeListSplitsLargeBlocks) {
  std::size_t big = 0;
  rom_.run_transaction([&] { big = rom_.pmalloc(1024); });
  rom_.run_transaction([&] { rom_.pmfree(big); });
  std::size_t small1 = 0, small2 = 0;
  rom_.run_transaction([&] {
    small1 = rom_.pmalloc(64);
    small2 = rom_.pmalloc(64);
  });
  EXPECT_EQ(small1, big);           // head of the split block
  EXPECT_GT(small2, small1);        // remainder
  EXPECT_LT(small2, big + 1024 + 64);  // ...carved from the same block
}

TEST_F(RomulusTest, PmallocExhaustionThrows) {
  rom_.begin_transaction();
  EXPECT_THROW((void)rom_.pmalloc(2 * kMain), PmError);
  rom_.end_transaction();
}

TEST_F(RomulusTest, PmfreeBadOffsetThrows) {
  rom_.begin_transaction();
  EXPECT_THROW(rom_.pmfree(3), Error);
  EXPECT_THROW(rom_.pmfree(kMain + 64), Error);
  rom_.end_transaction();
}

TEST_F(RomulusTest, AllocatorStateSurvivesCrash) {
  std::size_t a = 0;
  rom_.run_transaction([&] {
    a = rom_.pmalloc(128);
    rom_.set_root(0, a);
  });
  dev_.crash();
  Romulus recovered(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  std::size_t b = 0;
  recovered.run_transaction([&] { b = recovered.pmalloc(128); });
  EXPECT_NE(a, b) << "recovered allocator must not hand out the live block again";
}

// --- persist<T> ------------------------------------------------------------------

struct Counter {
  persist<std::uint64_t> value;
  persist<std::uint32_t> generation;
};

TEST_F(RomulusTest, PersistInterposesStores) {
  pm_ptr<Counter> ptr;
  rom_.run_transaction([&] {
    ptr = pm_make<Counter>(rom_);
    ptr.get(rom_)->value = 41;
    ptr.get(rom_)->value += 1;
    rom_.set_root(1, ptr.offset());
  });
  EXPECT_EQ(ptr.get(rom_)->value.load(), 42u);

  dev_.crash();
  Romulus recovered(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  const pm_ptr<Counter> again(recovered.root(1));
  EXPECT_EQ(again.get(recovered)->value.load(), 42u);
}

TEST_F(RomulusTest, PersistStoreOutsideTransactionThrows) {
  pm_ptr<Counter> ptr;
  rom_.run_transaction([&] { ptr = pm_make<Counter>(rom_); });
  EXPECT_THROW(ptr.get(rom_)->value = 1, PmError);
}

TEST_F(RomulusTest, PmPtrNullSemantics) {
  const pm_ptr<Counter> null;
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(null);
  EXPECT_EQ(null.get(rom_), nullptr);
}

// --- crash-consistency property sweep ------------------------------------------
//
// Apply K transactions over an array of slots; inject a crash inside a
// random transaction. Invariant: after recovery, the array reflects exactly
// the transactions committed before the crash (all-or-nothing per txn).

class RomulusCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RomulusCrashSweep, TransactionsAreAtomic) {
  const std::uint64_t seed = GetParam();
  sim::Clock clock;
  pm::PmDevice dev(clock, Romulus::region_bytes(kMain), pm::PmLatencyModel::optane(),
                   seed);
  Rng rng(seed * 31 + 5);

  constexpr std::size_t kSlots = 32;
  std::size_t base = 0;
  {
    Romulus rom(dev, 0, kMain, PwbPolicy::clflushopt_sfence(), true);
    rom.run_transaction([&] {
      base = rom.pmalloc(kSlots * 8);
      rom.set_root(0, base);
      for (std::size_t i = 0; i < kSlots; ++i) {
        rom.tx_assign(base + i * 8, std::uint64_t{0});
      }
    });

    // Each transaction t writes value t+1 into 4 random slots; it crashes
    // inside transaction `crash_at` after a random number of stores.
    const int total_tx = 20;
    const int crash_at = static_cast<int>(rng.below(total_tx));
    std::vector<std::uint64_t> shadow(kSlots, 0);

    for (int t = 0; t < total_tx; ++t) {
      std::vector<std::uint64_t> tx_shadow = shadow;
      const std::size_t crash_after_stores = rng.below(4);
      bool crashed = false;
      try {
        rom.run_transaction([&] {
          for (std::size_t s = 0; s < 4; ++s) {
            if (t == crash_at && s == crash_after_stores) {
              throw SimulatedCrash("sweep");
            }
            const std::size_t slot = rng.below(kSlots);
            rom.tx_assign(base + slot * 8, std::uint64_t(t + 1));
            tx_shadow[slot] = t + 1;
          }
        });
      } catch (const SimulatedCrash&) {
        crashed = true;
      }
      if (crashed) break;
      shadow = tx_shadow;  // committed
    }

    dev.crash();

    Romulus recovered(dev, 0, kMain, PwbPolicy::clflushopt_sfence());
    const auto rbase = recovered.root(0);
    ASSERT_EQ(rbase, base);
    for (std::size_t i = 0; i < kSlots; ++i) {
      EXPECT_EQ(recovered.read<std::uint64_t>(rbase + i * 8), shadow[i])
          << "slot " << i << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RomulusCrashSweep, ::testing::Range<std::uint64_t>(1, 21));

// Same sweep under clflush+nop: correctness must not depend on the policy.
class RomulusPolicySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RomulusPolicySweep, CommittedDataSurvivesCrashUnderAllPolicies) {
  const int policy_idx = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const PwbPolicy policy = policy_idx == 0   ? PwbPolicy::clflush_nop()
                           : policy_idx == 1 ? PwbPolicy::clflushopt_sfence()
                                             : PwbPolicy::clwb_sfence();

  sim::Clock clock;
  pm::PmDevice dev(clock, Romulus::region_bytes(kMain), pm::PmLatencyModel::optane(),
                   seed);
  std::size_t off = 0;
  {
    Romulus rom(dev, 0, kMain, policy, true);
    rom.run_transaction([&] {
      off = rom.pmalloc(64);
      rom.tx_assign(off, seed * 1000 + 1);
      rom.set_root(0, off);
    });
  }
  dev.crash();
  Romulus recovered(dev, 0, kMain, policy);
  EXPECT_EQ(recovered.read<std::uint64_t>(recovered.root(0)), seed * 1000 + 1);
}

INSTANTIATE_TEST_SUITE_P(PoliciesAndSeeds, RomulusPolicySweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Range<std::uint64_t>(1, 6)));

TEST_F(RomulusTest, RecoveryIsIdempotent) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    off = rom_.pmalloc(64);
    rom_.tx_assign(off, std::uint64_t{0xAB});
    rom_.set_root(0, off);
  });
  // Abandon a mutation and crash; recover the region several times over —
  // every recovery must land on the same consistent state.
  rom_.begin_transaction();
  rom_.tx_assign(off, std::uint64_t{0xCD});
  rom_.abandon_transaction();
  dev_.crash();

  Romulus r1(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  EXPECT_EQ(r1.read<std::uint64_t>(off), 0xABu);
  r1.recover();  // explicit second recovery: no-op
  EXPECT_EQ(r1.read<std::uint64_t>(off), 0xABu);

  // Re-attach without any crash (clean shutdown path).
  Romulus r2(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  EXPECT_EQ(r2.read<std::uint64_t>(off), 0xABu);
  EXPECT_EQ(r2.root(0), off);
}

TEST_F(RomulusTest, CrashDuringBackCopyRedoesCopy) {
  // Crash *after* COPYING became durable but before back finished: recovery
  // must redo main->back, preserving the committed (new) value.
  std::size_t off = 0;
  rom_.run_transaction([&] {
    off = rom_.pmalloc(64);
    rom_.tx_assign(off, std::uint64_t{1});
    rom_.set_root(0, off);
  });

  // Hand-drive the commit protocol up to the COPYING state, then crash.
  rom_.begin_transaction();
  rom_.tx_assign(off, std::uint64_t{2});
  // Emulate "crash between fence 3 and fence 4": force the committed main
  // update and the COPYING state to persistence, then die.
  dev_.flush(0, dev_.size(), pm::FlushKind::kClflush);  // everything durable
  rom_.abandon_transaction();
  // Overwrite header state to COPYING as end_transaction would have.
  const std::uint64_t copying = 2;
  dev_.store(8, &copying, sizeof(copying));  // header.state at offset 8
  dev_.flush(8, sizeof(copying), pm::FlushKind::kClflush);
  dev_.crash();

  Romulus recovered(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  // COPYING means main is authoritative: the new value survives.
  EXPECT_EQ(recovered.read<std::uint64_t>(off), 2u);
  // And a fresh transaction works on the recovered region.
  recovered.run_transaction([&] { recovered.tx_assign(off, std::uint64_t{3}); });
  EXPECT_EQ(recovered.read<std::uint64_t>(off), 3u);
}

// --- allocator stress with shadow model ------------------------------------------
//
// Random alloc/free/write workload with periodic crashes; a shadow model
// tracks what was committed. Invariants after every crash+recovery:
//   * every live allocation still holds its committed content;
//   * no two live allocations overlap;
//   * allocator accounting never underflows (checked internally).

class RomulusAllocStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RomulusAllocStress, ShadowModelStaysConsistent) {
  const std::uint64_t seed = GetParam();
  sim::Clock clock;
  constexpr std::size_t kStressMain = 512 * 1024;
  pm::PmDevice dev(clock, Romulus::region_bytes(kStressMain),
                   pm::PmLatencyModel::optane(), seed);
  auto rom = std::make_unique<Romulus>(dev, 0, kStressMain,
                                       PwbPolicy::clflushopt_sfence(), true);
  Rng rng(seed * 7 + 3);

  struct Block {
    std::size_t offset;
    std::size_t size;
    std::uint64_t stamp;  // committed fill pattern
  };
  std::vector<Block> live;        // committed state
  constexpr int kRounds = 40;

  for (int round = 0; round < kRounds; ++round) {
    // One transaction doing a few random mutations.
    std::vector<Block> tx_live = live;
    bool crashed = false;
    try {
      rom->run_transaction([&] {
        const int ops = 1 + static_cast<int>(rng.below(4));
        for (int op = 0; op < ops; ++op) {
          const bool do_free = !tx_live.empty() && rng.below(3) == 0;
          if (do_free) {
            const std::size_t victim = rng.below(tx_live.size());
            rom->pmfree(tx_live[victim].offset);
            tx_live.erase(tx_live.begin() +
                          static_cast<std::ptrdiff_t>(victim));
          } else {
            const std::size_t size = 8 * (1 + rng.below(64));
            std::size_t off = 0;
            try {
              off = rom->pmalloc(size);
            } catch (const PmError&) {
              continue;  // heap exhausted this round: fine
            }
            const std::uint64_t stamp = rng.next();
            std::vector<std::uint64_t> fill(size / 8, stamp);
            rom->tx_store(off, fill.data(), size);
            tx_live.push_back({off, size, stamp});
          }
          if (rng.below(16) == 0) throw SimulatedCrash("alloc stress");
        }
      });
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    if (!crashed) {
      live = tx_live;  // committed
    } else {
      rom.reset();  // process dies
      dev.crash();
      rom = std::make_unique<Romulus>(dev, 0, kStressMain,
                                      PwbPolicy::clflushopt_sfence());
    }

    // Invariant 1: committed content intact.
    for (const Block& b : live) {
      for (std::size_t i = 0; i < b.size; i += 8) {
        ASSERT_EQ(rom->read<std::uint64_t>(b.offset + i), b.stamp)
            << "round " << round << " offset " << b.offset << "+" << i;
      }
    }
    // Invariant 2: live blocks do not overlap.
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        const bool disjoint = live[i].offset + live[i].size <= live[j].offset ||
                              live[j].offset + live[j].size <= live[i].offset;
        ASSERT_TRUE(disjoint) << "blocks " << i << " and " << j << " overlap";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RomulusAllocStress,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- SPS workload -----------------------------------------------------------------

TEST(Sps, ArrayContentIsPermutationAfterRun) {
  sim::Clock clock;
  constexpr std::size_t kSpsMain = 2 * 1024 * 1024;
  pm::PmDevice dev(clock, Romulus::region_bytes(kSpsMain), pm::PmLatencyModel::optane());
  Romulus rom(dev, 0, kSpsMain, PwbPolicy::clflushopt_sfence(), true);

  SpsConfig cfg;
  cfg.array_bytes = 64 * 1024;
  cfg.swaps_per_tx = 8;
  cfg.total_swaps = 1024;
  const auto result = run_sps(rom, cfg);
  EXPECT_EQ(result.transactions, 128u);
  EXPECT_GT(result.swaps_per_second, 0.0);

  // Swaps permute; sum of 0..n-1 must be preserved.
  const std::size_t n = cfg.array_bytes / 8;
  const auto base = rom.root(7);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += rom.read<std::uint64_t>(base + i * 8);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(Sps, ThroughputImprovesWithTransactionSize) {
  // Fixed per-transaction overhead (fences + state flips) amortizes.
  auto sps_at = [](std::size_t swaps_per_tx) {
    sim::Clock clock;
    constexpr std::size_t kSpsMain = 2 * 1024 * 1024;
    pm::PmDevice dev(clock, Romulus::region_bytes(kSpsMain),
                     pm::PmLatencyModel::optane());
    Romulus rom(dev, 0, kSpsMain, PwbPolicy::clflushopt_sfence(), true);
    SpsConfig cfg;
    cfg.array_bytes = 256 * 1024;
    cfg.swaps_per_tx = swaps_per_tx;
    cfg.total_swaps = 4096;
    return run_sps(rom, cfg).swaps_per_second;
  };
  EXPECT_GT(sps_at(64), sps_at(2));
}

TEST(Sps, NativeFasterThanSgxFasterThanSconeAtLargeTxns) {
  auto sps_with = [](const ExecutionProfile& profile, std::size_t swaps) {
    sim::Clock clock;
    constexpr std::size_t kSpsMain = 2 * 1024 * 1024;
    pm::PmDevice dev(clock, Romulus::region_bytes(kSpsMain),
                     pm::PmLatencyModel::emulated_dram());
    Romulus rom(dev, 0, kSpsMain, PwbPolicy::clflushopt_sfence(), true, profile);
    SpsConfig cfg;
    cfg.array_bytes = 256 * 1024;
    cfg.swaps_per_tx = swaps;
    cfg.total_swaps = 8192;
    return run_sps(rom, cfg).swaps_per_second;
  };

  // Small transactions: native > SCONE > SGX-Romulus (paper Fig. 6).
  const double native_small = sps_with(ExecutionProfile::native(), 8);
  const double scone_small = sps_with(scone::scone_container(), 8);
  const double sgx_small = sps_with(ExecutionProfile::sgx_enclave(), 8);
  EXPECT_GT(native_small, scone_small);
  EXPECT_GT(scone_small, sgx_small);

  // Large transactions: SCONE's redo log spills; SGX-Romulus wins.
  const double scone_large = sps_with(scone::scone_container(), 512);
  const double sgx_large = sps_with(ExecutionProfile::sgx_enclave(), 512);
  EXPECT_GT(sgx_large, scone_large);
}

}  // namespace
}  // namespace plinius::romulus
