#include <gtest/gtest.h>

#include <map>

#include "common/clock.h"
#include "common/error.h"
#include "ml/augment.h"
#include "ml/synth_digits.h"
#include "pm/device.h"
#include "romulus/pmap.h"

namespace plinius {
namespace {

using romulus::PersistentMap;
using romulus::PwbPolicy;
using romulus::Romulus;

class PMapTest : public ::testing::Test {
 protected:
  PMapTest()
      : dev_(clock_, Romulus::region_bytes(kMain), pm::PmLatencyModel::optane(), 3),
        rom_(dev_, 0, kMain, PwbPolicy::clflushopt_sfence(), true) {}

  static constexpr std::size_t kMain = 2 * 1024 * 1024;
  sim::Clock clock_;
  pm::PmDevice dev_;
  Romulus rom_;
};

TEST_F(PMapTest, CreatePutGetErase) {
  std::size_t map_off = 0;
  rom_.run_transaction([&] {
    auto map = PersistentMap::create(rom_, 100);
    map_off = map.header_offset();
    rom_.set_root(4, map_off);
    map.put(42, 1000);
    map.put(7, 2000);
  });

  auto map = PersistentMap::attach(rom_, rom_.root(4));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get(42), 1000u);
  EXPECT_EQ(map.get(7), 2000u);
  EXPECT_EQ(map.get(8), std::nullopt);

  rom_.run_transaction([&] {
    map.put(42, 1111);             // update
    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.erase(999));  // absent
  });
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.get(42), 1111u);
  EXPECT_EQ(map.get(7), std::nullopt);
}

TEST_F(PMapTest, RequiresTransactionsForMutation) {
  std::size_t off = 0;
  rom_.run_transaction([&] { off = PersistentMap::create(rom_, 10).header_offset(); });
  auto map = PersistentMap::attach(rom_, off);
  EXPECT_THROW(map.put(1, 1), Error);
  EXPECT_THROW((void)map.erase(1), Error);
  EXPECT_THROW({ rom_.run_transaction([&] { (void)PersistentMap::attach(rom_, 64); }); },
               PmError);
}

TEST_F(PMapTest, FillsToCapacityThenThrows) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    auto map = PersistentMap::create(rom_, 32);
    off = map.header_offset();
    // Physical slots > requested capacity; fill every slot.
    for (std::uint64_t k = 0; k < map.capacity(); ++k) map.put(k, k * 10);
    EXPECT_THROW(map.put(10000, 1), PmError);
  });
  auto map = PersistentMap::attach(rom_, off);
  for (std::uint64_t k = 0; k < map.capacity(); ++k) EXPECT_EQ(map.get(k), k * 10);
}

TEST_F(PMapTest, TombstonesAreReused) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    auto map = PersistentMap::create(rom_, 16);
    off = map.header_offset();
    for (std::uint64_t k = 0; k < map.capacity(); ++k) map.put(k, k);
    // Full; erase a few and reinsert different keys into the tombstones.
    EXPECT_TRUE(map.erase(3));
    EXPECT_TRUE(map.erase(5));
    map.put(100, 100);
    map.put(101, 101);
    EXPECT_EQ(map.get(100), 100u);
    EXPECT_EQ(map.get(101), 101u);
    EXPECT_EQ(map.get(3), std::nullopt);
  });
}

TEST_F(PMapTest, ForEachVisitsExactlyLiveEntries) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    auto map = PersistentMap::create(rom_, 50);
    off = map.header_offset();
    for (std::uint64_t k = 10; k < 30; ++k) map.put(k, k * 2);
    (void)map.erase(15);
  });
  auto map = PersistentMap::attach(rom_, off);
  std::map<std::uint64_t, std::uint64_t> seen;
  map.for_each([&](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 19u);
  EXPECT_FALSE(seen.contains(15));
  EXPECT_EQ(seen[20], 40u);
}

TEST_F(PMapTest, CommittedEntriesSurviveCrashUncommittedDoNot) {
  std::size_t off = 0;
  rom_.run_transaction([&] {
    auto map = PersistentMap::create(rom_, 50);
    off = map.header_offset();
    rom_.set_root(4, off);
    map.put(1, 100);
  });
  // Uncommitted put dies with the crash.
  EXPECT_THROW(rom_.run_transaction([&] {
    auto map = PersistentMap::attach(rom_, off);
    map.put(2, 200);
    throw SimulatedCrash("pmap");
  }),
               SimulatedCrash);
  dev_.crash();

  Romulus recovered(dev_, 0, kMain, PwbPolicy::clflushopt_sfence());
  auto map = PersistentMap::attach(recovered, recovered.root(4));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.get(1), 100u);
  EXPECT_EQ(map.get(2), std::nullopt);
}

// Randomized shadow-model sweep.
class PMapRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PMapRandomized, MatchesStdMap) {
  sim::Clock clock;
  constexpr std::size_t kMain = 2 * 1024 * 1024;
  pm::PmDevice dev(clock, Romulus::region_bytes(kMain), pm::PmLatencyModel::optane());
  Romulus rom(dev, 0, kMain, PwbPolicy::clflushopt_sfence(), true);
  Rng rng(GetParam());

  std::size_t off = 0;
  rom.run_transaction([&] { off = PersistentMap::create(rom, 200).header_offset(); });
  auto map = PersistentMap::attach(rom, off);
  std::map<std::uint64_t, std::uint64_t> shadow;

  for (int op = 0; op < 600; ++op) {
    const std::uint64_t key = rng.below(120);  // collisions guaranteed
    if (rng.below(3) == 0 && !shadow.empty()) {
      rom.run_transaction([&] {
        const bool erased = map.erase(key);
        EXPECT_EQ(erased, shadow.erase(key) > 0);
      });
    } else if (shadow.size() < 190) {
      const std::uint64_t value = rng.next();
      rom.run_transaction([&] { map.put(key, value); });
      shadow[key] = value;
    }
    if (op % 50 == 0) {
      for (const auto& [k, v] : shadow) ASSERT_EQ(map.get(k), v);
      ASSERT_EQ(map.size(), shadow.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PMapRandomized, ::testing::Values(1, 2, 3, 4, 5));

// --- Augmenter --------------------------------------------------------------------

TEST(Augment, ShiftMovesMass) {
  ml::AugmentOptions opt;
  opt.max_shift = 3;
  opt.noise_stddev = 0;
  opt.intensity_jitter = 0;
  ml::Augmenter aug(ml::Shape{1, 8, 8}, opt, 5);
  // Single bright pixel in the center; after augmentation it must still be
  // exactly one bright pixel, within +/-3 of the center.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> x(64, 0.0f);
    x[3 * 8 + 3] = 1.0f;
    aug.apply(x.data(), 1);
    int bright = 0, pos = -1;
    for (int i = 0; i < 64; ++i) {
      if (x[i] == 1.0f) {
        ++bright;
        pos = i;
      }
    }
    ASSERT_EQ(bright, 1);
    const int y = pos / 8, xx = pos % 8;
    EXPECT_LE(std::abs(y - 3), 3);
    EXPECT_LE(std::abs(xx - 3), 3);
  }
}

TEST(Augment, OutputStaysInRange) {
  ml::Augmenter aug(ml::Shape{1, 28, 28}, ml::AugmentOptions{}, 9);
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 8;
  dopt.test_count = 1;
  auto digits = ml::make_synth_digits(dopt);
  aug.apply(digits.train.x.values.data(), digits.train.size());
  for (const float v : digits.train.x.values) {
    ASSERT_GE(v, 0.0f);
    ASSERT_LE(v, 1.0f);
  }
}

TEST(Augment, RejectsOversizedShift) {
  ml::AugmentOptions opt;
  opt.max_shift = 30;
  EXPECT_THROW(ml::Augmenter(ml::Shape{1, 28, 28}, opt, 1), Error);
}

}  // namespace
}  // namespace plinius
