#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "common/error.h"
#include "crypto/envelope.h"
#include "ml/config.h"
#include "ml/quant.h"
#include "ml/serialize.h"
#include "ml/synth_digits.h"
#include "obs/registry.h"
#include "plinius/metrics_log.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/pm_data.h"
#include "plinius/quant_mirror.h"
#include "plinius/tensor_mirror.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "serve/fleet/autoscaler.h"
#include "serve/fleet/fleet_server.h"
#include "serve/fleet/registry.h"
#include "serve/fleet/router.h"
#include "serve/loadgen.h"

namespace plinius::serve::fleet {
namespace {

// --- root-slot registry ----------------------------------------------------------

// Every persistent structure's kRootSlot must alias the central registry in
// pm/root_slots.h — a silent disagreement would alias two structures onto
// one slot and corrupt both. The static_asserts make a drifted owner a
// compile error; the runtime checks keep the invariant visible in ctest.
TEST(RootSlots, OwnersAgreeWithCentralRegistry) {
  static_assert(MirrorModel::kRootSlot == pm::kMirrorRootSlot);
  static_assert(PmDataStore::kRootSlot == pm::kPmDataRootSlot);
  static_assert(TensorMirror::kRootSlot == pm::kTensorMirrorRootSlot);
  static_assert(MetricsLog::kRootSlot == pm::kMetricsLogRootSlot);
  static_assert(RecoveryLog::kRootSlot == pm::kRecoveryLogRootSlot);
  static_assert(ServeLog::kRootSlot == pm::kServeLogRootSlot);
  static_assert(QuantMirror::kRootSlot == pm::kQuantMirrorRootSlot);
  static_assert(ModelRegistry::kRootSlot == pm::kModelRegistryRootSlot);
  static_assert(romulus::kRootSlots == pm::kRootSlotCapacity);

  EXPECT_TRUE(pm::detail::root_slots_unique_and_in_range());
  const std::set<int> slots(std::begin(pm::detail::kAssignedRootSlots),
                            std::end(pm::detail::kAssignedRootSlots));
  EXPECT_EQ(slots.size(), std::size(pm::detail::kAssignedRootSlots));
  for (const int slot : slots) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, pm::kRootSlotCapacity);
  }
}

// --- router ----------------------------------------------------------------------

std::vector<Request> burst(std::size_t count, sim::Nanos arrival = 0) {
  std::vector<Request> reqs(count);
  for (std::size_t i = 0; i < count; ++i) {
    reqs[i].id = i;
    reqs[i].tenant = i;
    reqs[i].arrival_ns = arrival;
  }
  return reqs;
}

RouterOptions batch_only_options() {
  RouterOptions opt;
  opt.max_outstanding = 0;  // no shedding
  opt.tenant_class = {SloClass::kBatch};
  return opt;
}

TEST(Router, LeastLoadedSpreadsSimultaneousBurst) {
  RouterOptions opt = batch_only_options();
  opt.policy = RoutePolicy::kLeastLoaded;
  opt.service_estimate_ns = 1000;
  Router router(opt, 4);

  std::vector<Request> reqs = burst(100);
  const std::vector<RouteDecision> decisions = router.route(reqs);

  std::map<std::size_t, std::size_t> per_replica;
  for (const RouteDecision& d : decisions) {
    EXPECT_FALSE(d.shed);
    ++per_replica[d.replica];
  }
  ASSERT_EQ(per_replica.size(), 4u);
  for (const auto& [replica, count] : per_replica) EXPECT_EQ(count, 25u);
  EXPECT_EQ(router.stats().routed, 100u);
  EXPECT_EQ(router.stats().shed, 0u);
}

TEST(Router, BacklogEstimateDrainsOverTime) {
  RouterOptions opt = batch_only_options();
  opt.service_estimate_ns = 1e6;
  Router router(opt, 1);

  std::vector<Request> reqs = burst(2);
  router.route(reqs);
  EXPECT_DOUBLE_EQ(router.estimated_backlog(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(router.estimated_backlog(0, 1e6), 1.0);
  EXPECT_DOUBLE_EQ(router.estimated_backlog(0, 5e6), 0.0);
}

TEST(Router, ConsistentHashGivesTenantAffinity) {
  RouterOptions opt = batch_only_options();
  opt.policy = RoutePolicy::kConsistentHash;
  Router router(opt, 4);

  std::map<std::uint64_t, std::size_t> tenant_home;
  for (int round = 0; round < 8; ++round) {
    std::vector<Request> reqs(32);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].tenant = i;
      reqs[i].arrival_ns = round * 1e6;
    }
    const std::vector<RouteDecision> decisions = router.route(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto [it, fresh] = tenant_home.emplace(i, decisions[i].replica);
      if (!fresh) {
        EXPECT_EQ(it->second, decisions[i].replica) << "tenant " << i;
      }
    }
  }
  // A 4-replica ring with 64 vnodes each should actually spread tenants.
  std::set<std::size_t> homes;
  for (const auto& [tenant, home] : tenant_home) homes.insert(home);
  EXPECT_GE(homes.size(), 3u);
}

TEST(Router, ConsistentHashIsStableUnderGrowth) {
  constexpr std::size_t kTenants = 256;
  RouterOptions opt = batch_only_options();
  opt.policy = RoutePolicy::kConsistentHash;

  const auto homes_with = [&](std::size_t replicas) {
    Router router(opt, replicas);
    std::vector<Request> reqs(kTenants);
    for (std::size_t i = 0; i < kTenants; ++i) reqs[i].tenant = i;
    const std::vector<RouteDecision> decisions = router.route(reqs);
    std::vector<std::size_t> homes(kTenants);
    for (std::size_t i = 0; i < kTenants; ++i) homes[i] = decisions[i].replica;
    return homes;
  };

  const std::vector<std::size_t> before = homes_with(4);
  const std::vector<std::size_t> after = homes_with(5);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    if (before[i] != after[i]) {
      ++moved;
      // Growth only adds arcs: a tenant that moves must move to the joiner.
      EXPECT_EQ(after[i], 4u) << "tenant " << i;
    }
  }
  // Expected churn is ~1/5 of tenants; anywhere below half is "stable"
  // compared to the 4/5 a modulo rehash would move.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kTenants / 2);
}

TEST(Router, SloClassStampsDeadlinesAtAdmission) {
  RouterOptions opt;  // default classes + the 3-class cycling tenant map
  opt.max_outstanding = 0;
  Router router(opt, 2);

  std::vector<Request> reqs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    reqs[i].tenant = i;
    reqs[i].arrival_ns = 1000;
  }
  EXPECT_EQ(router.class_of(0), SloClass::kInteractive);
  EXPECT_EQ(router.class_of(1), SloClass::kStandard);
  EXPECT_EQ(router.class_of(2), SloClass::kBatch);
  EXPECT_EQ(router.class_of(3), SloClass::kInteractive);

  router.route(reqs);
  EXPECT_DOUBLE_EQ(reqs[0].deadline_ns, 1000 + 2e6);
  EXPECT_DOUBLE_EQ(reqs[1].deadline_ns, 1000 + 10e6);
  EXPECT_EQ(reqs[2].deadline_ns, kNoDeadline);  // batch: untouched
}

TEST(Router, ShedFractionTightensPerClassAdmission) {
  const auto admitted_with = [](SloClass cls) {
    RouterOptions opt;
    opt.max_outstanding = 4;
    opt.service_estimate_ns = 1e6;
    opt.tenant_class = {cls};
    Router router(opt, 1);
    std::vector<Request> reqs = burst(10);
    const std::vector<RouteDecision> decisions = router.route(reqs);
    std::size_t admitted = 0;
    for (const RouteDecision& d : decisions) admitted += d.shed ? 0 : 1;
    const std::size_t idx = static_cast<std::size_t>(cls);
    EXPECT_EQ(router.stats().routed_by_class[idx], admitted);
    EXPECT_EQ(router.stats().shed_by_class[idx], 10u - admitted);
    return admitted;
  };

  // Bound is max_outstanding * shed_fraction: interactive (0.25) sheds at a
  // backlog of 1, standard (0.75) at 3, batch (1.0) rides the full queue.
  EXPECT_EQ(admitted_with(SloClass::kInteractive), 1u);
  EXPECT_EQ(admitted_with(SloClass::kStandard), 3u);
  EXPECT_EQ(admitted_with(SloClass::kBatch), 4u);
}

TEST(Router, EnumNamesRoundTrip) {
  EXPECT_STREQ(to_string(RoutePolicy::kLeastLoaded), "least-loaded");
  EXPECT_STREQ(to_string(RoutePolicy::kConsistentHash), "consistent-hash");
  EXPECT_STREQ(to_string(SloClass::kInteractive), "interactive");
  EXPECT_STREQ(to_string(VersionState::kCanary), "canary");
  EXPECT_STREQ(to_string(VersionState::kRejected), "rejected");
}

// --- cluster fabric --------------------------------------------------------------

TEST(Fabric, TransferChargesBothEndsAndRetriesDeterministically) {
  Platform a(MachineProfile::emlsgx_pm(), 16u << 20, 0x100);
  Platform b(MachineProfile::emlsgx_pm(), 16u << 20, 0x200);
  cluster::LinkOptions link;
  link.retries = 3;

  Rng ok_rng(7);
  const cluster::TransferOutcome ok = cluster::transfer_sealed(
      {&a.enclave(), &a.clock()}, {&b.enclave(), &b.clock()}, 1 << 20, link,
      ok_rng, cluster::member_backoff_seed(link.net_seed, 0));
  EXPECT_TRUE(ok.delivered);
  EXPECT_EQ(ok.drops, 0u);
  EXPECT_GT(a.clock().now(), 0.0);  // wire time charged to the sender too

  link.loss_rate = 1.0;  // dead link: every attempt drops
  Rng dead_rng(7);
  const sim::Nanos b_before = b.clock().now();
  const cluster::TransferOutcome dead = cluster::transfer_sealed(
      {&a.enclave(), &a.clock()}, {&b.enclave(), &b.clock()}, 1 << 20, link,
      dead_rng, cluster::member_backoff_seed(link.net_seed, 1));
  EXPECT_FALSE(dead.delivered);
  EXPECT_EQ(dead.drops, link.retries + 1);
  EXPECT_GT(b.clock().now(), b_before);  // receiver waited out the backoffs
}

TEST(Fabric, MemberBackoffSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::size_t m = 0; m < 16; ++m) {
    seeds.insert(cluster::member_backoff_seed(0x9E77, m));
  }
  EXPECT_EQ(seeds.size(), 16u);
}

// --- model registry --------------------------------------------------------------

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(99).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

ml::ModelConfig tiny_config() { return ml::make_cnn_config(1, 4, 32); }

// A registry record keeps the layout it had before it became a PmRecordLog
// record: seven words, the sealed blob's descriptor last.
static_assert(sizeof(RegistryEntry) == 7 * sizeof(std::uint64_t) &&
              offsetof(RegistryEntry, blob) == 4 * sizeof(std::uint64_t));

class RegistryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPmBytes = 48u << 20;

  RegistryTest()
      : platform_(MachineProfile::emlsgx_pm(), kPmBytes, 0x300),
        rom_(platform_.pm(), 0, kPmBytes / 3,
             romulus::PwbPolicy::clflushopt_sfence(), /*format=*/true),
        registry_(rom_, platform_.enclave(), test_gcm()) {}

  ml::Network make_net(std::uint64_t seed) {
    Rng rng(seed);
    return ml::build_network(tiny_config(), rng);
  }

  Platform platform_;
  romulus::Romulus rom_;
  ModelRegistry registry_;
};

TEST_F(RegistryTest, CreatePublishLoadRoundTripsFloat) {
  EXPECT_FALSE(registry_.exists());
  registry_.create(8);
  EXPECT_TRUE(registry_.exists());
  EXPECT_EQ(registry_.capacity(), 8u);
  EXPECT_EQ(registry_.size(), 0u);

  ml::Network net = make_net(1);
  const std::uint64_t v = registry_.publish(net);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(registry_.size(), 1u);

  const VersionRecord rec = registry_.record(v);
  EXPECT_EQ(rec.version, v);
  EXPECT_EQ(rec.dtype, ml::kDtypeFloat32);
  EXPECT_EQ(rec.state, VersionState::kStaged);
  EXPECT_EQ(rec.sealed_len, rec.plain_len + crypto::kSealOverhead);
  EXPECT_EQ(registry_.sealed_bytes(), rec.sealed_len);

  // Loading into a same-architecture network reproduces the weights bit for
  // bit (the v2 format round-trips exactly).
  ml::Network loaded = make_net(2);
  registry_.load(v, loaded);
  EXPECT_EQ(ml::serialize_weights(loaded), ml::serialize_weights(net));
}

TEST_F(RegistryTest, PublishQuantizedRoundTripsInt8) {
  registry_.create(4);
  ml::Network net = make_net(3);
  const ml::SynthDigits data =
      ml::make_synth_digits({.train_count = 64, .test_count = 16, .seed = 5});
  const ml::QuantizedNetwork qnet =
      ml::quantize_network(net, data.train.x.row(0), 64);

  const std::uint64_t v = registry_.publish(qnet);
  const VersionRecord rec = registry_.record(v);
  EXPECT_EQ(rec.dtype, ml::kDtypeInt8);

  const ml::QuantizedNetwork loaded = registry_.load_quantized(v);
  EXPECT_EQ(ml::serialize_quantized(loaded), ml::serialize_quantized(qnet));
  // Mixed float/int8 records coexist; versions stay monotonic.
  ml::Network net2 = make_net(4);
  EXPECT_EQ(registry_.publish(net2), v + 1);
  EXPECT_EQ(registry_.records().size(), 2u);
}

TEST_F(RegistryTest, StateMachinePersistsAndServingVersionIsUnique) {
  registry_.create(4);
  ml::Network n1 = make_net(1), n2 = make_net(2);
  const std::uint64_t v1 = registry_.publish(n1);
  const std::uint64_t v2 = registry_.publish(n2);
  EXPECT_EQ(registry_.serving_version(), 0u);

  registry_.set_state(v1, VersionState::kServing);
  EXPECT_EQ(registry_.serving_version(), v1);

  registry_.set_state(v1, VersionState::kRetired);
  registry_.set_state(v2, VersionState::kServing);
  EXPECT_EQ(registry_.serving_version(), v2);
  EXPECT_EQ(registry_.record(v1).state, VersionState::kRetired);

  const RegistryStats stats = registry_.stats();
  EXPECT_EQ(stats.versions, 2u);
  EXPECT_EQ(stats.serving_version, v2);
  EXPECT_EQ(stats.publishes, 2u);
}

TEST_F(RegistryTest, TamperedRecordFailsClosed) {
  registry_.create(4);
  ml::Network net = make_net(1);
  ml::Network other = make_net(2);
  const std::uint64_t v1 = registry_.publish(net);
  const std::uint64_t v2 = registry_.publish(other);

  const auto [off, len] = registry_.sealed_extent(v1);
  ASSERT_GT(len, 32u);
  rom_.main_base()[off + 16] ^= 0x01;  // media tamper inside the ciphertext

  ml::Network victim = make_net(3);
  const Bytes before = ml::serialize_weights(victim);
  EXPECT_THROW(registry_.load(v1, victim), CryptoError);
  // Staged load: the serving model is untouched by the failed authentication.
  EXPECT_EQ(ml::serialize_weights(victim), before);
  EXPECT_EQ(registry_.stats().load_failures, 1u);

  // The sibling record still authenticates.
  registry_.load(v2, victim);
  EXPECT_EQ(ml::serialize_weights(victim), ml::serialize_weights(other));
}

TEST_F(RegistryTest, CapacityAndUnknownVersionsThrow) {
  registry_.create(1);
  ml::Network net = make_net(1);
  registry_.publish(net);
  ml::Network extra = make_net(2);
  EXPECT_THROW(registry_.publish(extra), PmError);
  EXPECT_THROW((void)registry_.record(42), PmError);
  EXPECT_THROW(registry_.load_blob(42), PmError);
  EXPECT_THROW(registry_.create(4), PmError);  // already exists
}

TEST_F(RegistryTest, FlippedCountFailsClosedWithPmError) {
  registry_.create(4);
  ml::Network net = make_net(1);
  const std::uint64_t v = registry_.publish(net);
  // Media fault in the high bits of the persistent record count (the third
  // header word): it must be bounded by the capacity before anything is
  // allocated or walked over it.
  const std::uint64_t count_off =
      rom_.root(ModelRegistry::kRootSlot) + 2 * sizeof(std::uint64_t);
  platform_.pm().flip_bit(rom_.main_region_offset() + count_off + 7, 6);

  EXPECT_THROW((void)registry_.records(), PmError);
  EXPECT_THROW((void)registry_.size(), PmError);
  EXPECT_THROW((void)registry_.serving_version(), PmError);
  EXPECT_THROW((void)registry_.sealed_bytes(), PmError);
  EXPECT_THROW((void)registry_.load_blob(v), PmError);
}

TEST(RegistryRestart, ReattachFindsSealedRecords) {
  constexpr std::size_t kPmBytes = 48u << 20;
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes, 0x400);
  Rng rng(1);
  ml::Network net = ml::build_network(tiny_config(), rng);
  const Bytes want = ml::serialize_weights(net);

  std::uint64_t v = 0;
  {
    romulus::Romulus rom(platform.pm(), 0, kPmBytes / 3,
                         romulus::PwbPolicy::clflushopt_sfence(), /*format=*/true);
    ModelRegistry registry(rom, platform.enclave(), test_gcm());
    registry.create(4);
    v = registry.publish(net);
    registry.set_state(v, VersionState::kServing);
  }

  // "Restart": re-attach to the same PM without formatting.
  romulus::Romulus rom(platform.pm(), 0, kPmBytes / 3,
                       romulus::PwbPolicy::clflushopt_sfence(), /*format=*/false);
  ModelRegistry registry(rom, platform.enclave(), test_gcm());
  ASSERT_TRUE(registry.exists());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.serving_version(), v);
  EXPECT_EQ(registry.record(v).state, VersionState::kServing);

  Rng rng2(2);
  ml::Network loaded = ml::build_network(tiny_config(), rng2);
  registry.load(v, loaded);
  EXPECT_EQ(ml::serialize_weights(loaded), want);
}

// --- autoscaler ------------------------------------------------------------------

TEST(Autoscaler, ScalesUpOnPressureThenCoolsDown) {
  AutoscalerOptions opt;
  opt.max_replicas = 8;
  opt.cooldown_windows = 2;
  opt.step = 2;
  Autoscaler scaler(opt);

  obs::Registry reg;
  reg.set_gauge("router.p99_us", opt.p99_high_us * 2);
  reg.set_gauge("router.utilization", 0.9);
  EXPECT_EQ(scaler.decide(reg, 2), 2);
  EXPECT_EQ(scaler.stats().scale_ups, 1u);
  // Cooldown: the same pressure is ignored for two windows.
  EXPECT_EQ(scaler.decide(reg, 4), 0);
  EXPECT_EQ(scaler.decide(reg, 4), 0);
  EXPECT_EQ(scaler.stats().holds, 2u);
  EXPECT_EQ(scaler.decide(reg, 4), 2);
  // Clamped at max_replicas; pressure at the ceiling is a hold, not a climb.
  Autoscaler capped(opt);
  EXPECT_EQ(capped.decide(reg, 8), 0);
}

TEST(Autoscaler, ScalesDownOnLowUtilizationAboveFloor) {
  AutoscalerOptions opt;
  opt.min_replicas = 1;
  opt.cooldown_windows = 0;
  Autoscaler scaler(opt);

  obs::Registry reg;
  reg.set_gauge("router.p99_us", 10.0);
  reg.set_gauge("router.utilization", 0.05);
  EXPECT_EQ(scaler.decide(reg, 3), -1);
  EXPECT_EQ(scaler.decide(reg, 2), -1);
  EXPECT_EQ(scaler.decide(reg, 1), 0);  // never below min_replicas
  EXPECT_EQ(scaler.stats().scale_downs, 2u);

  // Queue pressure alone also triggers growth.
  reg.set_gauge("router.queue_depth", opt.queue_high + 1);
  EXPECT_EQ(scaler.decide(reg, 1), 1);
}

// --- serving fleet ---------------------------------------------------------------

const ml::SynthDigits& digits() {
  static const ml::SynthDigits data =
      ml::make_synth_digits({.train_count = 256, .test_count = 128, .seed = 77});
  return data;
}

FleetOptions small_fleet_options(std::size_t replicas) {
  FleetOptions opt;
  opt.initial_replicas = replicas;
  opt.pm_bytes_per_replica = 24u << 20;
  opt.control_pm_bytes = 48u << 20;
  opt.server.workers = 1;
  opt.server.batch = {.max_batch = 8, .max_wait_ns = 50'000};
  opt.server.admission.max_queue = 512;
  opt.server.admission.deadline_aware = false;
  opt.router.max_outstanding = 0;        // router sheds off in baseline tests
  opt.router.tenant_class = {SloClass::kBatch};  // no deadline stamping
  opt.canary.min_samples = 10;
  opt.canary.promote_after = 2;
  opt.autoscale = false;
  return opt;
}

std::vector<Request> fleet_workload(ServingFleet& fleet, double rate_qps,
                                    std::size_t count, std::uint64_t seed) {
  LoadGenOptions lg;
  lg.rate_qps = rate_qps;
  lg.count = count;
  lg.start_ns = fleet.elapsed_ns();
  lg.seed = seed;
  lg.tenants = 6;
  const crypto::AesGcm gcm(fleet.data_key());
  crypto::IvSequence ivs(static_cast<std::uint32_t>(seed ^ 0xC11E27));
  return poisson_workload(digits().test, gcm, ivs, lg);
}

std::uint64_t publish_float(ServingFleet& fleet, std::uint64_t seed,
                            const ml::ModelConfig& config = tiny_config()) {
  Rng rng(seed);
  ml::Network net = ml::build_network(config, rng);
  return fleet.publish(net);
}

std::uint64_t publish_int8(ServingFleet& fleet, std::uint64_t seed,
                           const ml::ModelConfig& config = tiny_config()) {
  Rng rng(seed);
  ml::Network net = ml::build_network(config, rng);
  const ml::QuantizedNetwork qnet =
      ml::quantize_network(net, digits().train.x.row(0), 64);
  return fleet.publish(qnet);
}

/// Every workload request must come back exactly once, whatever its fate.
void expect_one_completion_each(const std::vector<Request>& workload,
                                const FleetWindowReport& window) {
  ASSERT_EQ(window.completions.size(), workload.size());
  std::set<std::uint64_t> ids;
  for (const Completion& c : window.completions) {
    EXPECT_TRUE(ids.insert(c.id).second) << "duplicate completion id " << c.id;
    EXPECT_FALSE(c.sealed_reply.empty());
  }
  EXPECT_EQ(ids.size(), workload.size());
}

TEST(ServingFleet, WindowServesEveryRequestExactlyOnce) {
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(),
                     small_fleet_options(2));
  const std::uint64_t v1 = publish_float(fleet, 1);
  fleet.set_stable(v1);
  EXPECT_EQ(fleet.registry().serving_version(), v1);
  EXPECT_EQ(fleet.replica_version(0), v1);
  EXPECT_EQ(fleet.replica_version(1), v1);
  EXPECT_EQ(fleet.stats().provisions, 2u);

  std::vector<Request> workload = fleet_workload(fleet, 20000.0, 300, 11);
  const FleetWindowReport window = fleet.serve_window(workload);

  expect_one_completion_each(workload, window);
  EXPECT_EQ(window.offered, 300u);
  EXPECT_EQ(window.routed, 300u);
  EXPECT_EQ(window.router_shed, 0u);
  EXPECT_GT(window.served, 0u);
  EXPECT_GT(window.span_ns, 0.0);
  EXPECT_GT(window.goodput_qps, 0.0);
  EXPECT_GT(window.p99_ns, 0.0);
  EXPECT_EQ(window.baseline.replicas, 2u);
  EXPECT_EQ(window.canary.replicas, 0u);
  EXPECT_EQ(window.served, window.baseline.served);
  EXPECT_EQ(fleet.stats().windows, 1u);
}

TEST(ServingFleet, RouterShedsStillGetSealedReplies) {
  FleetOptions opt = small_fleet_options(2);
  opt.router.max_outstanding = 4;  // tiny bound: the burst must overflow it
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(), opt);
  fleet.set_stable(publish_float(fleet, 1));

  // An effectively simultaneous burst: arrivals far faster than service.
  std::vector<Request> workload = fleet_workload(fleet, 5e6, 200, 13);
  const FleetWindowReport window = fleet.serve_window(workload);

  expect_one_completion_each(workload, window);
  EXPECT_GT(window.router_shed, 0u);
  EXPECT_EQ(window.routed + window.router_shed, window.offered);
  std::size_t shed_replies = 0;
  for (const Completion& c : window.completions) {
    if (c.status == ReplyStatus::kShedQueueFull) ++shed_replies;
  }
  EXPECT_GE(shed_replies, window.router_shed);
}

TEST(ServingFleet, HealthyCanaryPromotesFleetWide) {
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(),
                     small_fleet_options(4));
  const std::uint64_t v1 = publish_float(fleet, 1);
  fleet.set_stable(v1);
  const std::uint64_t v2 = publish_float(fleet, 2);

  ASSERT_TRUE(fleet.begin_rollout(v2));
  EXPECT_EQ(fleet.rollout_phase(), RolloutPhase::kCanary);
  EXPECT_EQ(fleet.registry().record(v2).state, VersionState::kCanary);
  std::size_t canaries = 0;
  for (std::size_t r = 0; r < fleet.replica_count(); ++r) {
    if (fleet.replica_is_canary(r)) {
      ++canaries;
      EXPECT_EQ(fleet.replica_version(r), v2);
    } else {
      EXPECT_EQ(fleet.replica_version(r), v1);
    }
  }
  EXPECT_EQ(canaries, 1u);  // ceil(0.25 * 4)

  // Same architecture and dtype on both cohorts: no regression, and after
  // promote_after healthy windows the canary version goes fleet-wide.
  std::vector<Request> w1 = fleet_workload(fleet, 20000.0, 300, 21);
  const FleetWindowReport r1 = fleet.serve_window(w1);
  EXPECT_FALSE(r1.rolled_back);
  EXPECT_FALSE(r1.promoted);
  EXPECT_GE(r1.canary.served, 10u);

  std::vector<Request> w2 = fleet_workload(fleet, 20000.0, 300, 22);
  const FleetWindowReport r2 = fleet.serve_window(w2);
  EXPECT_TRUE(r2.promoted);
  EXPECT_FALSE(r2.rolled_back);

  EXPECT_EQ(fleet.rollout_phase(), RolloutPhase::kIdle);
  EXPECT_EQ(fleet.stable_version(), v2);
  EXPECT_EQ(fleet.registry().record(v2).state, VersionState::kServing);
  EXPECT_EQ(fleet.registry().record(v1).state, VersionState::kRetired);
  EXPECT_EQ(fleet.registry().serving_version(), v2);
  for (std::size_t r = 0; r < fleet.replica_count(); ++r) {
    EXPECT_EQ(fleet.replica_version(r), v2);
    EXPECT_FALSE(fleet.replica_is_canary(r));
  }
  EXPECT_EQ(fleet.stats().promotions, 1u);
  EXPECT_EQ(fleet.stats().rollbacks, 0u);
}

TEST(ServingFleet, SloRegressionRollsCanaryBack) {
  // A model big enough that forward compute dominates per-request latency —
  // with a trivial model the fixed crypto/ecall overhead hides the dtype gap.
  const ml::ModelConfig config = ml::make_cnn_config(3, 32, 32);
  FleetOptions opt = small_fleet_options(3);
  opt.canary.p99_ratio = 1.3;
  opt.canary.p99_floor_ns = 0;
  opt.canary.promote_after = 8;  // never promotes within this test
  ServingFleet fleet(MachineProfile::emlsgx_pm(), config, opt);

  // Stable tier serves the int8 model; the canary is the float32 version of
  // the same architecture — ~2x slower per forward (int8_gemm_speedup), so
  // its p99 regresses against the baseline cohort on identical traffic.
  const std::uint64_t v1 = publish_int8(fleet, 1, config);
  fleet.set_stable(v1);
  const std::uint64_t v2 = publish_float(fleet, 1, config);
  ASSERT_TRUE(fleet.begin_rollout(v2));

  std::vector<Request> workload = fleet_workload(fleet, 20000.0, 400, 31);
  const FleetWindowReport window = fleet.serve_window(workload);

  expect_one_completion_each(workload, window);
  ASSERT_GE(window.canary.served, 10u);
  EXPECT_GT(window.canary.p99_ns, window.baseline.p99_ns * 1.3);
  EXPECT_TRUE(window.rolled_back);
  EXPECT_FALSE(window.promoted);

  EXPECT_EQ(fleet.rollout_phase(), RolloutPhase::kIdle);
  EXPECT_EQ(fleet.stable_version(), v1);
  EXPECT_EQ(fleet.registry().record(v2).state, VersionState::kRejected);
  EXPECT_EQ(fleet.registry().serving_version(), v1);
  for (std::size_t r = 0; r < fleet.replica_count(); ++r) {
    EXPECT_EQ(fleet.replica_version(r), v1);
    EXPECT_FALSE(fleet.replica_is_canary(r));
  }
  EXPECT_EQ(fleet.stats().rollbacks, 1u);

  // The fleet keeps serving the stable version cleanly after the rollback.
  std::vector<Request> after = fleet_workload(fleet, 20000.0, 200, 32);
  const FleetWindowReport next = fleet.serve_window(after);
  EXPECT_GT(next.served, 0u);
  EXPECT_EQ(next.canary.replicas, 0u);
}

// Satellite: a tampered registry record must fail the canary reload closed —
// the old version keeps serving, the rollout rolls back fleet-wide, and no
// request observes a failure.
TEST(ServingFleet, CorruptCanaryRollsBackWithZeroFailedRequests) {
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(),
                     small_fleet_options(3));
  const std::uint64_t v1 = publish_float(fleet, 1);
  fleet.set_stable(v1);
  const std::uint64_t v2 = publish_float(fleet, 2);

  // Corrupt v2's sealed bytes on the control plane's PM media.
  const auto [off, len] = fleet.registry().sealed_extent(v2);
  ASSERT_GT(len, 32u);
  fleet.control_romulus().main_base()[off + 20] ^= 0x01;

  EXPECT_FALSE(fleet.begin_rollout(v2));
  EXPECT_EQ(fleet.rollout_phase(), RolloutPhase::kIdle);
  EXPECT_EQ(fleet.registry().record(v2).state, VersionState::kRejected);
  EXPECT_GE(fleet.stats().reload_failures, 1u);
  EXPECT_GE(fleet.registry().stats().load_failures, 1u);
  EXPECT_EQ(fleet.stats().rollbacks, 1u);
  for (std::size_t r = 0; r < fleet.replica_count(); ++r) {
    EXPECT_EQ(fleet.replica_version(r), v1);  // old version kept serving
    EXPECT_FALSE(fleet.replica_is_canary(r));
  }

  // Zero failed requests: every request of the next window completes with a
  // sealed reply and none fails authentication or expires.
  std::vector<Request> workload = fleet_workload(fleet, 20000.0, 300, 41);
  const FleetWindowReport window = fleet.serve_window(workload);
  expect_one_completion_each(workload, window);
  for (const Completion& c : window.completions) {
    EXPECT_NE(c.status, ReplyStatus::kAuthFailed);
    EXPECT_NE(c.status, ReplyStatus::kExpired);
  }
  EXPECT_EQ(window.baseline.auth_failed, 0u);
  EXPECT_EQ(window.baseline.expired, 0u);
  EXPECT_GT(window.served, 0u);
  EXPECT_EQ(fleet.registry().serving_version(), v1);
}

TEST(ServingFleet, AutoscalerGrowsFleetAndProvisionsJoiners) {
  FleetOptions opt = small_fleet_options(1);
  opt.autoscale = true;
  opt.autoscaler.min_replicas = 1;
  opt.autoscaler.max_replicas = 3;
  opt.autoscaler.p99_high_us = 1.0;  // any real window breaches this
  opt.autoscaler.cooldown_windows = 0;
  opt.autoscaler.step = 1;
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(), opt);
  const std::uint64_t v1 = publish_float(fleet, 1);
  fleet.set_stable(v1);

  std::vector<Request> w1 = fleet_workload(fleet, 20000.0, 200, 51);
  const FleetWindowReport r1 = fleet.serve_window(w1);
  EXPECT_EQ(r1.replicas_begin, 1u);
  EXPECT_EQ(r1.scale_delta, 1);
  EXPECT_EQ(r1.replicas_end, 2u);
  ASSERT_EQ(fleet.replica_count(), 2u);
  // The joiner attested in (key provisioning) and got the stable weights.
  EXPECT_EQ(fleet.stats().provisions, 2u);
  EXPECT_EQ(fleet.replica_version(1), v1);
  EXPECT_EQ(fleet.stats().scale_ups, 1u);

  // The new replica serves traffic in the next window.
  std::vector<Request> w2 = fleet_workload(fleet, 20000.0, 200, 52);
  const FleetWindowReport r2 = fleet.serve_window(w2);
  EXPECT_EQ(r2.replicas_begin, 2u);
  EXPECT_GT(r2.served, 0u);
}

TEST(ServingFleet, AutoscalerShrinksIdleFleetToFloor) {
  FleetOptions opt = small_fleet_options(3);
  opt.autoscale = true;
  opt.autoscaler.min_replicas = 1;
  opt.autoscaler.max_replicas = 4;
  opt.autoscaler.p99_high_us = 1e12;  // scale-up never fires
  opt.autoscaler.queue_high = 1e12;
  opt.autoscaler.util_low = 2.0;  // utilization < 2 always: always shrink
  opt.autoscaler.cooldown_windows = 0;
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(), opt);
  fleet.set_stable(publish_float(fleet, 1));

  for (int window = 0; window < 3; ++window) {
    std::vector<Request> w =
        fleet_workload(fleet, 5000.0, 60, 61 + static_cast<std::uint64_t>(window));
    fleet.serve_window(w);
  }
  EXPECT_EQ(fleet.replica_count(), 1u);  // 3 -> 2 -> 1, clamped at the floor
  EXPECT_EQ(fleet.stats().scale_downs, 2u);
}

TEST(ServingFleet, PublishesRouterAndRegistryGauges) {
  ServingFleet fleet(MachineProfile::emlsgx_pm(), tiny_config(),
                     small_fleet_options(2));
  fleet.set_stable(publish_float(fleet, 1));
  std::vector<Request> workload = fleet_workload(fleet, 20000.0, 200, 71);
  fleet.serve_window(workload);

  obs::Registry& obs = fleet.obs_registry();
  EXPECT_GT(obs.gauge("router.p99_us"), 0.0);
  EXPECT_DOUBLE_EQ(obs.gauge("router.replicas"), 2.0);
  EXPECT_GE(obs.gauge("router.utilization"), 0.0);
  EXPECT_DOUBLE_EQ(obs.gauge("registry.versions"), 1.0);
  EXPECT_DOUBLE_EQ(obs.gauge("registry.serving_version"), 1.0);
  EXPECT_GT(obs.gauge("registry.sealed_bytes"), 0.0);
  EXPECT_EQ(obs.counter("router.offered"), 200u);
  EXPECT_GT(obs.counter("router.served"), 0u);
  EXPECT_EQ(obs.counter("registry.publishes"), 1u);

  const std::string json = obs.snapshot_json();
  for (const char* name : {"router.p99_us", "router.queue_depth",
                           "router.utilization", "router.replicas",
                           "registry.versions", "registry.serving_version"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace plinius::serve::fleet
