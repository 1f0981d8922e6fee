#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "crypto/envelope.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/server.h"

namespace plinius::serve {
namespace {

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(99).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

// --- batcher (pure dispatch rule) ------------------------------------------------

TEST(Batcher, FullBatchDispatchesAtFloor) {
  const BatchPolicy policy{.max_batch = 4, .max_wait_ns = 1000};
  // Queue already full: dispatch when the worker frees and a request waits.
  EXPECT_EQ(batch_dispatch_ns(policy, 500, 4, 100, 100, 600), 500);
  EXPECT_EQ(batch_dispatch_ns(policy, 50, 4, 100, 100, 600), 100);
}

TEST(Batcher, FullBatchWaitsForItsNewestMember) {
  const BatchPolicy policy{.max_batch = 4, .max_wait_ns = 1000};
  // Regression: a batch filled mid-window by a late arrival (oldest at 100,
  // the filling request at 500) must dispatch at 500, not collapse to the
  // idle-worker/oldest floor — that would put a request "in service" before
  // it arrived (negative queue time).
  EXPECT_EQ(batch_dispatch_ns(policy, 0, 4, 100, 500, kNoArrival), 500);
  // A busy worker still dominates once it frees past the newest member.
  EXPECT_EQ(batch_dispatch_ns(policy, 800, 4, 100, 500, kNoArrival), 800);
}

TEST(Batcher, PartialBatchNeverDispatchesBeforeNewestMember) {
  const BatchPolicy policy{.max_batch = 8, .max_wait_ns = 1000};
  // No arrivals left and the batch won't fill: dispatch immediately, but
  // not before the newest queued request arrived.
  EXPECT_EQ(batch_dispatch_ns(policy, 0, 2, 100, 500, kNoArrival), 500);
}

TEST(Batcher, GreedyWhenNoWait) {
  const BatchPolicy policy{.max_batch = 8, .max_wait_ns = 0};
  EXPECT_EQ(batch_dispatch_ns(policy, 200, 1, 100, 100, 250), 200);
}

TEST(Batcher, HoldsForWaitWindow) {
  const BatchPolicy policy{.max_batch = 8, .max_wait_ns = 1000};
  // Next arrival past the window: dispatch at window end.
  EXPECT_EQ(batch_dispatch_ns(policy, 0, 1, 100, 100, 5000), 1100);
  // Next arrival inside the window: hold at least until the arrival.
  EXPECT_EQ(batch_dispatch_ns(policy, 0, 1, 100, 100, 600), 600);
  // No arrivals left: nothing to wait for.
  EXPECT_EQ(batch_dispatch_ns(policy, 0, 1, 100, 100, kNoArrival), 100);
}

// --- admission queue -------------------------------------------------------------

TEST(Admission, DepthBoundSheds) {
  AdmissionQueue queue(AdmissionOptions{.max_queue = 2});
  std::vector<Request> reqs(3);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = i;
    reqs[i].arrival_ns = static_cast<sim::Nanos>(i);
  }
  EXPECT_FALSE(queue.offer(reqs[0]).has_value());
  EXPECT_FALSE(queue.offer(reqs[1]).has_value());
  EXPECT_EQ(queue.offer(reqs[2]), ReplyStatus::kShedQueueFull);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.stats().shed_queue_full, 1u);
}

TEST(Admission, DeadlineTestUsesServiceEstimate) {
  AdmissionQueue queue(AdmissionOptions{.max_queue = 16});
  queue.set_service_estimate_ns(1000);
  Request ok;
  ok.arrival_ns = 0;
  ok.deadline_ns = 1500;  // one service fits
  EXPECT_FALSE(queue.offer(ok).has_value());
  Request tight;
  tight.arrival_ns = 0;
  tight.deadline_ns = 1500;  // behind `ok`: 2 * 1000 > 1500
  EXPECT_EQ(queue.offer(tight), ReplyStatus::kShedDeadline);
  // Without a deadline the test never fires.
  Request open;
  open.arrival_ns = 0;
  EXPECT_FALSE(queue.offer(open).has_value());
}

TEST(Admission, PopSweepsExpired) {
  AdmissionQueue queue(AdmissionOptions{});
  Request stale, fresh;
  stale.id = 1;
  stale.arrival_ns = 0;
  stale.deadline_ns = 100;
  fresh.id = 2;
  fresh.arrival_ns = 10;
  EXPECT_FALSE(queue.offer(stale).has_value());
  EXPECT_FALSE(queue.offer(fresh).has_value());
  std::vector<const Request*> expired;
  const Request* got = queue.pop(500, expired);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id, 2u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->id, 1u);
  EXPECT_EQ(queue.stats().expired, 1u);
}

// --- sealed reply envelope -------------------------------------------------------

TEST(Reply, RoundTripAndTamper) {
  const auto gcm = test_gcm();
  crypto::IvSequence ivs(7);
  Bytes sealed = seal_reply(gcm, ivs, ReplyStatus::kOk, 42);
  EXPECT_EQ(sealed.size(), kReplySealedSize);
  const OpenedReply opened = open_reply(gcm, sealed);
  EXPECT_EQ(opened.status, ReplyStatus::kOk);
  EXPECT_EQ(opened.value, 42u);

  Bytes tampered = sealed;
  tampered[tampered.size() / 2] ^= 0x10;
  EXPECT_THROW((void)open_reply(gcm, tampered), CryptoError);
  Bytes mac_corrupt = sealed;
  mac_corrupt.back() ^= 0x01;  // last MAC byte
  EXPECT_THROW((void)open_reply(gcm, mac_corrupt), CryptoError);
  EXPECT_THROW((void)open_reply(gcm, ByteSpan(sealed.data(), 5)), CryptoError);
  EXPECT_THROW((void)open_reply(gcm, ByteSpan(sealed.data(), sealed.size() - 1)),
               CryptoError);

  // An authentic envelope of the wrong payload size names expected vs got.
  const std::uint8_t short_plain[3] = {0, 1, 2};
  const Bytes short_reply = crypto::seal(gcm, ivs, ByteSpan(short_plain, 3));
  try {
    (void)open_reply(gcm, short_reply);
    FAIL() << "wrong-size reply must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected " + std::to_string(kReplySealedSize)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(short_reply.size())), std::string::npos)
        << msg;
  }

  // Every client holds the data key, so an authentic reply can still carry a
  // status byte outside ReplyStatus: it must fail closed, naming the byte.
  std::uint8_t rogue_plain[kReplyPlainSize] = {0x7F};
  const Bytes rogue_status = crypto::seal(gcm, ivs, ByteSpan(rogue_plain, kReplyPlainSize));
  ASSERT_EQ(rogue_status.size(), kReplySealedSize);
  try {
    (void)open_reply(gcm, rogue_status);
    FAIL() << "out-of-range status must throw";
  } catch (const CryptoError& e) {
    EXPECT_NE(std::string(e.what()).find("127"), std::string::npos) << e.what();
  }
  rogue_plain[0] = static_cast<std::uint8_t>(ReplyStatus::kAuthFailed);
  EXPECT_EQ(open_reply(gcm, crypto::seal(gcm, ivs, ByteSpan(rogue_plain, kReplyPlainSize)))
                .status,
            ReplyStatus::kAuthFailed);
}

// --- full server -----------------------------------------------------------------

// The fixture runs on the paper's main evaluation platform (emlSGX-PM).
// Serving there is bound by the per-call GCM setup cost, which batching
// spreads across the worker's TCS lanes — the regime the batcher targets.
// (On sgx-emlPM the MEE-throttled per-byte boundary copy caps the win near
// 2x; bench/serve_sweep covers both platforms.)
class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : platform_(MachineProfile::emlsgx_pm(), 64 * 1024 * 1024) {
    platform_.enclave().set_tcs_count(8);
    ml::SynthDigitsOptions opt;
    opt.train_count = 1024;
    opt.test_count = 256;
    digits_ = ml::make_synth_digits(opt);
    trainer_ = std::make_unique<Trainer>(
        platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
    trainer_->load_dataset(digits_.train);
    (void)trainer_->train(20);
    gcm_ = std::make_unique<crypto::AesGcm>(trainer_->data_key());
  }

  std::vector<Request> workload(double rate_qps, std::size_t count,
                                sim::Nanos relative_deadline = kNoDeadline,
                                std::uint64_t seed = 1) {
    LoadGenOptions opt;
    opt.rate_qps = rate_qps;
    opt.count = count;
    opt.start_ns = 0;
    opt.relative_deadline_ns = relative_deadline;
    opt.seed = seed;
    crypto::IvSequence client_iv(1234);
    return poisson_workload(digits_.test, *gcm_, client_iv, opt);
  }

  Platform platform_;
  ml::SynthDigits digits_;
  std::unique_ptr<Trainer> trainer_;
  std::unique_ptr<crypto::AesGcm> gcm_;
};

TEST_F(ServeTest, EveryRequestRepliedAndStagesAccountExactly) {
  // Overload on purpose: tiny queue + tight deadlines force every reply
  // path (served, queue-full, deadline-shed, expired) to appear.
  const auto reqs = workload(1.0e6, 300, 5.0e4);
  ServerOptions opt;
  opt.workers = 2;
  opt.batch = {.max_batch = 8, .max_wait_ns = 10'000};
  opt.admission = {.max_queue = 16, .deadline_aware = true};
  InferenceServer server(platform_, trainer_->network(), *gcm_, opt,
                         &trainer_->mirror());
  const auto done = server.run(reqs);

  // Zero dropped-without-reply: exactly one completion per request id, and
  // every completion carries a well-formed sealed reply.
  ASSERT_EQ(done.size(), reqs.size());
  std::map<std::uint64_t, const Completion*> by_id;
  for (const auto& c : done) {
    EXPECT_TRUE(by_id.emplace(c.id, &c).second) << "duplicate reply id " << c.id;
    const OpenedReply opened = open_reply(*gcm_, c.sealed_reply);
    EXPECT_EQ(opened.status, c.status);
    if (c.served()) {
      // The reply carries the model's prediction on the client's plaintext.
      EXPECT_EQ(opened.value, c.prediction);
      const Bytes plain = crypto::open(*gcm_, reqs[c.id].sealed_query);
      std::vector<float> x(plain.size() / sizeof(float));
      std::memcpy(x.data(), plain.data(), plain.size());
      std::size_t expected = 0;
      trainer_->network().predict(x.data(), 1, &expected);
      EXPECT_EQ(c.prediction, expected) << "request " << c.id;
    }

    // The per-stage accounting invariant.
    EXPECT_NEAR(c.stages.total(), c.done_ns - c.arrival_ns,
                1e-6 * std::max(1.0, c.done_ns - c.arrival_ns));
    EXPECT_GE(c.done_ns, c.arrival_ns);
  }
  for (const auto& r : reqs) EXPECT_TRUE(by_id.count(r.id));

  const auto& stats = server.stats();
  EXPECT_EQ(stats.arrived, reqs.size());
  EXPECT_EQ(stats.completed + stats.shed_total() + stats.auth_failed,
            reqs.size());
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.shed_total(), 0u);  // the overload actually shed
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.mean_batch(), 1.0);  // overload coalesced into real batches
}

TEST_F(ServeTest, BatchFilledMidWindowDispatchesAtFillingArrival) {
  // The reviewer-reported schedule: idle worker, max_batch = 4, a long hold
  // window, arrivals at 100/150/200/500 us. The t=500us arrival fills the
  // batch, so dispatch happens at t=500us — never at the t=100us floor,
  // which would give the filling request a negative queue time and a
  // completion before its own arrival.
  const sim::Nanos us = 1000.0;
  auto reqs = workload(20000.0, 4);
  reqs[0].arrival_ns = 100 * us;
  reqs[1].arrival_ns = 150 * us;
  reqs[2].arrival_ns = 200 * us;
  reqs[3].arrival_ns = 500 * us;

  ServerOptions opt;
  opt.workers = 1;
  opt.batch = {.max_batch = 4, .max_wait_ns = 1000 * us};
  opt.admission = {.max_queue = 16};
  InferenceServer server(platform_, trainer_->network(), *gcm_, opt);
  const auto done = server.run(reqs);

  ASSERT_EQ(done.size(), 4u);
  for (const auto& c : done) {
    EXPECT_EQ(c.status, ReplyStatus::kOk);
    EXPECT_EQ(c.batch_size, 4u);  // one batch, filled by the last arrival
    EXPECT_GE(c.stages.queue_ns, 0.0) << "request " << c.id;
    EXPECT_GE(c.done_ns, c.arrival_ns) << "request " << c.id;
  }
  for (const auto& c : done) {
    const sim::Nanos expect_queue = 500 * us - reqs[c.id].arrival_ns;
    EXPECT_DOUBLE_EQ(c.stages.queue_ns, expect_queue) << "request " << c.id;
  }
}

TEST_F(ServeTest, DeterministicScheduleAndAccounting) {
  const auto reqs = workload(20000.0, 200, 5.0e6);
  ServerOptions opt;
  opt.workers = 2;
  opt.batch = {.max_batch = 4, .max_wait_ns = 100'000};
  opt.admission = {.max_queue = 32};

  auto run_once = [&]() {
    InferenceServer server(platform_, trainer_->network(), *gcm_, opt);
    auto done = server.run(reqs);
    std::sort(done.begin(), done.end(),
              [](const Completion& a, const Completion& b) { return a.id < b.id; });
    return done;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].status, second[i].status);
    EXPECT_EQ(first[i].prediction, second[i].prediction);
    EXPECT_EQ(first[i].batch_size, second[i].batch_size);
    EXPECT_EQ(first[i].worker, second[i].worker);
    EXPECT_DOUBLE_EQ(first[i].done_ns, second[i].done_ns);
    EXPECT_DOUBLE_EQ(first[i].stages.queue_ns, second[i].stages.queue_ns);
    EXPECT_DOUBLE_EQ(first[i].stages.decrypt_ns, second[i].stages.decrypt_ns);
    EXPECT_DOUBLE_EQ(first[i].stages.forward_ns, second[i].stages.forward_ns);
    EXPECT_DOUBLE_EQ(first[i].stages.seal_ns, second[i].stages.seal_ns);
    EXPECT_DOUBLE_EQ(first[i].stages.other_ns, second[i].stages.other_ns);
  }
}

TEST_F(ServeTest, BatchingAmortizesFixedCosts) {
  // A backlog (arrivals far faster than service) so the batcher always has
  // work: batch=16 must clear it much faster than batch=1 — one ecall and
  // one model touch per 16 requests instead of per request.
  const auto reqs = workload(1e7, 128);

  auto span_with_batch = [&](std::size_t max_batch) {
    ServerOptions opt;
    opt.workers = 1;
    opt.batch = {.max_batch = max_batch, .max_wait_ns = 0};
    opt.admission = {.max_queue = 1024};
    InferenceServer server(platform_, trainer_->network(), *gcm_, opt);
    (void)server.run(reqs);
    EXPECT_EQ(server.stats().completed, reqs.size());
    return server.stats().span_ns;
  };

  const sim::Nanos span1 = span_with_batch(1);
  const sim::Nanos span16 = span_with_batch(16);
  EXPECT_LT(span16 * 3.0, span1)
      << "batch=16 span " << span16 << " vs batch=1 span " << span1;
}

TEST_F(ServeTest, MoreWorkersDontSlowTheBacklog) {
  const auto reqs = workload(1e7, 128);
  auto span_with_workers = [&](std::size_t workers) {
    ServerOptions opt;
    opt.workers = workers;
    opt.batch = {.max_batch = 8, .max_wait_ns = 0};
    opt.admission = {.max_queue = 1024};
    InferenceServer server(platform_, trainer_->network(), *gcm_, opt);
    (void)server.run(reqs);
    EXPECT_EQ(server.stats().completed, reqs.size());
    EXPECT_EQ(server.lanes_per_worker(), 8 / workers);
    return server.stats().span_ns;
  };
  // 4 workers x 2 lanes overlap the per-batch fixed costs that 1 worker x
  // 8 lanes pays serially; aggregate forward throughput is identical.
  EXPECT_LE(span_with_workers(4), span_with_workers(1) * 1.01);
}

TEST_F(ServeTest, SheddingBoundsTailLatencyUnderOverload) {
  // Offered load well past capacity. With an unbounded queue the tail grows
  // with the backlog; with a bounded queue p99 stays pinned near
  // queue-depth / service-rate.
  const auto reqs = workload(1.0e6, 400);

  auto p99_with_queue = [&](std::size_t max_queue) {
    ServerOptions opt;
    opt.workers = 1;
    opt.batch = {.max_batch = 8, .max_wait_ns = 0};
    opt.admission = {.max_queue = max_queue, .deadline_aware = false};
    InferenceServer server(platform_, trainer_->network(), *gcm_, opt);
    const auto done = server.run(reqs);
    const SloReport rep = make_slo_report(reqs, done);
    return std::pair<sim::Nanos, std::uint64_t>(rep.p99_ns, rep.shed_queue_full);
  };

  const auto [p99_bounded, shed_bounded] = p99_with_queue(16);
  const auto [p99_unbounded, shed_unbounded] = p99_with_queue(1u << 20);
  EXPECT_EQ(shed_unbounded, 0u);
  EXPECT_GT(shed_bounded, 0u);
  EXPECT_LT(p99_bounded * 2, p99_unbounded)
      << "bounded p99 " << p99_bounded << " vs unbounded " << p99_unbounded;
}

TEST_F(ServeTest, HotReloadPicksUpNewMirrorWithoutDowntime) {
  InferenceServer server(platform_, trainer_->network(), *gcm_,
                         ServerOptions{.workers = 1,
                                       .batch = {.max_batch = 4, .max_wait_ns = 0},
                                       .admission = {.max_queue = 256}},
                         &trainer_->mirror());
  EXPECT_EQ(server.served_version(), 20u);

  // A concurrent trainer advances the mirror...
  (void)trainer_->train(30);
  EXPECT_EQ(trainer_->mirror().iteration(), 30u);

  // ...and the server picks it up between batches, serving every request.
  const auto reqs = workload(20000.0, 64);
  const auto done = server.run(reqs);
  EXPECT_EQ(done.size(), reqs.size());
  EXPECT_GE(server.stats().reloads, 1u);
  EXPECT_EQ(server.stats().reload_failures, 0u);
  EXPECT_EQ(server.served_version(), 30u);
}

TEST_F(ServeTest, CorruptMirrorNeverTearsTheServingModel) {
  InferenceServer server(platform_, trainer_->network(), *gcm_,
                         ServerOptions{.workers = 1,
                                       .batch = {.max_batch = 4, .max_wait_ns = 0},
                                       .admission = {.max_queue = 256}},
                         &trainer_->mirror());
  (void)trainer_->train(25);  // mirror now ahead of served_version

  // Snapshot the serving weights, then corrupt one sealed mirror buffer.
  std::vector<float> before;
  for (std::size_t l = 0; l < trainer_->network().num_layers(); ++l) {
    for (const auto& p : trainer_->network().layer(l).parameters()) {
      before.insert(before.end(), p.values.begin(), p.values.end());
    }
  }
  const auto extents = trainer_->mirror().sealed_extents();
  ASSERT_FALSE(extents.empty());
  trainer_->romulus().main_base()[extents[0].primary_off + 16] ^= 0x01;

  const auto reqs = workload(20000.0, 64);
  const auto done = server.run(reqs);
  EXPECT_EQ(done.size(), reqs.size());
  EXPECT_GE(server.stats().reload_failures, 1u);
  EXPECT_EQ(server.stats().reloads, 0u);
  EXPECT_EQ(server.served_version(), 20u);  // still on the pre-corruption model

  // The failed snapshot restores must not have touched a single weight.
  std::vector<float> after;
  for (std::size_t l = 0; l < trainer_->network().num_layers(); ++l) {
    for (const auto& p : trainer_->network().layer(l).parameters()) {
      after.insert(after.end(), p.values.begin(), p.values.end());
    }
  }
  EXPECT_EQ(before, after);
}

TEST_F(ServeTest, AuthFailedQueriesGetSealedErrorReplies) {
  auto reqs = workload(10000.0, 16);
  reqs[5].sealed_query[reqs[5].sealed_query.size() / 2] ^= 0xFF;  // tamper
  reqs[9].sealed_query.resize(10);                                // truncate
  // A client sealing under a rogue key, and an authentic envelope one float
  // short of the model input.
  crypto::IvSequence iv(77);
  const crypto::AesGcm rogue(Bytes(16, 0x66));
  const float* row = digits_.test.x.row(0);
  reqs[11].sealed_query =
      crypto::seal(rogue, iv, float_bytes(std::span<const float>(row, ml::kDigitPixels)));
  reqs[13].sealed_query =
      crypto::seal(*gcm_, iv, float_bytes(std::span<const float>(row, ml::kDigitPixels - 1)));
  const std::set<std::uint64_t> rejected = {5, 9, 11, 13};

  InferenceServer server(platform_, trainer_->network(), *gcm_,
                         ServerOptions{.workers = 1,
                                       .batch = {.max_batch = 4, .max_wait_ns = 0},
                                       .admission = {.max_queue = 256}});
  const auto done = server.run(reqs);
  ASSERT_EQ(done.size(), reqs.size());
  std::size_t auth_failed = 0;
  for (const auto& c : done) {
    if (rejected.count(c.id)) {
      EXPECT_EQ(c.status, ReplyStatus::kAuthFailed);
      EXPECT_EQ(open_reply(*gcm_, c.sealed_reply).status, ReplyStatus::kAuthFailed);
      ++auth_failed;
    } else {
      EXPECT_EQ(c.status, ReplyStatus::kOk);
    }
  }
  EXPECT_EQ(auth_failed, rejected.size());
  EXPECT_EQ(server.stats().auth_failed, rejected.size());
}

TEST_F(ServeTest, ServeLogPersistsWindowRecords) {
  ServeLog log(trainer_->romulus());
  EXPECT_FALSE(log.exists());
  log.create(8);
  ASSERT_TRUE(log.exists());

  InferenceServer server(platform_, trainer_->network(), *gcm_,
                         ServerOptions{.workers = 2,
                                       .batch = {.max_batch = 4, .max_wait_ns = 0},
                                       .admission = {.max_queue = 8}},
                         &trainer_->mirror(), &log);
  const auto reqs = workload(40000.0, 100);
  const auto done = server.run(reqs);
  ASSERT_EQ(log.size(), 1u);
  const ServeWindowRecord rec = log.at(0);
  EXPECT_EQ(rec.window, 0u);
  EXPECT_EQ(rec.arrived, reqs.size());
  const SloReport rep = make_slo_report(reqs, done);
  EXPECT_EQ(rec.completed, rep.served);
  EXPECT_EQ(rec.shed, rep.shed_total());
  EXPECT_EQ(rec.model_version, server.served_version());
  EXPECT_NEAR(rec.p99_us, rep.p99_ns / 1000.0, 1e-3 * std::max(1.0, rep.p99_ns / 1000.0));

  // A second window appends with the next window number.
  (void)server.run(workload(40000.0, 50, kNoDeadline, 2));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.at(1).window, 1u);
}

TEST_F(ServeTest, SloReportAddsUpAndScoresAccuracy) {
  const auto reqs = workload(5000.0, 128);
  InferenceServer server(platform_, trainer_->network(), *gcm_,
                         ServerOptions{.workers = 2,
                                       .batch = {.max_batch = 8, .max_wait_ns = 100'000},
                                       .admission = {.max_queue = 64}});
  const auto done = server.run(reqs);
  const SloReport rep = make_slo_report(reqs, done);
  EXPECT_EQ(rep.offered, reqs.size());
  EXPECT_EQ(rep.served + rep.shed_total() + rep.auth_failed, reqs.size());
  EXPECT_GT(rep.goodput_qps, 0.0);
  EXPECT_LE(rep.p50_ns, rep.p95_ns);
  EXPECT_LE(rep.p95_ns, rep.p99_ns);
  EXPECT_LE(rep.p99_ns, rep.max_ns);
  EXPECT_GT(rep.accuracy, 0.3);  // briefly-trained model still beats chance
  EXPECT_FALSE(to_string(rep).empty());
}

// --- one-shot sealed queries ------------------------------------------------------

// A client sealing single queries against a trained model and opening each
// sealed reply: the secure-inference round trip of the paper, served by the
// default-configured InferenceServer one request per run.
class InferenceTest : public ::testing::Test {
 protected:
  InferenceTest() : platform_(MachineProfile::emlsgx_pm(), 64 * 1024 * 1024) {
    ml::SynthDigitsOptions opt;
    opt.train_count = 2048;
    opt.test_count = 512;
    digits_ = ml::make_synth_digits(opt);
  }

  void train(const ml::ModelConfig& cfg, std::size_t iterations) {
    trainer_ = std::make_unique<Trainer>(platform_, cfg, TrainerOptions{});
    trainer_->load_dataset(digits_.train);
    (void)trainer_->train(iterations);
    gcm_ = std::make_unique<crypto::AesGcm>(trainer_->data_key());
    server_ = std::make_unique<InferenceServer>(platform_, trainer_->network(), *gcm_,
                                                ServerOptions{});
  }

  Bytes seal_query(const crypto::AesGcm& gcm, crypto::IvSequence& iv, std::size_t row,
                   std::size_t floats = ml::kDigitPixels) const {
    return crypto::seal(gcm, iv,
                        float_bytes(std::span<const float>(digits_.test.x.row(row), floats)));
  }

  Completion serve_one(Bytes sealed_query) {
    Request req;
    req.arrival_ns = platform_.clock().now();
    req.sealed_query = std::move(sealed_query);
    const auto done = server_->run(std::span<const Request>(&req, 1));
    EXPECT_EQ(done.size(), 1u);
    return done.empty() ? Completion{} : done.front();
  }

  Platform platform_;
  ml::SynthDigits digits_;
  std::unique_ptr<Trainer> trainer_;
  std::unique_ptr<crypto::AesGcm> gcm_;
  std::unique_ptr<InferenceServer> server_;
};

TEST_F(InferenceTest, SealedQueryRoundTrip) {
  train(ml::make_cnn_config(3, 8, 64), 80);

  crypto::IvSequence client_iv(77);
  int correct = 0;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const Completion c = serve_one(seal_query(*gcm_, client_iv, i));
    ASSERT_TRUE(c.served()) << "query " << i;
    const OpenedReply reply = open_reply(*gcm_, c.sealed_reply);
    EXPECT_EQ(reply.status, ReplyStatus::kOk);
    EXPECT_EQ(reply.value, c.prediction);

    const float* truth = digits_.test.y.row(i);
    std::size_t label = 0;
    for (std::size_t k = 1; k < ml::kDigitClasses; ++k) {
      if (truth[k] > truth[label]) label = k;
    }
    correct += reply.value == label;
  }
  EXPECT_GT(correct, n * 3 / 4);  // trained model classifies well
  EXPECT_EQ(server_->stats().completed, static_cast<std::uint64_t>(n));
  EXPECT_GT(server_->stats().busy_ns, 0.0);
}

TEST_F(InferenceTest, TamperedQueryRejected) {
  train(ml::make_cnn_config(2, 4, 32), 2);

  crypto::IvSequence iv(1);
  Bytes query = seal_query(*gcm_, iv, 0);
  query[40] ^= 0xFF;
  const Completion tampered = serve_one(query);
  EXPECT_EQ(tampered.status, ReplyStatus::kAuthFailed);
  EXPECT_EQ(open_reply(*gcm_, tampered.sealed_reply).status, ReplyStatus::kAuthFailed);
  const Completion truncated = serve_one(Bytes(query.begin(), query.begin() + 10));
  EXPECT_EQ(truncated.status, ReplyStatus::kAuthFailed);
  EXPECT_EQ(server_->stats().auth_failed, 2u);
  EXPECT_EQ(server_->stats().completed, 0u);
}

TEST_F(InferenceTest, WrongKeyClientRejected) {
  train(ml::make_cnn_config(2, 4, 32), 2);

  const crypto::AesGcm rogue(Bytes(16, 0x66));
  crypto::IvSequence iv(1);
  const Completion c = serve_one(seal_query(rogue, iv, 0));
  EXPECT_EQ(c.status, ReplyStatus::kAuthFailed);
  // The rejection is sealed under the provisioned key; the rogue client
  // cannot even open it.
  EXPECT_EQ(open_reply(*gcm_, c.sealed_reply).status, ReplyStatus::kAuthFailed);
  EXPECT_THROW((void)open_reply(rogue, c.sealed_reply), CryptoError);
}

TEST_F(InferenceTest, WrongSizeQueryNamesExpectedVsGot) {
  train(ml::make_cnn_config(2, 4, 32), 2);

  // An authentic query one float short of the model input is rejected with a
  // sealed reply of the usual size, so the channel cannot tell it apart.
  crypto::IvSequence iv(3);
  const Bytes query = seal_query(*gcm_, iv, 0, ml::kDigitPixels - 1);
  const Completion c = serve_one(query);
  EXPECT_EQ(c.status, ReplyStatus::kAuthFailed);
  EXPECT_EQ(c.sealed_reply.size(), kReplySealedSize);

  // The server answers every request instead of throwing, so the size check
  // that names expected vs got is the client decoder's: an authentic
  // envelope of the wrong size never opens as a reply.
  try {
    (void)open_reply(*gcm_, query);
    FAIL() << "wrong-size envelope must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected " + std::to_string(kReplySealedSize)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(query.size())), std::string::npos) << msg;
  }
}

TEST_F(InferenceTest, OpenPredictionRejectsTruncationTamperAndBadPayload) {
  train(ml::make_cnn_config(2, 4, 32), 2);

  crypto::IvSequence iv(5);
  const Bytes reply = serve_one(seal_query(*gcm_, iv, 0)).sealed_reply;

  // Truncated below the envelope overhead, truncated mid-ciphertext, and
  // MAC-corrupted replies must all fail as CryptoError.
  EXPECT_THROW((void)open_reply(*gcm_, ByteSpan(reply.data(), 4)), CryptoError);
  EXPECT_THROW((void)open_reply(*gcm_, ByteSpan(reply.data(), reply.size() - 1)),
               CryptoError);
  Bytes mac_corrupt = reply;
  mac_corrupt.back() ^= 0x01;  // last MAC byte
  EXPECT_THROW((void)open_reply(*gcm_, mac_corrupt), CryptoError);

  // An authentic envelope of the wrong payload size names expected vs got.
  crypto::IvSequence iv2(6);
  const Bytes bad_payload = crypto::seal(*gcm_, iv2, ByteSpan(reply.data(), 3));
  try {
    (void)open_reply(*gcm_, bad_payload);
    FAIL() << "bad payload size must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected " + std::to_string(kReplySealedSize)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(bad_payload.size())), std::string::npos)
        << msg;
  }

  // The untampered reply still opens fine afterwards.
  const OpenedReply opened = open_reply(*gcm_, reply);
  EXPECT_EQ(opened.status, ReplyStatus::kOk);
  EXPECT_LT(opened.value, ml::kDigitClasses);
}

}  // namespace
}  // namespace plinius::serve
