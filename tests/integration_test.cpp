// End-to-end integration: the complete paper workflow in one test binary —
// attestation-provisioned keys, encrypted data in PM, mirrored training,
// crashes at device level, resume, secure inference — plus fuzz sweeps over
// the externally-facing parsers and the sealed-envelope format.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "crypto/envelope.h"
#include "ml/config.h"
#include "ml/serialize.h"
#include "ml/synth_digits.h"
#include "plinius/inference.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "sgx/attestation.h"
#include "spot/trace.h"

namespace plinius {
namespace {

TEST(Integration, FullPaperWorkflow) {
  // The data owner's assets.
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 1024;
  dopt.test_count = 256;
  const auto digits = ml::make_synth_digits(dopt);
  const auto config = ml::make_cnn_config(3, 8, 32);

  Platform cloud(MachineProfile::sgx_emlpm(), 64u << 20, /*platform_seed=*/0xC10D);

  // Fig. 5 steps 2-3: attest, provision the data key.
  sgx::AttestationService ias;
  ias.register_platform(0xC10D);
  Bytes data_key(16);
  Rng(1).fill(data_key.data(), data_key.size());
  sgx::DataOwner owner(ias, cloud.enclave().measurement(), data_key, 5);
  sgx::EnclaveAttestationSession session(cloud.enclave());
  const auto report = session.respond(owner.make_challenge());
  ASSERT_TRUE(ias.verify(report));
  const Bytes provisioned = session.receive_wrapped_key(owner.wrap_key_for(report));
  ASSERT_EQ(provisioned, data_key);

  // Training with the Trainer (which seals its own key to disk); three
  // crash/resume cycles at device level.
  std::uint64_t reached = 0;
  for (int life = 0; life < 3; ++life) {
    Trainer trainer(cloud, config, TrainerOptions{});
    trainer.load_dataset(digits.train);
    const std::uint64_t resume = trainer.resume_or_init();
    EXPECT_EQ(resume, reached);
    const std::uint64_t goal = 20 + 20 * static_cast<std::uint64_t>(life);
    try {
      trainer.train(60, [&](std::uint64_t iter, float loss) {
        ASSERT_TRUE(std::isfinite(loss));
        if (iter == goal && life < 2) throw SimulatedCrash("integration kill");
      });
      reached = 60;
    } catch (const SimulatedCrash&) {
      reached = goal;
      cloud.pm().crash();
    }
  }
  EXPECT_EQ(reached, 60u);

  // Secure inference on the restored model.
  Trainer final_trainer(cloud, config, TrainerOptions{});
  final_trainer.load_dataset(digits.train);
  EXPECT_EQ(final_trainer.resume_or_init(), 60u);
  const crypto::AesGcm gcm{final_trainer.data_key()};
  InferenceService service(cloud, final_trainer.network(), gcm);
  const double acc = service.evaluate(digits.test);
  EXPECT_GT(acc, 0.5);

  // The persistent metrics log tells the whole story.
  const auto metrics = final_trainer.metrics().all();
  ASSERT_EQ(metrics.size(), 60u);
  EXPECT_EQ(metrics.back().iteration, 60u);

  // Simulated time moved forward through it all.
  EXPECT_GT(cloud.clock().now(), 0.0);
}

// --- fuzz sweeps -------------------------------------------------------------------

TEST(Fuzz, ConfigParserNeverCrashes) {
  const std::string base =
      "[net]\nbatch=8\nheight=28\nwidth=28\nchannels=1\n"
      "[convolutional]\nfilters=4\nstride=2\n\n[connected]\noutput=10\n\n[softmax]\n";
  Rng rng(101);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.below(5));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.below(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>('!' + rng.below(90)));
      }
    }
    try {
      const auto cfg = ml::ModelConfig::parse(mutated);
      Rng init(1);
      ml::Network net = ml::build_network(cfg, init);  // may also throw
      (void)net;
      ++parsed;
    } catch (const Error&) {
      ++rejected;  // clean rejection is the contract
    }
  }
  EXPECT_EQ(parsed + rejected, 400);
  EXPECT_GT(rejected, 0);  // mutations do get caught
}

TEST(Fuzz, SpotTraceParserNeverCrashes) {
  const std::string base = spot::SpotTrace::synthetic(16, 1).to_csv();
  Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    for (int e = 0; e < 3; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<char>(rng.below(256));
    }
    try {
      (void)spot::SpotTrace::parse_csv(mutated);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, SealedEnvelopeRejectsAllMutations) {
  Rng rng(303);
  Bytes key(16);
  rng.fill(key.data(), key.size());
  const crypto::AesGcm gcm(key);
  crypto::IvSequence iv_seq(304);

  Bytes plain(257);
  rng.fill(plain.data(), plain.size());
  const Bytes sealed = crypto::seal(gcm, iv_seq, plain);

  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = sealed;
    const std::size_t pos = rng.below(mutated.size());
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.below(8));
    mutated[pos] ^= bit;
    try {
      const Bytes out = crypto::open(gcm, mutated);
      // An IV flip changes the keystream => MAC must fail; a CT flip =>
      // MAC must fail; a MAC flip => compare must fail. Nothing may open.
      FAIL() << "mutation at byte " << pos << " opened successfully";
    } catch (const CryptoError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 200);

  // Truncations and extensions are rejected too.
  for (const std::size_t cut : {1u, 12u, 16u, 28u, 100u}) {
    Bytes truncated(sealed.begin(), sealed.end() - static_cast<long>(cut));
    EXPECT_THROW((void)crypto::open(gcm, truncated), CryptoError);
  }
  Bytes extended = sealed;
  extended.push_back(0);
  EXPECT_THROW((void)crypto::open(gcm, extended), CryptoError);
}

TEST(Fuzz, WeightsBlobRejectsMutationsOrStaysShapeSafe) {
  Rng rng(405);
  ml::Network net = [&] {
    Rng init(9);
    return ml::build_network(ml::make_cnn_config(2, 4, 8), init);
  }();
  const Bytes blob = ml::serialize_weights(net);

  int clean = 0, rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = blob;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      ml::deserialize_weights(net, mutated);
      ++clean;  // payload-only mutation: loads, shapes intact
    } catch (const MlError&) {
      ++rejected;  // structural mutation: cleanly rejected
    }
  }
  EXPECT_EQ(clean + rejected, 200);
  // Restore pristine weights for hygiene.
  ml::deserialize_weights(net, blob);
}

TEST(Integration, BundledSpotTraceMatchesGenerator) {
  // data/spot_trace.csv is the seed-57 synthetic trace written by to_csv();
  // regeneration must reproduce it bit-for-bit (protects the Fig. 10
  // scenario, which replays the bundled file).
  spot::SpotTrace bundled;
  try {
    bundled = spot::SpotTrace::from_file(PLINIUS_DATA_DIR "/spot_trace.csv");
  } catch (const Error& e) {
    FAIL() << e.what();
  }
  const auto regenerated = spot::SpotTrace::synthetic(256, 57);
  ASSERT_EQ(bundled.size(), regenerated.size());
  int above_bid = 0;
  for (std::size_t i = 0; i < bundled.size(); ++i) {
    EXPECT_EQ(bundled.entries[i].timestamp_s, regenerated.entries[i].timestamp_s);
    EXPECT_EQ(bundled.entries[i].price, regenerated.entries[i].price);
    above_bid += bundled.entries[i].price > 0.0955;
  }
  EXPECT_GT(above_bid, 0);
}

}  // namespace
}  // namespace plinius
