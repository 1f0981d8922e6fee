// Secure inference serving end to end:
//
//   1. the model owner attests the enclave and provisions the data key
//      (Fig. 5 steps 2-3; the same channel later hands the key to the
//      client fleet so they can seal queries and open sealed replies);
//   2. the enclave trains briefly, mirroring the model to PM;
//   3. an InferenceServer serves an open-loop Poisson client load —
//      batched decrypt->forward->seal inside the enclave, bounded
//      admission queue, deadline shedding;
//   4. the owner trains on; the server hot-reloads the new weights from
//      the PM mirror between batches, without downtime or torn weights;
//   5. the SLO report (p50/p95/p99 + per-stage breakdown) is printed and
//      the window record persists in the PM ServeLog.
#include <cstdio>

#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/metrics_log.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sgx/attestation.h"

int main() {
  using namespace plinius;
  using namespace plinius::serve;

  Platform cloud(MachineProfile::emlsgx_pm(), 64u << 20);
  cloud.enclave().set_tcs_count(8);

  // --- attestation: the owner only talks to a genuine, measured enclave ----
  sgx::AttestationService ias;
  ias.register_platform(0x5367E0ULL);
  Bytes owner_key(16);
  Rng owner_rng(2026);
  owner_rng.fill(owner_key.data(), owner_key.size());
  sgx::DataOwner owner(ias, cloud.enclave().measurement(), owner_key,
                       /*nonce_seed=*/11);
  sgx::EnclaveAttestationSession session(cloud.enclave());
  const sgx::Report report = session.respond(owner.make_challenge());
  std::printf("enclave attested: %s\n", ias.verify(report) ? "yes" : "no");
  (void)session.receive_wrapped_key(owner.wrap_key_for(report));

  // --- brief training run (model lives in the enclave + PM mirror) --------
  ml::SynthDigitsOptions dopt;
  dopt.train_count = 2048;
  dopt.test_count = 512;
  const auto digits = ml::make_synth_digits(dopt);
  Trainer trainer(cloud, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits.train);
  (void)trainer.train(40);
  std::printf("trained to iteration %llu\n",
              static_cast<unsigned long long>(trainer.network().iterations()));

  // The client fleet received the data key over the attested channel; it
  // seals queries with it and authenticates the sealed replies.
  crypto::AesGcm gcm(trainer.data_key());
  crypto::IvSequence client_iv(4242);

  ServeLog serve_log(trainer.romulus());
  serve_log.create(64);

  ServerOptions sopt;
  sopt.workers = 2;
  sopt.batch = {.max_batch = 16, .max_wait_ns = 20'000};
  sopt.admission = {.max_queue = 64, .deadline_aware = true};
  InferenceServer server(cloud, trainer.network(), gcm, sopt,
                         &trainer.mirror(), &serve_log);

  // --- healthy load: 100k q/s against ~600k q/s batched capacity ----------
  LoadGenOptions lg;
  lg.rate_qps = 100'000;
  lg.count = 2000;
  lg.relative_deadline_ns = 1'000'000;  // 1 ms SLO deadline
  lg.seed = 1;
  auto reqs = poisson_workload(digits.test, gcm, client_iv, lg);
  auto report1 = make_slo_report(reqs, server.run(reqs));
  std::printf("\n--- steady load ---\n%s", to_string(report1).c_str());

  // --- training continues; serving hot-reloads the mirror -----------------
  (void)trainer.train(60);
  lg.rate_qps = 400'000;  // push toward saturation: shedding protects p99
  lg.seed = 2;
  reqs = poisson_workload(digits.test, gcm, client_iv, lg);
  auto report2 = make_slo_report(reqs, server.run(reqs));
  std::printf("\n--- overload (shedding keeps the tail bounded) ---\n%s",
              to_string(report2).c_str());
  std::printf("\nhot reloads: %llu (now serving model iteration %llu)\n",
              static_cast<unsigned long long>(server.stats().reloads),
              static_cast<unsigned long long>(server.served_version()));
  std::printf("serve-log windows persisted in PM: %zu\n", serve_log.size());
  return 0;
}
