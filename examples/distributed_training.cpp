// Distributed Plinius (paper §VIII future work): four enclave workers, each
// with its own PM mirror and encrypted data shard, averaging parameters over
// sealed links — and one worker getting killed mid-run without the cluster
// losing a single iteration of its work.
#include <cstdio>

#include "ml/config.h"
#include "ml/metrics.h"
#include "ml/synth_digits.h"
#include "plinius/fleet/fleet.h"

int main() {
  using namespace plinius;

  ml::SynthDigitsOptions dopt;
  dopt.train_count = 4096;
  dopt.test_count = 1000;
  const auto digits = ml::make_synth_digits(dopt);

  fleet::FleetOptions opt;
  opt.workers = 4;
  opt.sync_every = 10;
  fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), 64u << 20,
                                ml::make_cnn_config(3, 8, 64), opt);
  cluster.load_dataset(digits.train);

  std::printf("== phase 1: 4 workers, 40 iterations each ==\n");
  (void)cluster.train(40);
  std::printf("sync rounds so far: %llu\n",
              static_cast<unsigned long long>(cluster.sync_rounds()));

  std::printf("\n== spot market outbids worker 2: killed ==\n");
  cluster.kill_worker(2);
  std::printf("worker 2 resumes from its PM mirror at iteration %llu\n",
              static_cast<unsigned long long>(cluster.network(2).iterations()));

  std::printf("\n== phase 2: train to 80 iterations each ==\n");
  (void)cluster.train(80);

  for (std::size_t w = 0; w < cluster.workers(); ++w) {
    std::printf("worker %zu at iteration %llu\n", w,
                static_cast<unsigned long long>(cluster.network(w).iterations()));
  }

  const auto cm = ml::evaluate_confusion(cluster.network(0), digits.test);
  std::printf("\ncluster model: test accuracy %.2f%%, macro-F1 %.4f\n",
              100.0 * cm.accuracy(), cm.macro_f1());
  std::printf("parallel wall time (simulated): %s\n",
              sim::format_ns(cluster.elapsed_ns()).c_str());
  return cm.accuracy() > 0.5 ? 0 : 1;
}
