// Leakage observatory sweep: attacker-view trace distinguishability of the
// baseline vs data-oblivious kernels, on both machine profiles.
//
// For each profile (emlSGX-PM and sgx-emlPM) the sweep records one leakage
// trace per secret under three secret models:
//   * input   — N secret query inputs, each sealed and served as one
//               request by serve::InferenceServer over a fixed model (the
//               trace includes the serve marks and the model's page runs);
//   * weights — N weight initializations, one fixed input;
//   * shuffle — N dataset shuffle seeds (the Fisher-Yates swap sequence IS
//               the permutation).
// Each panel runs twice, with baseline kernels and with the oblivious
// variants (ml/oblivious.h), and is scored by obs::analyze_traces. The
// process exit code asserts the headline property: baseline panels are
// input-distinguishable (score >= 0.5, >= 2 distinct traces) while the
// oblivious panels are bitwise input-independent (1 distinct trace, score
// and per-position entropy exactly 0). Wall-clock kernel overhead of the
// oblivious variants is measured and reported (not asserted).
//
// Usage: leak_sweep [--json <metrics path>] [--report <report path>] [--smoke]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/connected_layer.h"
#include "ml/conv_layer.h"
#include "ml/data.h"
#include "ml/maxpool_layer.h"
#include "ml/network.h"
#include "ml/oblivious.h"
#include "ml/softmax_layer.h"
#include "obs/export.h"
#include "obs/leakage.h"
#include "obs/registry.h"
#include "plinius/platform.h"
#include "serve/server.h"

using namespace plinius;
using ml::ScopedObliviousKernels;

namespace {

ml::Network make_net(std::uint64_t seed) {
  Rng rng(seed);
  ml::Network net(ml::Shape{1, 8, 8});
  ml::ConvConfig conv;
  conv.filters = 4;
  conv.batch_normalize = false;
  conv.activation = ml::Activation::kLeakyRelu;
  net.add(std::make_unique<ml::ConvLayer>(net.next_input_shape(), conv, rng));
  net.add(std::make_unique<ml::MaxPoolLayer>(net.next_input_shape(),
                                             ml::MaxPoolConfig{2, 2}));
  net.add(std::make_unique<ml::ConnectedLayer>(
      net.next_input_shape(), ml::ConnectedConfig{10, ml::Activation::kLinear}, rng));
  net.add(std::make_unique<ml::SoftmaxLayer>(net.next_input_shape()));
  return net;
}

std::vector<float> make_input(std::size_t len, std::uint64_t seed) {
  std::vector<float> in(len);
  Rng rng(seed);
  for (auto& v : in) v = rng.normal();
  return in;
}

ml::Dataset make_dataset(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ml::Dataset d;
  d.x = ml::Matrix(rows, cols);
  d.y = ml::Matrix(rows, 10);
  Rng rng(seed);
  for (auto& v : d.x.values) v = rng.normal();
  for (std::size_t r = 0; r < rows; ++r) d.y.row(r)[rng.below(10)] = 1.0f;
  return d;
}

struct Panel {
  std::string platform;
  std::string kernel;  // "baseline" | "oblivious"
  std::string secret;  // "input" | "weights" | "shuffle"
  obs::LeakageReport report;
};

/// Records one trace per secret with the given kernel options installed.
obs::LeakageReport run_panel(std::size_t n,
                             const std::function<void(std::size_t)>& workload,
                             bool oblivious) {
  std::vector<obs::LeakTrace> traces;
  traces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    traces.push_back(obs::record_leak_trace([&] {
      if (oblivious) {
        ScopedObliviousKernels scope;
        workload(i);
      } else {
        workload(i);
      }
    }));
  }
  return obs::analyze_traces(traces);
}

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* metrics_path = "leak_metrics.json";
  const char* report_path = "leak_report.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const std::size_t secrets = smoke ? 3 : 6;
  const std::size_t reps = smoke ? 50 : 400;
  obs::Registry registry;
  std::vector<Panel> panels;
  std::ostringstream overhead_json;
  bool ok = true;

  for (const MachineProfile& profile :
       {MachineProfile::emlsgx_pm(), MachineProfile::sgx_emlpm()}) {
    Platform platform(profile, 64u << 20);
    ml::Network net = make_net(/*seed=*/21);
    const Bytes key(16, 0);
    crypto::AesGcm gcm(key);
    serve::InferenceServer server(platform, net, gcm, serve::ServerOptions{});
    crypto::IvSequence client_iv(7);

    std::vector<std::vector<float>> inputs;
    for (std::size_t i = 0; i < secrets; ++i) {
      inputs.push_back(make_input(net.input_shape().size(), 100 + i));
    }
    const ml::Dataset dataset = make_dataset(32, 256, 7);
    const std::vector<float> fixed_input = make_input(64, 5);

    for (const bool oblivious : {false, true}) {
      const char* kernel = oblivious ? "oblivious" : "baseline";

      // secret = input: served queries against a fixed model.
      panels.push_back({profile.name, kernel, "input",
                        run_panel(
                            secrets,
                            [&](std::size_t i) {
                              serve::Request req;
                              req.arrival_ns = platform.clock().now();
                              req.sealed_query = crypto::seal(
                                  gcm, client_iv, float_bytes(std::span<const float>(
                                                      inputs[i].data(), inputs[i].size())));
                              const auto done = server.run(
                                  std::span<const serve::Request>(&req, 1));
                              if (done.size() != 1 || !done[0].served()) {
                                std::fprintf(stderr, "FAIL: input-panel query not served\n");
                                std::abort();
                              }
                            },
                            oblivious)});

      // secret = weights: one fixed input, N weight initializations.
      panels.push_back({profile.name, kernel, "weights",
                        run_panel(
                            secrets,
                            [&](std::size_t i) {
                              ml::Network wnet = make_net(1 + i);
                              wnet.forward(fixed_input.data(), 1, false);
                            },
                            oblivious)});

      // secret = shuffle seed: the permutation drawn by shuffle_dataset.
      panels.push_back({profile.name, kernel, "shuffle",
                        run_panel(
                            secrets,
                            [&](std::size_t i) {
                              ml::Dataset d = dataset;
                              ml::shuffle_dataset(d, 1 + i);
                            },
                            oblivious)});
    }

    // -- wall-clock overhead of the oblivious variants (reported only) ----
    const auto& in0 = inputs[0];
    const double fwd_base = wall_seconds([&] {
      for (std::size_t r = 0; r < reps; ++r) net.forward(in0.data(), 1, false);
    });
    const double fwd_obl = wall_seconds([&] {
      ScopedObliviousKernels scope;
      for (std::size_t r = 0; r < reps; ++r) net.forward(in0.data(), 1, false);
    });
    const double shuf_base = wall_seconds([&] {
      for (std::size_t r = 0; r < reps; ++r) {
        ml::Dataset d = dataset;
        ml::shuffle_dataset(d, r);
      }
    });
    const double shuf_obl = wall_seconds([&] {
      ScopedObliviousKernels scope;
      for (std::size_t r = 0; r < reps; ++r) {
        ml::Dataset d = dataset;
        ml::shuffle_dataset(d, r);
      }
    });
    const double fwd_ratio = fwd_base > 0 ? fwd_obl / fwd_base : 0;
    const double shuf_ratio = shuf_base > 0 ? shuf_obl / shuf_base : 0;
    const obs::Labels plabels{{"platform", profile.name}};
    registry.set_gauge("leak.overhead.forward_wall_ratio", fwd_ratio, plabels);
    registry.set_gauge("leak.overhead.shuffle_wall_ratio", shuf_ratio, plabels);
    if (!overhead_json.str().empty()) overhead_json << ",";
    overhead_json << "{\"platform\":\"" << profile.name
                  << "\",\"forward_wall_ratio\":" << fwd_ratio
                  << ",\"shuffle_wall_ratio\":" << shuf_ratio << "}";
    std::printf("# %s: oblivious overhead forward %.2fx, shuffle %.2fx\n",
                profile.name.c_str(), fwd_ratio, shuf_ratio);
  }

  // -- score, publish, assert ---------------------------------------------
  std::ostringstream panels_json;
  for (const Panel& p : panels) {
    const obs::Labels labels{
        {"platform", p.platform}, {"kernel", p.kernel}, {"secret", p.secret}};
    p.report.publish(registry, labels);
    if (panels_json.tellp() > 0) panels_json << ",";
    panels_json << "{\"name\":\"" << p.secret << "/" << p.kernel << "@"
                << p.platform << "\",\"platform\":\"" << p.platform
                << "\",\"kernel\":\"" << p.kernel << "\",\"secret\":\""
                << p.secret << "\",\"report\":" << p.report.to_json() << "}";
    std::printf("# %-7s %-9s %-10s distinct %zu/%zu score %.2f entropy %.3f\n",
                p.secret.c_str(), p.kernel.c_str(), p.platform.c_str(),
                p.report.distinct, p.report.traces, p.report.score,
                p.report.mean_position_entropy_bits);

    if (p.kernel == "baseline") {
      // The baseline kernels must leak: every secret model distinguishable.
      ok &= check(p.report.distinct >= 2, "baseline panel has >= 2 distinct traces");
      if (p.secret == "input") {
        ok &= check(p.report.score >= 0.5, "baseline input score >= 0.5");
      }
    } else {
      // The oblivious kernels must not: traces bitwise secret-independent.
      ok &= check(p.report.distinct == 1, "oblivious panel has 1 distinct trace");
      ok &= check(p.report.score == 0.0, "oblivious score == 0");
      ok &= check(p.report.mean_position_entropy_bits == 0.0,
                  "oblivious per-position entropy == 0");
      ok &= check(p.report.page_events > 0, "oblivious trace is non-trivial");
    }
  }

  const std::string report = "{\"panels\":[" + panels_json.str() +
                             "],\"overhead\":[" + overhead_json.str() + "]}\n";
  bool wrote = obs::write_text_file(report_path, report);
  wrote = obs::write_text_file(metrics_path, registry.snapshot_json()) && wrote;
  std::printf("# report -> %s, metrics -> %s\n", report_path, metrics_path);
  return ok && wrote ? 0 : 1;
}
