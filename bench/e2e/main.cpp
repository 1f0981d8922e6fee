// plinius_e2e — dual-clock end-to-end benchmark.
//
//   plinius_e2e --workload <name|all> --seed N [--seconds S] --out results.json
//               [--traced spans.json] [--smoke]
//
// Untraced (default): each workload's set-up runs kSetups times (setup_s is
// the median), then the measured phase runs once; the end-to-end metrics
// are printed as `workload metric value unit` and written to --out.
// Traced (--traced): the workload runs twice at half length, untraced and
// as a traced replay; the two must agree bitwise on the final simulated
// clock and the loss history. The per-layer metrics come from the traced
// pass, whose spans are written to the --traced file as Chrome trace JSON.
//
// Exit status: 0 when every correctness check passes, 1 when one fails
// (results are still written), 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "e2e.h"

namespace plinius::e2e {
namespace {

const std::vector<std::string> kWorkloads = {"train_paper", "mirror_heavy",
                                             "train_pipelined", "serve_reload"};
// A set-up lasts 0.3-0.5 s, short enough for page-fault and allocator noise
// to show; the median of five damps it.
constexpr int kSetups = 5;

WorkloadInfo info_for(const std::string& w) {
  return w == "serve_reload" ? serve_workload_info() : train_workload_info(w);
}

PassResult run_pass(const RunOptions& opt, Ledger* ledger, int setups) {
  return opt.workload == "serve_reload" ? run_serve_workload(opt, ledger, setups)
                                        : run_train_workload(opt, ledger, setups);
}

struct RunRecord {
  std::string workload;
  bool traced = false;
  PassResult result;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string to_json(const RunOptions& opt, const std::string& fingerprint,
                    const std::vector<RunRecord>& runs) {
  std::string out = "{\"fingerprint\":\"" + fingerprint + "\",\"runs\":[";
  char buf[128];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    const PassResult& p = r.result;
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof(buf), "%llu,\"seconds\":%.17g,\"traced\":%s",
                  static_cast<unsigned long long>(opt.seed), opt.seconds,
                  r.traced ? "true" : "false");
    out += "{\"workload\":\"" + r.workload + "\",\"seed\":" + buf;
    out += ",\"correct\":" + std::string(p.failures.empty() ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(p.attempted);
    out += ",\"failed\":" + std::to_string(p.failed);
    out += ",\"failures\":[";
    for (std::size_t f = 0; f < p.failures.size(); ++f) {
      out += (f == 0 ? "\"" : ",\"") + json_escape(p.failures[f]) + "\"";
    }
    out += "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : p.metrics) {
      std::snprintf(buf, sizeof(buf), "{\"value\":%.17g,\"unit\":\"", m.value);
      out += (first ? "\n\"" : ",\n\"") + name + "\":" + buf + m.unit + "\"}";
      first = false;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

/// Zero entries for the per-layer metrics a workload does not exercise, so
/// every traced run reports the full per-layer table.
void add_idle_layer_metrics(Metrics& out) {
  static const std::pair<const char*, const char*> kIdle[] = {
      {"recovery.count", "count"},          {"recovery.redone_iterations", "count"},
      {"recovery.off_mirror_tier", "count"}, {"recovery.rungs_failed", "count"},
      {"serve.queue_pct.sim", "%"},          {"serve.decrypt_pct.sim", "%"},
      {"serve.forward_pct.sim", "%"},        {"serve.seal_pct.sim", "%"},
      {"serve.other_pct.sim", "%"},          {"serve.tail_ratio.50k", "ratio"},
      {"serve.tail_ratio.150k", "ratio"},    {"serve.mean_batch", "count"},
      {"serve.busy_frac", "ratio"},          {"serve.reloads", "count"},
      {"serve.reload_failures", "count"},    {"serve.shed", "count"},
  };
  for (const auto& [name, unit] : kIdle) out.try_emplace(name, Metric{0.0, unit});
}

/// Both passes of a traced run, checked against each other.
PassResult run_traced(const RunOptions& opt, Ledger& ledger) {
  RunOptions half = opt;
  half.seconds = opt.seconds / 2;
  const PassResult plain = run_pass(half, nullptr, 1);
  PassResult traced = run_pass(half, &ledger, 1);
  for (const auto& f : plain.failures) traced.failures.push_back("untraced pass: " + f);
  if (std::memcmp(&plain.sim_end, &traced.sim_end, sizeof(sim::Nanos)) != 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "traced sim clock %.17g ns != untraced %.17g ns",
                  traced.sim_end, plain.sim_end);
    traced.failures.emplace_back(buf);
  }
  if (plain.losses.size() != traced.losses.size() ||
      std::memcmp(plain.losses.data(), traced.losses.data(),
                  plain.losses.size() * sizeof(float)) != 0) {
    traced.failures.emplace_back("traced loss history differs from the untraced run");
  }
  traced.metrics["obs.trace_overhead_pct"] = {
      100.0 * (traced.measured_host_s - plain.measured_host_s) / plain.measured_host_s,
      "%"};

  const WorkloadInfo w = info_for(opt.workload);
  const MachineProfile profile =
      w.paper_profile ? MachineProfile::sgx_emlpm() : MachineProfile::emlsgx_pm();
  const Calibration c = calibrate(w.gcm_bytes, w.gemm_m, w.gemm_n, w.gemm_k,
                                  profile.sgx.enclave_crypto_gib_s,
                                  profile.compute_macs_per_s);
  std::printf("# calibration (%s, %s): host GCM seal %.3f GB/s, open %.3f GB/s at %zu B"
              " = %.2fx the model's %.2f GiB/s; host GEMM %.2f GFLOP/s at %zux%zux%zu"
              " = %.2fx the model's %.3g MAC/s\n",
              opt.workload.c_str(), profile.name.c_str(), c.gcm_seal_gbps,
              c.gcm_open_gbps, w.gcm_bytes, c.gcm_host_over_model,
              profile.sgx.enclave_crypto_gib_s, c.gemm_gflops, w.gemm_m, w.gemm_n,
              w.gemm_k, c.gemm_host_over_model, profile.compute_macs_per_s);
  traced.metrics["crypto.gcm_seal_gbps.host"] = {c.gcm_seal_gbps, "GB/s"};
  traced.metrics["crypto.gcm_open_gbps.host"] = {c.gcm_open_gbps, "GB/s"};
  traced.metrics["gemm.gflops.host"] = {c.gemm_gflops, "GFLOP/s"};
  traced.metrics["calib.gcm_host_over_model"] = {c.gcm_host_over_model, "ratio"};
  traced.metrics["calib.gemm_host_over_model"] = {c.gemm_host_over_model, "ratio"};
  add_idle_layer_metrics(traced.metrics);
  return traced;
}

int usage() {
  std::fprintf(stderr,
               "usage: plinius_e2e --workload <name|all> --seed N [--seconds S]\n"
               "                   --out results.json [--traced spans.json] [--smoke]\n");
  return 2;
}

int run(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  std::string out_path;
  std::string traced_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--out" && has_value) {
      out_path = argv[++i];
    } else if (a == "--traced" && has_value) {
      traced_path = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  if (workload.empty() || out_path.empty() || !(opt.seconds > 0 && opt.seconds <= 600)) {
    return usage();
  }
  std::vector<std::string> names;
  if (workload == "all") {
    names = kWorkloads;
  } else if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) != kWorkloads.end()) {
    names = {workload};
  } else {
    std::fprintf(stderr, "plinius_e2e: unknown workload %s\n", workload.c_str());
    return 2;
  }

  // One host thread for every workload: on a shared 4-core x86 host, the
  // per-iteration host time of identical train_pipelined runs spread over
  // 14% with two threads and 7% with one. Simulated time does not depend on
  // the thread count.
  par::set_max_threads(1);
  const std::string fingerprint = profile_fingerprint();
  std::printf("# cost-model fingerprint %s\n", fingerprint.c_str());
  const std::regex name_re("[A-Za-z0-9_.-]+");
  Ledger ledger;
  std::vector<RunRecord> runs;
  bool ok = true;
  for (const std::string& w : names) {
    opt.workload = w;
    RunRecord rec{w, !traced_path.empty(), {}};
    if (rec.traced) {
      rec.result = run_traced(opt, ledger);
    } else {
      rec.result = run_pass(opt, nullptr, opt.smoke ? 1 : kSetups);
      rec.result.metrics["setup_s"] = {rec.result.setup_host_s, "s"};
      rec.result.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    }
    for (const auto& [name, m] : rec.result.metrics) {
      if (!std::regex_match(name, name_re)) {
        rec.result.failures.push_back("bad metric name " + name);
      }
      std::printf("%s %s %.6g %s\n", w.c_str(), name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# %s: measured phase %.2f s host, set-up %.2f s host\n", w.c_str(),
                rec.result.measured_host_s, rec.result.setup_host_s);
    for (const auto& f : rec.result.failures) {
      std::printf("# CHECK FAILED (%s): %s\n", w.c_str(), f.c_str());
    }
    ok = ok && rec.result.failures.empty();
    runs.push_back(std::move(rec));
  }

  bool wrote = write_file(out_path, to_json(opt, fingerprint, runs));
  if (!traced_path.empty()) wrote = write_file(traced_path, ledger.to_chrome_trace()) && wrote;
  if (!wrote) {
    std::fprintf(stderr, "plinius_e2e: cannot write results\n");
    return 1;
  }
  std::printf("# %s\n", ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace plinius::e2e

int main(int argc, char** argv) {
  try {
    return plinius::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plinius_e2e: %s\n", e.what());
    return 1;
  }
}
