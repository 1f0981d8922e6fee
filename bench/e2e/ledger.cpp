// Span ledger, statistics helpers, calibration panel and profile
// fingerprint for plinius_e2e.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/bytes.h"
#include "crypto/gcm.h"
#include "e2e.h"
#include "ml/gemm.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "plinius/platform.h"

namespace plinius::e2e {

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(Module m) noexcept {
  switch (m) {
    case Module::kPmData: return "pm_data";
    case Module::kCompute: return "compute";
    case Module::kMl: return "ml";
    case Module::kMirrorSave: return "mirror.save";
    case Module::kMirrorRestore: return "mirror.restore";
    case Module::kMetricsLog: return "metrics_log";
    case Module::kCheckpoint: return "ckpt";
    case Module::kRecovery: return "recovery";
    case Module::kServe: return "serve";
  }
  return "?";
}

double Ledger::host_s(Module m) const {
  double s = 0;
  for (const auto& sp : spans_) {
    if (sp.module == m) s += sp.host_end - sp.host_begin;
  }
  return s;
}

sim::Nanos Ledger::sim_ns(Module m) const {
  sim::Nanos s = 0;
  for (const auto& sp : spans_) {
    if (sp.module == m) s += sp.sim_end - sp.sim_begin;
  }
  return s;
}

std::string Ledger::to_chrome_trace() const {
  const double t0 = spans_.empty() ? 0 : spans_.front().host_begin;
  std::string out = "{\"traceEvents\":[\n";
  out += R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"host clock"}},)";
  out += "\n";
  out += R"({"ph":"M","pid":2,"name":"process_name","args":{"name":"sim clock"}})";
  char buf[256];
  for (const auto& sp : spans_) {
    const int tid = static_cast<int>(sp.module);
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  tid, to_string(sp.module), sp.name, (sp.host_begin - t0) * 1e6,
                  (sp.host_end - sp.host_begin) * 1e6);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  tid, to_string(sp.module), sp.name, sp.sim_begin / 1e3,
                  (sp.sim_end - sp.sim_begin) / 1e3);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))), 1, v.size());
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void add_layer_shares(const Ledger& ledger, const obs::Tracer& tracer,
                      double measured_host_s, sim::Nanos measured_sim_ns,
                      Metrics& out) {
  const auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  for (const Module m : {Module::kPmData, Module::kMirrorSave,
                         Module::kMetricsLog, Module::kCheckpoint, Module::kRecovery,
                         Module::kServe}) {
    const std::string base = to_string(m);
    out[base + ".pct.sim"] = {pct(ledger.sim_ns(m), measured_sim_ns), "%"};
    out[base + ".pct.host"] = {pct(ledger.host_s(m), measured_host_s), "%"};
  }
  out["ml.pct.host"] = {pct(ledger.host_s(Module::kMl), measured_host_s), "%"};

  // Foreground (track 0) spans only: background seal lanes and serve worker
  // timelines overlap the foreground and would be counted twice.
  std::vector<obs::SpanRecord> fg;
  for (auto& s : tracer.spans()) {
    if (s.track == 0) fg.push_back(s);
  }
  const obs::CostReport r = obs::rollup(fg);
  const auto share = [&](std::initializer_list<obs::Category> cs) {
    return Metric{100.0 * r.share_of(cs), "%"};
  };
  using C = obs::Category;
  out["ml.compute_pct.sim"] = share({C::kCompute});
  out["sgx.gcm_pct.sim"] = share({C::kGcm});
  out["sgx.paging_pct.sim"] = share({C::kEpcPaging});
  out["sgx.transition_pct.sim"] = share({C::kEcall, C::kOcall});
  out["sgx.boundary_copy_pct.sim"] = share({C::kBoundaryCopy});
  out["sgx.plain_copy_pct.sim"] = share({C::kPlainCopy});
  out["pm.store_pct.sim"] = share({C::kPmStore});
  out["pm.flush_pct.sim"] = share({C::kPmFlush});
  out["pm.fence_pct.sim"] = share({C::kPmFence});
  out["pm.read_pct.sim"] = share({C::kPmRead});
  out["romulus.tx_pct.sim"] = share({C::kRomulusTx});
  out["ssd.io_pct.sim"] = share({C::kSsd});
  out["mirror.stall_pct.sim"] = share({C::kPipelineStall});
  out["romulus.txs"] = {static_cast<double>(
                            r.by_category[static_cast<std::size_t>(C::kRomulusTx)].spans),
                        "count"};
  out["obs.spans_dropped"] = {static_cast<double>(tracer.dropped()), "count"};
}

Calibration calibrate(std::size_t gcm_bytes, std::size_t gemm_m, std::size_t gemm_n,
                      std::size_t gemm_k, double model_crypto_gib_s,
                      double model_macs_per_s) {
  constexpr double kMinSeconds = 0.1;
  Calibration c;

  const Bytes key(16, 0x42);
  const crypto::AesGcm gcm{ByteSpan(key)};
  const std::uint8_t iv[crypto::kGcmIvSize] = {1, 2, 3};
  Bytes plain(gcm_bytes, 0x5A);
  Bytes cipher(gcm_bytes);
  std::uint8_t tag[crypto::kGcmTagSize];
  std::size_t reps = 0;
  double t0 = host_now();
  double dt = 0;
  do {
    gcm.encrypt(ByteSpan(iv, sizeof(iv)), {}, plain, cipher, tag);
    ++reps;
    dt = host_now() - t0;
  } while (dt < kMinSeconds);
  c.gcm_seal_gbps = static_cast<double>(gcm_bytes * reps) / dt / 1e9;

  reps = 0;
  t0 = host_now();
  do {
    if (!gcm.decrypt(ByteSpan(iv, sizeof(iv)), {}, cipher, plain, tag)) break;
    ++reps;
    dt = host_now() - t0;
  } while (dt < kMinSeconds);
  c.gcm_open_gbps = static_cast<double>(gcm_bytes * reps) / dt / 1e9;

  std::vector<float> a(gemm_m * gemm_k, 0.5f);
  std::vector<float> b(gemm_k * gemm_n, 0.25f);
  std::vector<float> out(gemm_m * gemm_n, 0.0f);
  reps = 0;
  t0 = host_now();
  do {
    ml::gemm_nn(gemm_m, gemm_n, gemm_k, 1.0f, a.data(), b.data(), out.data());
    ++reps;
    dt = host_now() - t0;
  } while (dt < kMinSeconds);
  const double macs_per_s =
      static_cast<double>(gemm_m * gemm_n * gemm_k) * static_cast<double>(reps) / dt;
  c.gemm_gflops = 2.0 * macs_per_s / 1e9;

  c.gcm_host_over_model = c.gcm_seal_gbps / (model_crypto_gib_s * 1.073741824);
  c.gemm_host_over_model = macs_per_s / model_macs_per_s;
  return c;
}

std::string profile_fingerprint() {
  std::string text;
  char buf[96];
  const auto put = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g;", v);
    text += buf;
  };
  for (const MachineProfile& p : {MachineProfile::sgx_emlpm(), MachineProfile::emlsgx_pm()}) {
    text += p.name + ":";
    const sgx::SgxCostModel& s = p.sgx;
    for (const double v :
         {static_cast<double>(s.real_sgx), s.cpu_ghz, s.transition_cycles,
          static_cast<double>(s.epc_usable_bytes), s.page_fault_ns, s.epc_copy_in_gib_s,
          s.epc_copy_out_gib_s, s.enclave_crypto_gib_s, s.native_crypto_gib_s,
          s.crypto_op_overhead_ns, static_cast<double>(s.ocall_chunk_bytes),
          s.int8_gemm_speedup, static_cast<double>(s.tcs_count)}) {
      put(v);
    }
    const pm::PmLatencyModel& m = p.pm;
    for (const double v : {m.read_latency_ns, m.read_gib_s, m.store_gib_s, m.clflush_ns,
                           m.clflushopt_issue_ns, m.clwb_issue_ns, m.flush_drain_gib_s,
                           m.sfence_ns}) {
      put(v);
    }
    const storage::StorageCostModel& d = p.ssd;
    for (const double v : {d.syscall_ns, d.access_latency_ns, d.device_read_gib_s,
                           d.device_write_gib_s, d.cache_gib_s, d.fsync_base_ns,
                           static_cast<double>(d.dax)}) {
      put(v);
    }
    put(p.compute_macs_per_s);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace plinius::e2e
