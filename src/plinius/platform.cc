#include "plinius/platform.h"
#include "obs/trace.h"

namespace plinius {

MachineProfile MachineProfile::sgx_emlpm() {
  return MachineProfile{
      .name = "sgx-emlPM",
      .sgx = sgx::SgxCostModel::hardware(3.8),
      .pm = pm::PmLatencyModel::emulated_dram(),          // Ramdisk-backed PM
      .ssd = storage::StorageCostModel::ext4_ssd_sata(),
      .compute_macs_per_s = 55e9,
  };
}

MachineProfile MachineProfile::emlsgx_pm() {
  return MachineProfile{
      .name = "emlSGX-PM",
      .sgx = sgx::SgxCostModel::simulation(2.5),
      .pm = pm::PmLatencyModel::optane(),                 // real Optane DIMMs
      .ssd = storage::StorageCostModel::ext4_ssd(),
      .compute_macs_per_s = 36e9,
  };
}

Platform::Platform(MachineProfile profile, std::size_t pm_bytes,
                   std::uint64_t platform_seed)
    : profile_(std::move(profile)) {
  pm_ = std::make_unique<pm::PmDevice>(clock_, pm_bytes, profile_.pm, platform_seed);
  ssd_ = std::make_unique<storage::SimFileSystem>(clock_, profile_.ssd);
  enclave_ = std::make_unique<sgx::EnclaveRuntime>(clock_, profile_.sgx,
                                                   "plinius-enclave", platform_seed);
}

void Platform::charge_compute(double macs) {
  // Training GEMMs partition output rows across the enclave's TCS lanes
  // (the blocked kernel in ml/gemm.cc); MACs split evenly, so the critical
  // path is the per-lane share. Background ChargeStream lanes (pipelined
  // sealing) are additional contexts, so compute keeps the full pool.
  // tcs_count == 1 (default) reproduces the paper's single-threaded
  // iteration times exactly.
  const auto lanes = static_cast<double>(enclave_->tcs_count());
  const sim::Nanos t0 = clock_.now();
  clock_.advance(macs / (profile_.compute_macs_per_s * lanes) * 1e9);
  const obs::Attr a[] = {{"macs", macs}};
  obs::trace_complete(clock_, obs::Category::kCompute, "compute", t0, clock_.now(),
                      a, 1);
}

}  // namespace plinius
