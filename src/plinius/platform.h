// Platform: one of the paper's two evaluation servers, assembled from the
// substrate cost models.
//
//   sgx-emlPM — real SGX (Xeon E3-1270 @3.80 GHz, 93.5 MB usable EPC),
//               PM emulated with a DRAM Ramdisk;
//   emlSGX-PM — real Optane DC PM (4x128 GB), SGX in simulation mode
//               (Xeon Gold 5215 @2.50 GHz).
//
// A Platform owns the simulated clock and the device instances every
// Plinius component charges against. Training compute is charged via a
// calibrated effective MAC rate: the CNN genuinely trains (real gradients,
// real loss curves); only its *time* is modelled, like every other cost.
#pragma once

#include <memory>
#include <string>

#include "common/clock.h"
#include "pm/device.h"
#include "sgx/enclave.h"
#include "sgx/model.h"
#include "storage/filesystem.h"
#include "storage/model.h"

namespace plinius {

struct MachineProfile {
  std::string name;
  sgx::SgxCostModel sgx;
  pm::PmLatencyModel pm;
  storage::StorageCostModel ssd;
  // Effective single-thread training rate in MACs/s. Calibrated (with the
  // in-enclave crypto rate) so the encrypted-vs-plaintext iteration overhead
  // lands at the paper's measured ~1.2x (Fig. 8); see EXPERIMENTS.md.
  double compute_macs_per_s;

  static MachineProfile sgx_emlpm();
  static MachineProfile emlsgx_pm();
};

class Platform {
 public:
  /// `pm_bytes` sizes the PM device (mirror region + dataset region).
  Platform(MachineProfile profile, std::size_t pm_bytes,
           std::uint64_t platform_seed = 0x5367E0ULL);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] pm::PmDevice& pm() noexcept { return *pm_; }
  [[nodiscard]] storage::SimFileSystem& ssd() noexcept { return *ssd_; }
  [[nodiscard]] sgx::EnclaveRuntime& enclave() noexcept { return *enclave_; }
  [[nodiscard]] const MachineProfile& profile() const noexcept { return profile_; }

  /// Charges simulated time for `macs` multiply-accumulates of training
  /// compute (plus the EPC paging the touched working set implies). The
  /// MACs are modelled as data-parallel across the enclave's TCS lanes:
  /// time = macs / (rate * tcs_count). See docs/COST_MODELS.md,
  /// "Parallelism and simulated time".
  void charge_compute(double macs);

 private:
  MachineProfile profile_;
  sim::Clock clock_;
  std::unique_ptr<pm::PmDevice> pm_;
  std::unique_ptr<storage::SimFileSystem> ssd_;
  std::unique_ptr<sgx::EnclaveRuntime> enclave_;
};

}  // namespace plinius
