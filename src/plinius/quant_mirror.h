// Quantized model mirror: the int8 serving snapshot in PM.
//
// Reuses the TensorMirror blob machinery (AES-GCM sealing, atomic
// Romulus-transactional versioned updates, authenticate-before-install
// restore) on its own root slot. The snapshot is one sealed blob, "model",
// whose bytes are the v2 int8 weight format (ml::serialize_quantized), so
// the PM mirror and the model registry share one int8 format and one
// decoder (ml::deserialize_quantized). Because weights dominate and shrink
// from 4-byte floats to 1 byte, a quantized snapshot seals ~4x fewer PM
// bytes than the float MirrorModel of the same architecture — which is
// exactly what moves the EPC paging cliff in bench/fig6_sps' crossover panel.
#pragma once

#include <cstdint>

#include "ml/quant.h"
#include "pm/root_slots.h"
#include "plinius/tensor_mirror.h"

namespace plinius {

class QuantMirror {
 public:
  static constexpr int kRootSlot = pm::kQuantMirrorRootSlot;

  QuantMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm);

  [[nodiscard]] bool exists() const { return mirror_.exists(); }

  /// Atomically seals the quantized model into PM at `version`, allocating
  /// the mirror on first save. Subsequent saves must keep the architecture
  /// (and so the serialized size) unchanged.
  void save(ml::QuantizedNetwork& qnet, std::uint64_t version);

  /// Reconstructs the quantized model from PM; returns the mirror version.
  /// The blob is authenticated into a staging buffer and decoded before
  /// `qnet` is touched, so a tampered or malformed snapshot leaves `qnet`
  /// unchanged (CryptoError / MlError).
  std::uint64_t load(ml::QuantizedNetwork& qnet);

  /// load() into a fresh network (serving hot-reload).
  [[nodiscard]] ml::QuantizedNetwork load_snapshot();

  [[nodiscard]] std::uint64_t version() const { return mirror_.version(); }

  /// Total sealed PM bytes of the quantized snapshot.
  [[nodiscard]] std::size_t sealed_bytes() const { return mirror_.sealed_bytes(); }

 private:
  TensorMirror mirror_;
};

}  // namespace plinius
