#include "serve/fleet/registry.h"

#include <cstddef>
#include <string>

#include "common/error.h"

namespace plinius::serve::fleet {

const char* to_string(VersionState state) noexcept {
  switch (state) {
    case VersionState::kStaged: return "staged";
    case VersionState::kCanary: return "canary";
    case VersionState::kServing: return "serving";
    case VersionState::kRetired: return "retired";
    case VersionState::kRejected: return "rejected";
  }
  return "?";
}

ModelRegistry::ModelRegistry(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                             crypto::AesGcm gcm)
    : PmRecordLog(rom, kRootSlot, 0x504C4D4F44524547ULL /* "PLMODREG" */, "ModelRegistry",
                  /*compact_when_full=*/false),
      enclave_(&enclave),
      blobs_(rom, enclave, std::move(gcm)) {}

RegistryEntry ModelRegistry::entry(const Header& hdr, std::uint64_t version) const {
  if (version == 0 || version > hdr.count) {
    throw PmError("ModelRegistry: unknown version " + std::to_string(version));
  }
  const RegistryEntry e = read_record(hdr, version - 1);
  if (e.version != version) {
    throw PmError("ModelRegistry: corrupt record for version " + std::to_string(version));
  }
  return e;
}

std::uint64_t ModelRegistry::publish_blob(ByteSpan blob, std::uint64_t dtype,
                                          std::uint64_t iterations) {
  const Header hdr = header();
  if (hdr.count >= hdr.capacity) {
    throw PmError("ModelRegistry: registry full (capacity " +
                  std::to_string(hdr.capacity) + ")");
  }
  enclave_->charge_ecall();
  // Seal inside the registry enclave, then persist envelope + record in one
  // durable transaction so a crash never leaves a half-published version.
  enclave_->charge_crypto(blob.size());
  const std::uint64_t version = hdr.count + 1;
  rom().run_transaction([&] {
    RegistryEntry e{version, dtype, static_cast<std::uint64_t>(VersionState::kStaged),
                    iterations, blobs_.alloc(blob.size())};
    blobs_.seal(e.blob, blob);
    append(e);
  });
  ++publishes_;
  return version;
}

std::uint64_t ModelRegistry::publish(ml::Network& net) {
  const Bytes blob = ml::serialize_weights(net);
  return publish_blob(ByteSpan(blob), ml::kDtypeFloat32, net.iterations());
}

std::uint64_t ModelRegistry::publish(const ml::QuantizedNetwork& qnet) {
  const Bytes blob = ml::serialize_quantized(qnet);
  return publish_blob(ByteSpan(blob), ml::kDtypeInt8, qnet.iterations());
}

void ModelRegistry::set_state(std::uint64_t version, VersionState state) {
  const Header hdr = header();
  (void)entry(hdr, version);
  enclave_->charge_ecall();
  rom().run_transaction([&] {
    rom().tx_assign(record_off(hdr, version - 1) + offsetof(RegistryEntry, state),
                    static_cast<std::uint64_t>(state));
  });
}

VersionRecord ModelRegistry::record(std::uint64_t version) const {
  const RegistryEntry e = entry(header(), version);
  return {e.version, e.dtype, static_cast<VersionState>(e.state), e.iterations,
          e.blob.plain_len, e.blob.sealed_len};
}

std::vector<VersionRecord> ModelRegistry::records() const {
  std::vector<VersionRecord> out(size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = record(i + 1);
  return out;
}

std::uint64_t ModelRegistry::serving_version() const {
  std::uint64_t serving = 0;
  for (const VersionRecord& r : records()) {
    if (r.state == VersionState::kServing) serving = r.version;
  }
  return serving;
}

Bytes ModelRegistry::load_blob(std::uint64_t version) {
  const RegistryEntry e = entry(header(), version);
  blobs_.check(e.blob, "ModelRegistry: corrupt sealed blob");
  enclave_->charge_ecall();
  Bytes plain(e.blob.plain_len);
  if (!blobs_.open(e.blob, MutableByteSpan(plain))) {
    ++load_failures_;
    throw CryptoError("ModelRegistry: version " + std::to_string(version) +
                      " failed authentication (tampered record?)");
  }
  ++loads_;
  return plain;
}

void ModelRegistry::load(std::uint64_t version, ml::Network& net) {
  const Bytes blob = load_blob(version);
  enclave_->charge_plain_copy(blob.size());
  ml::deserialize_weights(net, ByteSpan(blob));
}

ml::QuantizedNetwork ModelRegistry::load_quantized(std::uint64_t version) {
  const Bytes blob = load_blob(version);
  enclave_->charge_plain_copy(blob.size());
  return ml::deserialize_quantized(ByteSpan(blob));
}

std::pair<std::size_t, std::size_t> ModelRegistry::sealed_extent(
    std::uint64_t version) const {
  const RegistryEntry e = entry(header(), version);
  return {static_cast<std::size_t>(e.blob.sealed_off),
          static_cast<std::size_t>(e.blob.sealed_len)};
}

std::size_t ModelRegistry::sealed_bytes() const {
  std::size_t total = 0;
  for (const VersionRecord& r : records()) total += r.sealed_len;
  return total;
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats s;
  if (exists()) {
    s.versions = size();
    s.serving_version = serving_version();
    s.sealed_bytes = sealed_bytes();
  }
  s.publishes = publishes_;
  s.loads = loads_;
  s.load_failures = load_failures_;
  return s;
}

}  // namespace plinius::serve::fleet
