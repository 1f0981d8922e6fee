#include "serve/fleet/registry.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
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
    : rom_(&rom),
      enclave_(&enclave),
      gcm_(std::move(gcm)),
      iv_seq_(crypto::IvSequence::salted(enclave.rng())) {}

bool ModelRegistry::exists() const {
  const std::uint64_t off = rom_->root(kRootSlot);
  return off != 0 && rom_->read<std::uint64_t>(off) == kMagic;
}

ModelRegistry::Header ModelRegistry::header() const {
  if (!exists()) throw PmError("ModelRegistry: no registry in this region");
  const Header hdr = rom_->read<Header>(rom_->root(kRootSlot));
  // count and capacity are untrusted PM data that size every table walk:
  // bound them by the entry table's extent before any caller loops or
  // allocates over them.
  if (hdr.count > hdr.capacity) {
    throw PmError("ModelRegistry: corrupt record count " + std::to_string(hdr.count) +
                  " exceeds capacity " + std::to_string(hdr.capacity));
  }
  rom_->check_extent(hdr.entries_off, hdr.capacity, sizeof(Entry),
                     "ModelRegistry: corrupt entry table");
  return hdr;
}

ModelRegistry::Entry ModelRegistry::entry_at(std::size_t index) const {
  const Header hdr = header();
  if (index >= hdr.count) throw PmError("ModelRegistry: entry index out of range");
  return rom_->read<Entry>(hdr.entries_off + index * sizeof(Entry));
}

std::size_t ModelRegistry::find(std::uint64_t version) const {
  const Header hdr = header();
  for (std::size_t i = 0; i < hdr.count; ++i) {
    if (rom_->read<Entry>(hdr.entries_off + i * sizeof(Entry)).version == version) {
      return i;
    }
  }
  throw PmError("ModelRegistry: unknown version " + std::to_string(version));
}

void ModelRegistry::create(std::size_t capacity) {
  if (exists()) throw PmError("ModelRegistry::create: registry already exists");
  expects(capacity >= 1, "ModelRegistry::create: capacity must be >= 1");
  enclave_->charge_ecall();
  rom_->run_transaction([&] {
    Header hdr{kMagic, capacity, 0, 0, 1};
    hdr.entries_off = rom_->pmalloc(capacity * sizeof(Entry));
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));
    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(kRootSlot, hdr_off);
  });
}

std::uint64_t ModelRegistry::publish_blob(ByteSpan blob, std::uint64_t dtype,
                                          std::uint64_t iterations) {
  Header hdr = header();
  if (hdr.count >= hdr.capacity) {
    throw PmError("ModelRegistry: registry full (capacity " +
                  std::to_string(hdr.capacity) + ")");
  }
  enclave_->charge_ecall();
  // Seal inside the registry enclave, then persist envelope + entry in one
  // durable transaction so a crash never leaves a half-published version.
  enclave_->charge_crypto(blob.size());
  Bytes sealed(crypto::sealed_size(blob.size()));
  crypto::seal_into(gcm_, iv_seq_, blob, MutableByteSpan(sealed));

  const std::uint64_t version = hdr.next_version;
  rom_->run_transaction([&] {
    Entry e{};
    e.version = version;
    e.dtype = dtype;
    e.state = static_cast<std::uint64_t>(VersionState::kStaged);
    e.iterations = iterations;
    e.plain_len = blob.size();
    e.sealed_len = sealed.size();
    e.sealed_off = rom_->pmalloc(sealed.size());
    rom_->tx_store(e.sealed_off, sealed.data(), sealed.size());
    rom_->tx_store(hdr.entries_off + hdr.count * sizeof(Entry), &e, sizeof(e));
    const std::uint64_t root = rom_->root(kRootSlot);
    rom_->tx_assign(root + offsetof(Header, count), hdr.count + 1);
    rom_->tx_assign(root + offsetof(Header, next_version), version + 1);
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
  const std::size_t index = find(version);
  enclave_->charge_ecall();
  rom_->run_transaction([&] {
    rom_->tx_assign(hdr.entries_off + index * sizeof(Entry) + offsetof(Entry, state),
                    static_cast<std::uint64_t>(state));
  });
}

VersionRecord ModelRegistry::record(std::uint64_t version) const {
  const Entry e = entry_at(find(version));
  VersionRecord rec;
  rec.version = e.version;
  rec.dtype = e.dtype;
  rec.state = static_cast<VersionState>(e.state);
  rec.iterations = e.iterations;
  rec.plain_len = e.plain_len;
  rec.sealed_len = e.sealed_len;
  return rec;
}

std::vector<VersionRecord> ModelRegistry::records() const {
  const Header hdr = header();
  std::vector<VersionRecord> out;
  out.reserve(hdr.count);
  for (std::size_t i = 0; i < hdr.count; ++i) out.push_back(record(entry_at(i).version));
  return out;
}

std::size_t ModelRegistry::size() const { return header().count; }
std::size_t ModelRegistry::capacity() const { return header().capacity; }

std::uint64_t ModelRegistry::serving_version() const {
  const Header hdr = header();
  std::uint64_t serving = 0;
  for (std::size_t i = 0; i < hdr.count; ++i) {
    const Entry e = entry_at(i);
    if (static_cast<VersionState>(e.state) == VersionState::kServing) {
      serving = std::max(serving, e.version);
    }
  }
  return serving;
}

Bytes ModelRegistry::load_blob(std::uint64_t version) {
  const Entry e = entry_at(find(version));
  rom_->check_extent(e.sealed_off, e.sealed_len, "ModelRegistry: corrupt sealed extent");
  if (e.plain_len > e.sealed_len || crypto::sealed_size(e.plain_len) != e.sealed_len) {
    throw PmError("ModelRegistry: corrupt sealed length for version " +
                  std::to_string(version));
  }
  enclave_->charge_ecall();
  rom_->device().charge_read(e.sealed_len);
  if (enclave_->model().real_sgx) enclave_->copy_into_enclave(e.sealed_len);
  Bytes sealed(e.sealed_len);
  std::memcpy(sealed.data(), rom_->main_base() + e.sealed_off, e.sealed_len);
  enclave_->charge_crypto(e.sealed_len);
  Bytes plain(e.plain_len);
  if (!crypto::open_into(gcm_, ByteSpan(sealed), MutableByteSpan(plain))) {
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
  const Entry e = entry_at(find(version));
  return {static_cast<std::size_t>(e.sealed_off),
          static_cast<std::size_t>(e.sealed_len)};
}

std::size_t ModelRegistry::sealed_bytes() const {
  const Header hdr = header();
  std::size_t total = 0;
  for (std::size_t i = 0; i < hdr.count; ++i) total += entry_at(i).sealed_len;
  return total;
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats s;
  if (exists()) {
    s.versions = header().count;
    s.serving_version = serving_version();
    s.sealed_bytes = sealed_bytes();
  }
  s.publishes = publishes_;
  s.loads = loads_;
  s.load_failures = load_failures_;
  return s;
}

}  // namespace plinius::serve::fleet
