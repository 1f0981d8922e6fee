#include "plinius/tensor_mirror.h"

#include <cstring>
#include <unordered_set>

#include "common/error.h"
#include "crypto/envelope.h"

namespace plinius {

namespace {

/// Reinterprets a float tensor set as the byte blobs the mirror core works
/// on (mirror_in writes through the span; mirror_out/alloc only read).
std::vector<NamedBlob> as_blobs(std::span<const NamedTensor> tensors) {
  std::vector<NamedBlob> blobs;
  blobs.reserve(tensors.size());
  for (const auto& t : tensors) {
    blobs.push_back({t.name,
                     std::span<std::uint8_t>(
                         reinterpret_cast<std::uint8_t*>(t.values.data()),
                         t.values.size_bytes())});
  }
  return blobs;
}

}  // namespace

TensorMirror::TensorMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                           crypto::AesGcm gcm, int root_slot)
    : rom_(&rom),
      enclave_(&enclave),
      gcm_(std::move(gcm)),
      iv_seq_(crypto::IvSequence::salted(enclave.rng())),
      root_slot_(root_slot) {}

bool TensorMirror::exists() const {
  const std::uint64_t off = rom_->root(root_slot_);
  return off != 0 && rom_->read<std::uint64_t>(off) == kMagic;
}

TensorMirror::Header TensorMirror::header() const {
  expects(exists(), "TensorMirror: no tensor mirror in PM");
  const Header hdr = rom_->read<Header>(rom_->root(root_slot_));
  // The count is untrusted PM data that sizes the table walk: bound it by
  // the table's extent before any caller allocates or loops over it.
  rom_->check_extent(hdr.table_off, hdr.count, sizeof(Entry),
                     "TensorMirror: corrupt entry table");
  return hdr;
}

std::vector<TensorMirror::Entry> TensorMirror::table(const Header& hdr) const {
  std::vector<Entry> entries(hdr.count);
  for (std::uint64_t i = 0; i < hdr.count; ++i) {
    Entry& e = entries[i];
    e = rom_->read<Entry>(hdr.table_off + i * sizeof(Entry));
    if (std::memchr(e.name, '\0', sizeof(e.name)) == nullptr ||
        e.plain_len > e.sealed_len || crypto::sealed_size(e.plain_len) != e.sealed_len) {
      throw PmError("TensorMirror: corrupt table entry " + std::to_string(i));
    }
    rom_->check_extent(e.sealed_off, e.sealed_len, "TensorMirror: corrupt sealed extent");
  }
  return entries;
}

const TensorMirror::Entry& TensorMirror::entry_for(std::span<const Entry> entries,
                                                   const NamedBlob& blob,
                                                   const char* ctx) {
  for (const Entry& e : entries) {
    if (blob.name != e.name) continue;
    if (e.plain_len != blob.bytes.size()) {
      throw MlError(std::string(ctx) + ": size mismatch for " + blob.name);
    }
    return e;
  }
  throw MlError(std::string(ctx) + ": unknown tensor " + blob.name);
}

std::uint64_t TensorMirror::version() const { return header().version; }
std::size_t TensorMirror::tensor_count() const { return header().count; }

std::vector<std::pair<std::string, std::size_t>> TensorMirror::blob_sizes() const {
  const Header hdr = header();
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(hdr.count);
  for (const auto& e : table(hdr)) {
    out.emplace_back(e.name, static_cast<std::size_t>(e.plain_len));
  }
  return out;
}

std::size_t TensorMirror::sealed_bytes() const {
  const Header hdr = header();
  std::size_t total = 0;
  for (const auto& e : table(hdr)) total += e.sealed_len;
  return total;
}

void TensorMirror::alloc_blobs(std::span<const NamedBlob> blobs) {
  if (exists()) throw PmError("TensorMirror::alloc: tensor mirror already exists");
  expects(!blobs.empty(), "TensorMirror::alloc: empty tensor set");

  std::unordered_set<std::string> names;
  for (const auto& b : blobs) {
    if (b.name.size() > kMaxNameLen) {
      throw MlError("TensorMirror: tensor name too long: " + b.name);
    }
    if (!names.insert(b.name).second) {
      throw MlError("TensorMirror: duplicate tensor name: " + b.name);
    }
  }

  enclave_->charge_ecall();
  rom_->run_transaction([&] {
    Header hdr{kMagic, 0, blobs.size(), 0};
    hdr.table_off = rom_->pmalloc(blobs.size() * sizeof(Entry));
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      Entry e{};
      std::snprintf(e.name, sizeof(e.name), "%s", blobs[i].name.c_str());
      e.plain_len = blobs[i].bytes.size();
      e.sealed_len = crypto::sealed_size(e.plain_len);
      e.sealed_off = rom_->pmalloc(e.sealed_len);
      rom_->tx_store(hdr.table_off + i * sizeof(Entry), &e, sizeof(e));
    }
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));
    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(root_slot_, hdr_off);
  });
}

void TensorMirror::mirror_out_blobs(std::span<const NamedBlob> blobs,
                                    std::uint64_t version) {
  const Header hdr = header();
  if (hdr.count != blobs.size()) {
    throw MlError("TensorMirror::mirror_out: tensor count mismatch");
  }
  const auto entries = table(hdr);

  enclave_->charge_ecall();
  rom_->run_transaction([&] {
    rom_->tx_assign(rom_->root(root_slot_) + offsetof(Header, version), version);
    for (const auto& b : blobs) {
      const Entry& entry = entry_for(entries, b, "TensorMirror::mirror_out");
      enclave_->touch_enclave(entry.plain_len);
      enclave_->charge_crypto(entry.plain_len);
      scratch_.resize(entry.sealed_len);
      crypto::seal_into(gcm_, iv_seq_, ByteSpan(b.bytes.data(), b.bytes.size()),
                        MutableByteSpan(scratch_.data(), scratch_.size()));
      rom_->tx_store(entry.sealed_off, scratch_.data(), scratch_.size());
    }
  });
}

std::uint64_t TensorMirror::mirror_in_blobs(std::span<const NamedBlob> blobs) {
  const Header hdr = header();
  if (hdr.count != blobs.size()) {
    throw MlError("TensorMirror::mirror_in: tensor count mismatch");
  }
  const auto entries = table(hdr);
  enclave_->charge_ecall();

  for (const auto& b : blobs) {
    const Entry& entry = entry_for(entries, b, "TensorMirror::mirror_in");
    rom_->device().charge_read(entry.sealed_len);
    if (enclave_->model().real_sgx) enclave_->copy_into_enclave(entry.sealed_len);
    scratch_.resize(entry.sealed_len);
    std::memcpy(scratch_.data(), rom_->main_base() + entry.sealed_off, entry.sealed_len);

    enclave_->charge_crypto(entry.sealed_len);
    if (!crypto::open_into(gcm_, scratch_,
                           MutableByteSpan(b.bytes.data(), b.bytes.size()))) {
      throw CryptoError("TensorMirror::mirror_in: authentication failed for tensor " +
                        b.name);
    }
    enclave_->charge_plain_copy(entry.plain_len);
  }
  return hdr.version;
}

void TensorMirror::alloc(std::span<const NamedTensor> tensors) {
  alloc_blobs(as_blobs(tensors));
}

void TensorMirror::mirror_out(std::span<const NamedTensor> tensors,
                              std::uint64_t version) {
  mirror_out_blobs(as_blobs(tensors), version);
}

std::uint64_t TensorMirror::mirror_in(std::span<NamedTensor> tensors) {
  return mirror_in_blobs(as_blobs(tensors));
}

}  // namespace plinius
