#include "plinius/sealed_blob.h"

#include <cstring>
#include <string>

#include "common/error.h"

namespace plinius {

SealedBlobs::SealedBlobs(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm)
    : rom_(&rom),
      enclave_(&enclave),
      gcm_(std::move(gcm)),
      iv_seq_(crypto::IvSequence::salted(enclave.rng())) {}

SealedRef SealedBlobs::alloc(std::size_t plain_len) {
  SealedRef ref{plain_len, 0, crypto::sealed_size(plain_len)};
  ref.sealed_off = rom_->pmalloc(ref.sealed_len);
  return ref;
}

void SealedBlobs::check(const SealedRef& ref, const char* ctx) const {
  // plain_len > sealed_len catches a plain length whose sealed size wraps.
  if (ref.plain_len > ref.sealed_len ||
      crypto::sealed_size(ref.plain_len) != ref.sealed_len) {
    throw PmError(std::string(ctx) + ": corrupt sealed length");
  }
  rom_->check_extent(ref.sealed_off, ref.sealed_len, ctx);
}

void SealedBlobs::seal(const SealedRef& ref, ByteSpan plain) {
  expects(plain.size() == ref.plain_len, "SealedBlobs::seal: plaintext size mismatch");
  scratch_.resize(ref.sealed_len);
  crypto::seal_into(gcm_, iv_seq_, plain, MutableByteSpan(scratch_));
  rom_->tx_store(ref.sealed_off, scratch_.data(), scratch_.size());
}

bool SealedBlobs::open(const SealedRef& ref, MutableByteSpan out) {
  expects(out.size() == ref.plain_len, "SealedBlobs::open: plaintext size mismatch");
  rom_->device().charge_read(ref.sealed_len);
  if (enclave_->model().real_sgx) enclave_->copy_into_enclave(ref.sealed_len);
  scratch_.resize(ref.sealed_len);
  std::memcpy(scratch_.data(), rom_->main_base() + ref.sealed_off, ref.sealed_len);
  enclave_->charge_crypto(ref.sealed_len);
  return crypto::open_into(gcm_, scratch_, out);
}

}  // namespace plinius
