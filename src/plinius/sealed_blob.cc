#include "plinius/sealed_blob.h"

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"

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
  rom_->tx_fill(ref.sealed_off, ref.sealed_len, [&](std::uint8_t* dst) {
    crypto::seal_into(gcm_, iv_seq_, plain, MutableByteSpan(dst, ref.sealed_len));
  });
}

void SealedBlobs::seal_batch(std::span<const ByteSpan> plains, MutableByteSpan out) {
  std::vector<std::array<std::uint8_t, crypto::kGcmIvSize>> ivs(plains.size());
  std::vector<std::size_t> offs(plains.size() + 1, 0);
  for (std::size_t i = 0; i < plains.size(); ++i) {
    offs[i + 1] = offs[i] + crypto::sealed_size(plains[i].size());
  }
  expects(offs.back() == out.size(), "SealedBlobs::seal_batch: output size mismatch");
  for (auto& iv : ivs) iv_seq_.next(iv.data());
  par::parallel_for(plains.size(), [&](par::Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      crypto::seal_into_iv(gcm_, ivs[i].data(), plains[i],
                           out.subspan(offs[i], offs[i + 1] - offs[i]));
    }
  });
}

void SealedBlobs::charge_stage(const SealedRef& ref) {
  rom_->device().charge_read(ref.sealed_len);
  if (enclave_->model().real_sgx) enclave_->copy_into_enclave(ref.sealed_len);
}

void SealedBlobs::stage(const SealedRef& ref, MutableByteSpan dst) {
  expects(dst.size() == ref.sealed_len, "SealedBlobs::stage: envelope size mismatch");
  charge_stage(ref);
  std::memcpy(dst.data(), rom_->main_base() + ref.sealed_off, ref.sealed_len);
}

void SealedBlobs::stage_in_place(const SealedRef& ref, MutableByteSpan dst,
                                 crypto::EnvelopeTrailer& trailer) {
  crypto::split_into(ByteSpan(rom_->main_base() + ref.sealed_off, ref.sealed_len), dst,
                     trailer);
  charge_stage(ref);
}

bool SealedBlobs::open_in_place(const crypto::EnvelopeTrailer& trailer,
                                MutableByteSpan data) const {
  return crypto::open_in_place(gcm_, trailer, data);
}

bool SealedBlobs::open(const SealedRef& ref, MutableByteSpan out) {
  expects(out.size() == ref.plain_len, "SealedBlobs::open: plaintext size mismatch");
  scratch_.resize(ref.sealed_len);
  stage(ref, scratch_);
  enclave_->charge_crypto(ref.sealed_len);
  return open(scratch_, out);
}

bool SealedBlobs::open(ByteSpan sealed, MutableByteSpan out) const {
  return crypto::open_into(gcm_, sealed, out);
}

bool SealedBlobs::authenticate(const SealedRef& ref, Bytes& sealed) {
  const std::uint8_t* src = rom_->main_base() + ref.sealed_off;
  sealed.assign(src, src + ref.sealed_len);
  plain_.resize(ref.plain_len);
  return open(sealed, plain_);
}

}  // namespace plinius
