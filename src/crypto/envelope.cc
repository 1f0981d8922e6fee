#include "crypto/envelope.h"

#include <cstring>
#include <limits>

#include "common/error.h"

namespace plinius::crypto {

std::size_t unsealed_size(std::size_t sealed_len) {
  if (sealed_len < kSealOverhead) throw CryptoError("unsealed_size: buffer too short");
  return sealed_len - kSealOverhead;
}

void IvSequence::next(std::uint8_t iv[kGcmIvSize]) {
  if (counter_ == std::numeric_limits<std::uint64_t>::max()) {
    throw CryptoError("IvSequence: counter exhausted (rotate the key)");
  }
  for (int i = 0; i < 4; ++i) {
    iv[i] = static_cast<std::uint8_t>(salt_ >> (8 * (3 - i)));
  }
  for (int i = 0; i < 8; ++i) {
    iv[4 + i] = static_cast<std::uint8_t>(counter_ >> (8 * (7 - i)));
  }
  ++counter_;
}

void seal_into(const AesGcm& gcm, IvSequence& ivs, ByteSpan plain, MutableByteSpan out) {
  std::uint8_t iv[kGcmIvSize];
  ivs.next(iv);
  seal_into_iv(gcm, iv, plain, out);
}

void seal_into_iv(const AesGcm& gcm, const std::uint8_t iv[kGcmIvSize], ByteSpan plain,
                  MutableByteSpan out) {
  if (out.size() != sealed_size(plain.size())) {
    throw CryptoError("seal_into: output size mismatch");
  }
  std::uint8_t* out_iv = out.data();
  std::uint8_t* ct = out.data() + kGcmIvSize;
  std::uint8_t* tag = out.data() + kGcmIvSize + plain.size();

  std::memcpy(out_iv, iv, kGcmIvSize);
  gcm.encrypt(ByteSpan(out_iv, kGcmIvSize), {}, plain, MutableByteSpan(ct, plain.size()),
              tag);
}

bool open_into(const AesGcm& gcm, ByteSpan sealed, MutableByteSpan plain) {
  const std::size_t pt_len = unsealed_size(sealed.size());
  if (plain.size() != pt_len) throw CryptoError("open_into: output size mismatch");
  const std::uint8_t* iv = sealed.data();
  const std::uint8_t* ct = sealed.data() + kGcmIvSize;
  const std::uint8_t* tag = sealed.data() + kGcmIvSize + pt_len;
  return gcm.decrypt(ByteSpan(iv, kGcmIvSize), {}, ByteSpan(ct, pt_len), plain, tag);
}

void split_into(ByteSpan sealed, MutableByteSpan ct, EnvelopeTrailer& trailer) {
  const std::size_t pt_len = unsealed_size(sealed.size());
  if (ct.size() != pt_len) throw CryptoError("split_into: output size mismatch");
  std::memcpy(trailer.iv, sealed.data(), kGcmIvSize);
  std::memcpy(ct.data(), sealed.data() + kGcmIvSize, pt_len);
  std::memcpy(trailer.tag, sealed.data() + kGcmIvSize + pt_len, kGcmTagSize);
}

bool open_in_place(const AesGcm& gcm, const EnvelopeTrailer& trailer, MutableByteSpan data) {
  return gcm.decrypt(ByteSpan(trailer.iv, kGcmIvSize), {}, data, data, trailer.tag);
}

Bytes seal(const AesGcm& gcm, IvSequence& ivs, ByteSpan plain) {
  Bytes out(sealed_size(plain.size()));
  seal_into(gcm, ivs, plain, MutableByteSpan(out.data(), out.size()));
  return out;
}

Bytes open(const AesGcm& gcm, ByteSpan sealed) {
  Bytes out(unsealed_size(sealed.size()));
  if (!open_into(gcm, sealed, MutableByteSpan(out.data(), out.size()))) {
    throw CryptoError("open: authentication failed (corrupted or tampered buffer)");
  }
  return out;
}

}  // namespace plinius::crypto
