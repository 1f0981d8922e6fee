#include "serve/request.h"

#include <cstring>
#include <string>

#include "common/error.h"

namespace plinius::serve {

const char* to_string(ReplyStatus status) noexcept {
  switch (status) {
    case ReplyStatus::kOk: return "ok";
    case ReplyStatus::kShedQueueFull: return "shed-queue-full";
    case ReplyStatus::kShedDeadline: return "shed-deadline";
    case ReplyStatus::kExpired: return "expired";
    case ReplyStatus::kAuthFailed: return "auth-failed";
  }
  return "unknown";
}

namespace {
void encode_reply(ReplyStatus status, std::uint64_t value,
                  std::uint8_t out[kReplyPlainSize]) {
  out[0] = static_cast<std::uint8_t>(status);
  for (int i = 0; i < 8; ++i) out[1 + i] = static_cast<std::uint8_t>(value >> (8 * i));
}
}  // namespace

Bytes seal_reply_iv(const crypto::AesGcm& gcm,
                    const std::uint8_t iv[crypto::kGcmIvSize], ReplyStatus status,
                    std::uint64_t value) {
  std::uint8_t plain[kReplyPlainSize];
  encode_reply(status, value, plain);
  Bytes out(kReplySealedSize);
  crypto::seal_into_iv(gcm, iv, ByteSpan(plain, kReplyPlainSize),
                       MutableByteSpan(out.data(), out.size()));
  return out;
}

Bytes seal_reply(const crypto::AesGcm& gcm, crypto::IvSequence& ivs,
                 ReplyStatus status, std::uint64_t value) {
  std::uint8_t iv[crypto::kGcmIvSize];
  ivs.next(iv);
  return seal_reply_iv(gcm, iv, status, value);
}

OpenedReply open_reply(const crypto::AesGcm& gcm, ByteSpan sealed_reply) {
  if (sealed_reply.size() != kReplySealedSize) {
    throw CryptoError("serve::open_reply: bad sealed size (expected " +
                      std::to_string(kReplySealedSize) + " bytes, got " +
                      std::to_string(sealed_reply.size()) + ")");
  }
  const Bytes plain = crypto::open(gcm, sealed_reply);  // throws on tamper
  if (plain.size() != kReplyPlainSize) {
    throw CryptoError("serve::open_reply: bad payload size (expected " +
                      std::to_string(kReplyPlainSize) + " bytes, got " +
                      std::to_string(plain.size()) + ")");
  }
  if (plain[0] > static_cast<std::uint8_t>(ReplyStatus::kAuthFailed)) {
    throw CryptoError("serve::open_reply: bad status byte " + std::to_string(plain[0]) +
                      " (expected 0.." +
                      std::to_string(static_cast<int>(ReplyStatus::kAuthFailed)) + ")");
  }
  OpenedReply reply{static_cast<ReplyStatus>(plain[0]), 0};
  for (int i = 0; i < 8; ++i) {
    reply.value |= static_cast<std::uint64_t>(plain[1 + i]) << (8 * i);
  }
  return reply;
}

}  // namespace plinius::serve
