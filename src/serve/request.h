// Request/reply types for the secure inference serving subsystem.
//
// A request is a client-sealed query (IV||CT||MAC of input_size floats under
// the provisioned data key) with an arrival time on the simulated clock and
// an optional absolute deadline. Every request — served, shed, or expired —
// receives a sealed reply: a 9-byte plaintext of status || 8-byte value,
// sealed under the same key, so an observer of the untrusted channel cannot
// tell accepted queries from rejected ones by payload size, and a client
// never hangs on a dropped request.
#pragma once

#include <cstdint>
#include <limits>

#include "common/bytes.h"
#include "common/clock.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"

namespace plinius::serve {

/// No-deadline sentinel (absolute simulated time).
inline constexpr sim::Nanos kNoDeadline = std::numeric_limits<sim::Nanos>::infinity();

struct Request {
  std::uint64_t id = 0;
  std::uint64_t tenant = 0;             // client identity: SLO class + hash key
  sim::Nanos arrival_ns = 0;            // absolute simulated arrival time
  sim::Nanos deadline_ns = kNoDeadline; // absolute; kNoDeadline = none
  Bytes sealed_query;
  std::size_t truth = 0;  // client-side ground truth (accuracy reporting only)
};

enum class ReplyStatus : std::uint8_t {
  kOk = 0,             // served; value = predicted class
  kShedQueueFull = 1,  // rejected at admission: queue depth bound hit
  kShedDeadline = 2,   // rejected at admission: deadline cannot be met
  kExpired = 3,        // admitted but deadline passed before service
  kAuthFailed = 4,     // query failed GCM authentication
};

[[nodiscard]] const char* to_string(ReplyStatus status) noexcept;

/// Per-request simulated-time breakdown. For a batched request the decrypt/
/// forward/seal stages are the *batch* stage durations (every request in a
/// batch occupies the worker for the whole batch pass); `other_ns` is the
/// batch's ecall + boundary copies + EPC touch + any hot-reload share. The
/// invariant the serve tests assert:
///   queue + decrypt + forward + seal + other == done - arrival.
struct StageTiming {
  sim::Nanos queue_ns = 0;
  sim::Nanos decrypt_ns = 0;
  sim::Nanos forward_ns = 0;
  sim::Nanos seal_ns = 0;
  sim::Nanos other_ns = 0;

  [[nodiscard]] sim::Nanos total() const noexcept {
    return queue_ns + decrypt_ns + forward_ns + seal_ns + other_ns;
  }
};

struct Completion {
  std::uint64_t id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  sim::Nanos arrival_ns = 0;
  sim::Nanos done_ns = 0;     // reply sealed and copied out (or shed time)
  StageTiming stages;         // shed/expired: decrypt/forward are zero;
                              // seal/other cover the sealed-reply cost
  std::size_t batch_size = 0; // 0 for requests that never reached a worker
  std::size_t worker = 0;
  std::size_t prediction = 0; // valid when status == kOk
  Bytes sealed_reply;

  [[nodiscard]] sim::Nanos latency() const noexcept { return done_ns - arrival_ns; }
  [[nodiscard]] bool served() const noexcept { return status == ReplyStatus::kOk; }
};

/// Plaintext reply payload: status (1 B) || little-endian value (8 B).
inline constexpr std::size_t kReplyPlainSize = 9;
inline constexpr std::size_t kReplySealedSize =
    crypto::sealed_size(kReplyPlainSize);

/// Encodes and seals a reply with a caller-supplied IV (serving seals reply
/// batches in parallel with serially pre-drawn IVs, as the mirror does).
[[nodiscard]] Bytes seal_reply_iv(const crypto::AesGcm& gcm,
                                  const std::uint8_t iv[crypto::kGcmIvSize],
                                  ReplyStatus status, std::uint64_t value);

/// Convenience serial variant drawing its IV from `ivs`.
[[nodiscard]] Bytes seal_reply(const crypto::AesGcm& gcm, crypto::IvSequence& ivs,
                               ReplyStatus status, std::uint64_t value);

/// Client side: opens a sealed reply. Throws CryptoError on truncation,
/// tamper, or a malformed payload (message names expected vs got sizes) —
/// including an authentic reply whose status byte is not a ReplyStatus.
struct OpenedReply {
  ReplyStatus status;
  std::uint64_t value;
};
[[nodiscard]] OpenedReply open_reply(const crypto::AesGcm& gcm, ByteSpan sealed_reply);

}  // namespace plinius::serve
