#include "plinius/quant_mirror.h"

#include "common/error.h"
#include "ml/serialize.h"

namespace plinius {

namespace {

// The snapshot's one blob. Its bytes are ml::serialize_quantized's, whose
// size is a function of the architecture only, so repeated save() calls
// reuse the allocation (TensorMirror requires stable blob sizes).
constexpr const char* kBlobName = "model";

}  // namespace

QuantMirror::QuantMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm)
    : mirror_(rom, enclave, std::move(gcm), kRootSlot) {}

void QuantMirror::save(ml::QuantizedNetwork& qnet, std::uint64_t version) {
  expects(qnet.num_layers() > 0, "QuantMirror::save: empty network");
  Bytes model = ml::serialize_quantized(qnet);
  const NamedBlob blobs[] = {{kBlobName, MutableByteSpan(model)}};
  if (!mirror_.exists()) mirror_.alloc_blobs(blobs);
  mirror_.mirror_out_blobs(blobs, version);
}

std::uint64_t QuantMirror::load(ml::QuantizedNetwork& qnet) {
  // Size the staging buffer from the PM table, authenticate, then decode:
  // qnet is assigned only once both succeed, so a tampered or malformed
  // snapshot leaves it intact.
  const auto sizes = mirror_.blob_sizes();
  if (sizes.size() != 1 || sizes[0].first != kBlobName) {
    throw MlError("QuantMirror::load: snapshot is not one \"model\" blob");
  }
  Bytes model(sizes[0].second);
  const NamedBlob blobs[] = {{kBlobName, MutableByteSpan(model)}};
  const std::uint64_t ver = mirror_.mirror_in_blobs(blobs);
  qnet = ml::deserialize_quantized(ByteSpan(model));
  return ver;
}

ml::QuantizedNetwork QuantMirror::load_snapshot() {
  ml::QuantizedNetwork q;
  load(q);
  return q;
}

}  // namespace plinius
