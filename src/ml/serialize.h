// Model weight (de)serialization — the equivalent of Darknet's
// save_weights/load_weights, used by the SSD checkpointing baseline, the
// serving fleet's model registry and, for int8 models, the quantized PM
// mirror (plinius/quant_mirror.h), whose sealed blob is this format.
//
// Format v2 (little-endian):
//   u64 magic "PLNWEI2\0" | u64 version (=2) | u64 dtype | u64 iterations
//   dtype = 0 (float32):
//     u64 num_layers | per layer: u64 num_buffers, per buffer: u64 count, floats
//   dtype = 1 (int8):
//     u64 input c,h,w | f32 input_scale | u64 num_layers
//     per layer: u64 kind | u64 in c,h,w | u64 out c,h,w
//                u64 ksize, stride, pad | u64 activation
//                f32 weight_scale, in_scale, out_scale
//                u64 weight_count, int8 weights | u64 bias_count, int32 biases
//
// Only v2 is read; any other magic fails as "bad magic". Every header
// mismatch reports expected-vs-got explicitly, e.g.
//   "weights blob: dtype mismatch (expected float32 (0), got int8 (1))".
#pragma once

#include "common/bytes.h"
#include "ml/network.h"
#include "ml/quant.h"

namespace plinius::ml {

/// Serialization dtype tags (the `dtype` header field).
inline constexpr std::uint64_t kDtypeFloat32 = 0;
inline constexpr std::uint64_t kDtypeInt8 = 1;

/// Serializes float weights (v2 header, dtype float32).
[[nodiscard]] Bytes serialize_weights(Network& net);

/// Loads float weights from a v2/float32 blob into an architecturally
/// identical network. Throws MlError with an expected-vs-got message on any
/// version/dtype/shape mismatch. Restores the iteration counter.
void deserialize_weights(Network& net, ByteSpan blob);

/// Serializes a quantized model (v2 header, dtype int8).
[[nodiscard]] Bytes serialize_quantized(const QuantizedNetwork& qnet);

/// Reconstructs a quantized model from a v2/int8 blob; throws MlError with
/// an expected-vs-got message on version/dtype mismatch or malformed layout.
/// The one int8 decoder, and it fails closed: every weight/bias count is
/// bounded by the bytes left before anything is allocated, and an unknown
/// layer kind or activation is rejected (MlError naming the layer).
[[nodiscard]] QuantizedNetwork deserialize_quantized(ByteSpan blob);

}  // namespace plinius::ml
