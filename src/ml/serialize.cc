#include "ml/serialize.h"

#include <cstring>

namespace plinius::ml {

namespace {
constexpr std::uint64_t kWeightsMagicV2 = 0x32494557454E4C50ULL;  // "PLNWEI2"
constexpr std::uint64_t kFormatVersion = 2;

const char* dtype_name(std::uint64_t dtype) {
  switch (dtype) {
    case kDtypeFloat32: return "float32";
    case kDtypeInt8: return "int8";
    default: return "unknown";
  }
}

std::string dtype_label(std::uint64_t dtype) {
  return std::string(dtype_name(dtype)) + " (" + std::to_string(dtype) + ")";
}

void append_u64(Bytes& out, std::uint64_t v) {
  const std::size_t off = out.size();
  out.resize(off + 8);
  std::memcpy(out.data() + off, &v, 8);
}

void append_f32(Bytes& out, float v) {
  const std::size_t off = out.size();
  out.resize(off + 4);
  std::memcpy(out.data() + off, &v, 4);
}

void append_bytes(Bytes& out, const void* src, std::size_t n) {
  if (n == 0) return;  // src may be null (an empty buffer); memcpy forbids it
  const std::size_t off = out.size();
  out.resize(off + n);
  std::memcpy(out.data() + off, src, n);
}

class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  std::uint64_t u64() {
    if (off_ + 8 > data_.size()) throw MlError("weights blob: truncated");
    std::uint64_t v;
    std::memcpy(&v, data_.data() + off_, 8);
    off_ += 8;
    return v;
  }

  float f32() {
    if (off_ + 4 > data_.size()) throw MlError("weights blob: truncated");
    float v;
    std::memcpy(&v, data_.data() + off_, 4);
    off_ += 4;
    return v;
  }

  void floats(float* dst, std::size_t count) {
    raw(dst, count * sizeof(float), "floats");
  }

  /// Reads an element count and bounds it by the bytes left (overflow-safe),
  /// so a hostile count fails before anything is allocated for it.
  std::size_t count(std::size_t elem_bytes, const char* what, const std::string& where) {
    const std::uint64_t n = u64();
    if (n > (data_.size() - off_) / elem_bytes) {
      throw MlError(std::string("weights blob: ") + what + " count " + std::to_string(n) +
                    where + " exceeds the remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  void raw(void* dst, std::size_t bytes, const char* what) {
    if (bytes > data_.size() - off_) {
      throw MlError(std::string("weights blob: truncated ") + what);
    }
    if (bytes == 0) return;  // dst may be null (an empty buffer)
    std::memcpy(dst, data_.data() + off_, bytes);
    off_ += bytes;
  }

  [[nodiscard]] bool exhausted() const noexcept { return off_ == data_.size(); }

 private:
  ByteSpan data_;
  std::size_t off_ = 0;
};

/// Consumes the v2 header (magic, version, dtype), checking the dtype
/// against `expected_dtype`.
void read_header(Reader& in, std::uint64_t expected_dtype) {
  if (in.u64() != kWeightsMagicV2) throw MlError("weights blob: bad magic");
  const std::uint64_t version = in.u64();
  if (version != kFormatVersion) {
    throw MlError("weights blob: unsupported format version (expected " +
                  std::to_string(kFormatVersion) + ", got " +
                  std::to_string(version) + ")");
  }
  const std::uint64_t dtype = in.u64();
  if (dtype != expected_dtype) {
    throw MlError("weights blob: dtype mismatch (expected " +
                  dtype_label(expected_dtype) + ", got " + dtype_label(dtype) +
                  ")");
  }
}

}  // namespace

Bytes serialize_weights(Network& net) {
  Bytes out;
  append_u64(out, kWeightsMagicV2);
  append_u64(out, kFormatVersion);
  append_u64(out, kDtypeFloat32);
  append_u64(out, net.iterations());
  append_u64(out, net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto buffers = net.layer(i).parameters();
    append_u64(out, buffers.size());
    for (const auto& buf : buffers) {
      append_u64(out, buf.values.size());
      append_bytes(out, buf.values.data(), buf.values.size_bytes());
    }
  }
  return out;
}

void deserialize_weights(Network& net, ByteSpan blob) {
  Reader in(blob);
  read_header(in, kDtypeFloat32);
  const std::uint64_t iterations = in.u64();
  if (in.u64() != net.num_layers()) throw MlError("weights blob: layer count mismatch");
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    auto buffers = net.layer(i).parameters();
    if (in.u64() != buffers.size()) {
      throw MlError("weights blob: buffer count mismatch at layer " + std::to_string(i));
    }
    for (auto& buf : buffers) {
      if (in.u64() != buf.values.size()) {
        throw MlError("weights blob: size mismatch in " + buf.name + " at layer " +
                      std::to_string(i));
      }
      in.floats(buf.values.data(), buf.values.size());
    }
  }
  if (!in.exhausted()) throw MlError("weights blob: trailing bytes");
  net.set_iterations(iterations);
}

Bytes serialize_quantized(const QuantizedNetwork& qnet) {
  Bytes out;
  append_u64(out, kWeightsMagicV2);
  append_u64(out, kFormatVersion);
  append_u64(out, kDtypeInt8);
  append_u64(out, qnet.iterations());
  append_u64(out, qnet.input_shape().c);
  append_u64(out, qnet.input_shape().h);
  append_u64(out, qnet.input_shape().w);
  append_f32(out, qnet.input_scale());
  append_u64(out, qnet.num_layers());
  for (const auto& l : qnet.layers()) {
    append_u64(out, static_cast<std::uint64_t>(l.kind));
    append_u64(out, l.in.c);
    append_u64(out, l.in.h);
    append_u64(out, l.in.w);
    append_u64(out, l.out.c);
    append_u64(out, l.out.h);
    append_u64(out, l.out.w);
    append_u64(out, l.ksize);
    append_u64(out, l.stride);
    append_u64(out, l.pad);
    append_u64(out, static_cast<std::uint64_t>(l.activation));
    append_f32(out, l.weight_scale);
    append_f32(out, l.in_scale);
    append_f32(out, l.out_scale);
    append_u64(out, l.weights.size());
    append_bytes(out, l.weights.data(), l.weights.size() * sizeof(std::int8_t));
    append_u64(out, l.biases.size());
    append_bytes(out, l.biases.data(), l.biases.size() * sizeof(std::int32_t));
  }
  return out;
}

QuantizedNetwork deserialize_quantized(ByteSpan blob) {
  Reader in(blob);
  read_header(in, kDtypeInt8);

  QuantizedNetwork q;
  q.set_iterations(in.u64());
  Shape input{in.u64(), in.u64(), in.u64()};
  q.set_input_shape(input);
  q.set_input_scale(in.f32());
  const std::uint64_t num_layers = in.u64();
  for (std::uint64_t i = 0; i < num_layers; ++i) {
    const std::string at = " at layer " + std::to_string(i);
    QuantLayer l;
    const std::uint64_t kind = in.u64();
    if (kind > static_cast<std::uint64_t>(QLayerKind::kSoftmax)) {
      throw MlError("weights blob: bad quantized layer kind " + std::to_string(kind) + at);
    }
    l.kind = static_cast<QLayerKind>(kind);
    l.in = Shape{in.u64(), in.u64(), in.u64()};
    l.out = Shape{in.u64(), in.u64(), in.u64()};
    l.ksize = in.u64();
    l.stride = in.u64();
    l.pad = in.u64();
    const std::uint64_t activation = in.u64();
    if (activation > static_cast<std::uint64_t>(Activation::kTanh)) {
      throw MlError("weights blob: bad activation " + std::to_string(activation) + at);
    }
    l.activation = static_cast<Activation>(activation);
    l.weight_scale = in.f32();
    l.in_scale = in.f32();
    l.out_scale = in.f32();
    l.weights.resize(in.count(sizeof(std::int8_t), "int8 weight", at));
    in.raw(l.weights.data(), l.weights.size() * sizeof(std::int8_t), "int8 weights");
    l.biases.resize(in.count(sizeof(std::int32_t), "int32 bias", at));
    in.raw(l.biases.data(), l.biases.size() * sizeof(std::int32_t), "int32 biases");
    q.layers().push_back(std::move(l));
  }
  if (!in.exhausted()) throw MlError("weights blob: trailing bytes");
  return q;
}

}  // namespace plinius::ml
