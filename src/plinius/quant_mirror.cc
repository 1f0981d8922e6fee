#include "plinius/quant_mirror.h"

#include <cstring>

#include "common/error.h"

namespace plinius {

namespace {

// Fixed-size geometry/scale records inside the "meta" blob. The blob size
// is a function of the architecture only, so repeated save() calls reuse the
// allocation (TensorMirror requires stable blob sizes).
struct MetaHeader {
  std::uint64_t iterations;
  std::uint64_t in_c, in_h, in_w;
  float input_scale;
  float pad0;
  std::uint64_t layer_count;
};

struct MetaLayer {
  std::uint64_t kind;
  std::uint64_t in_c, in_h, in_w;
  std::uint64_t out_c, out_h, out_w;
  std::uint64_t ksize, stride, pad;
  std::uint64_t activation;
  std::uint64_t weight_count, bias_count;
  float weight_scale, in_scale, out_scale;
  float pad0;
};

// Appends rather than `"l" + std::to_string(i)`: GCC 12 misreads that
// operator+'s insert as an overlapping memcpy (-Wrestrict).
std::string param_name(std::size_t i, const char* suffix) {
  std::string name = "l";
  name += std::to_string(i);
  name += suffix;
  return name;
}
std::string weight_name(std::size_t i) { return param_name(i, ".w"); }
std::string bias_name(std::size_t i) { return param_name(i, ".b"); }

Bytes build_meta(const ml::QuantizedNetwork& qnet) {
  Bytes meta(sizeof(MetaHeader) + qnet.num_layers() * sizeof(MetaLayer));
  MetaHeader hdr{};
  hdr.iterations = qnet.iterations();
  hdr.in_c = qnet.input_shape().c;
  hdr.in_h = qnet.input_shape().h;
  hdr.in_w = qnet.input_shape().w;
  hdr.input_scale = qnet.input_scale();
  hdr.layer_count = qnet.num_layers();
  std::memcpy(meta.data(), &hdr, sizeof(hdr));
  for (std::size_t i = 0; i < qnet.num_layers(); ++i) {
    const ml::QuantLayer& l = qnet.layers()[i];
    MetaLayer m{};
    m.kind = static_cast<std::uint64_t>(l.kind);
    m.in_c = l.in.c;
    m.in_h = l.in.h;
    m.in_w = l.in.w;
    m.out_c = l.out.c;
    m.out_h = l.out.h;
    m.out_w = l.out.w;
    m.ksize = l.ksize;
    m.stride = l.stride;
    m.pad = l.pad;
    m.activation = static_cast<std::uint64_t>(l.activation);
    m.weight_count = l.weights.size();
    m.bias_count = l.biases.size();
    m.weight_scale = l.weight_scale;
    m.in_scale = l.in_scale;
    m.out_scale = l.out_scale;
    std::memcpy(meta.data() + sizeof(MetaHeader) + i * sizeof(MetaLayer), &m,
                sizeof(m));
  }
  return meta;
}

}  // namespace

QuantMirror::QuantMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm)
    : mirror_(rom, enclave, std::move(gcm), kRootSlot) {}

void QuantMirror::save(ml::QuantizedNetwork& qnet, std::uint64_t version) {
  expects(qnet.num_layers() > 0, "QuantMirror::save: empty network");
  Bytes meta = build_meta(qnet);

  std::vector<NamedBlob> blobs;
  blobs.reserve(1 + 2 * qnet.num_layers());
  blobs.push_back({"meta", std::span<std::uint8_t>(meta.data(), meta.size())});
  for (std::size_t i = 0; i < qnet.num_layers(); ++i) {
    ml::QuantLayer& l = qnet.layers()[i];
    blobs.push_back(
        {weight_name(i),
         std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(l.weights.data()),
                                 l.weights.size() * sizeof(std::int8_t))});
    blobs.push_back(
        {bias_name(i),
         std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(l.biases.data()),
                                 l.biases.size() * sizeof(std::int32_t))});
  }

  if (!mirror_.exists()) mirror_.alloc_blobs(blobs);
  mirror_.mirror_out_blobs(blobs, version);
}

std::uint64_t QuantMirror::load(ml::QuantizedNetwork& qnet) {
  // Size staging buffers from the PM table, restore + authenticate every
  // blob, and only then assemble the network (tamper leaves qnet intact).
  const auto sizes = mirror_.blob_sizes();
  std::vector<Bytes> staging(sizes.size());
  std::vector<NamedBlob> blobs;
  blobs.reserve(sizes.size());
  std::size_t meta_idx = sizes.size();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    staging[i].resize(sizes[i].second);
    blobs.push_back({sizes[i].first,
                     std::span<std::uint8_t>(staging[i].data(), staging[i].size())});
    if (sizes[i].first == "meta") meta_idx = i;
  }
  if (meta_idx == sizes.size()) {
    throw MlError("QuantMirror::load: snapshot has no meta blob");
  }
  const std::uint64_t ver = mirror_.mirror_in_blobs(blobs);

  const Bytes& meta = staging[meta_idx];
  if (meta.size() < sizeof(MetaHeader)) {
    throw MlError("QuantMirror::load: meta blob too small");
  }
  MetaHeader hdr;
  std::memcpy(&hdr, meta.data(), sizeof(hdr));
  if (meta.size() != sizeof(MetaHeader) + hdr.layer_count * sizeof(MetaLayer)) {
    throw MlError("QuantMirror::load: meta blob size mismatch");
  }

  ml::QuantizedNetwork fresh;
  fresh.set_iterations(hdr.iterations);
  fresh.set_input_shape(ml::Shape{hdr.in_c, hdr.in_h, hdr.in_w});
  fresh.set_input_scale(hdr.input_scale);
  for (std::size_t i = 0; i < hdr.layer_count; ++i) {
    MetaLayer m;
    std::memcpy(&m, meta.data() + sizeof(MetaHeader) + i * sizeof(MetaLayer),
                sizeof(m));
    if (m.kind > static_cast<std::uint64_t>(ml::QLayerKind::kSoftmax)) {
      throw MlError("QuantMirror::load: bad layer kind in meta");
    }
    ml::QuantLayer l;
    l.kind = static_cast<ml::QLayerKind>(m.kind);
    l.in = ml::Shape{m.in_c, m.in_h, m.in_w};
    l.out = ml::Shape{m.out_c, m.out_h, m.out_w};
    l.ksize = m.ksize;
    l.stride = m.stride;
    l.pad = m.pad;
    l.activation = static_cast<ml::Activation>(m.activation);
    l.weight_scale = m.weight_scale;
    l.in_scale = m.in_scale;
    l.out_scale = m.out_scale;

    Bytes* wbuf = nullptr;
    Bytes* bbuf = nullptr;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      if (sizes[s].first == weight_name(i)) wbuf = &staging[s];
      if (sizes[s].first == bias_name(i)) bbuf = &staging[s];
    }
    if (wbuf == nullptr || bbuf == nullptr) {
      throw MlError("QuantMirror::load: missing layer blobs for layer " +
                    std::to_string(i));
    }
    if (wbuf->size() != m.weight_count * sizeof(std::int8_t) ||
        bbuf->size() != m.bias_count * sizeof(std::int32_t)) {
      throw MlError("QuantMirror::load: layer blob size mismatch at layer " +
                    std::to_string(i));
    }
    // A layer without parameters has empty buffers, whose data() may be
    // null, which memcpy forbids even for zero bytes.
    l.weights.resize(m.weight_count);
    if (!wbuf->empty()) std::memcpy(l.weights.data(), wbuf->data(), wbuf->size());
    l.biases.resize(m.bias_count);
    if (!bbuf->empty()) std::memcpy(l.biases.data(), bbuf->data(), bbuf->size());
    fresh.layers().push_back(std::move(l));
  }

  qnet = std::move(fresh);
  return ver;
}

ml::QuantizedNetwork QuantMirror::load_snapshot() {
  ml::QuantizedNetwork q;
  load(q);
  return q;
}

}  // namespace plinius
