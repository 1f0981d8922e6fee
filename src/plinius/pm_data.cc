#include "plinius/pm_data.h"
#include "obs/leakage.h"
#include "obs/trace.h"

#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "crypto/envelope.h"

namespace plinius {

PmDataStore::PmDataStore(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm, bool encrypted)
    : rom_(&rom),
      enclave_(&enclave),
      gcm_(std::move(gcm)),
      iv_seq_(crypto::IvSequence::salted(enclave.rng())),
      encrypted_(encrypted) {}

bool PmDataStore::exists() const {
  const std::uint64_t off = rom_->root(kRootSlot);
  return off != 0 && rom_->read<std::uint64_t>(off) == kMagic;
}

PmDataStore::Header PmDataStore::header() const {
  expects(exists(), "PmDataStore: no dataset in PM");
  const Header hdr = rom_->read<Header>(rom_->root(kRootSlot));
  // Every layout field is untrusted PM data that sizes or places a memcpy:
  // validate them once, here, so no reader can index outside main.
  const std::uint64_t max_cols = rom_->main_size() / sizeof(float);
  const bool cols_ok = hdr.x_cols <= max_cols && hdr.y_cols <= max_cols;
  const std::uint64_t plain_len = cols_ok ? (hdr.x_cols + hdr.y_cols) * sizeof(float) : 0;
  const std::uint64_t record_len =
      hdr.encrypted != 0 ? crypto::sealed_size(plain_len) : plain_len;
  if (hdr.rows == 0 || !cols_ok || hdr.record_len != record_len) {
    throw PmError("PmDataStore: corrupt record layout (rows " + std::to_string(hdr.rows) +
                  ", x_cols " + std::to_string(hdr.x_cols) + ", y_cols " +
                  std::to_string(hdr.y_cols) + ", record_len " +
                  std::to_string(hdr.record_len) + ")");
  }
  rom_->check_extent(hdr.records_off, hdr.rows, hdr.record_len,
                     "PmDataStore: corrupt record extent");
  return hdr;
}

std::size_t PmDataStore::rows() const { return header().rows; }
std::size_t PmDataStore::x_cols() const { return header().x_cols; }
std::size_t PmDataStore::y_cols() const { return header().y_cols; }
bool PmDataStore::encrypted() const { return header().encrypted != 0; }

void PmDataStore::load(const ml::Dataset& data) {
  if (exists()) throw PmError("PmDataStore::load: dataset already loaded");
  data.validate();
  expects(data.size() > 0, "PmDataStore::load: empty dataset");

  const std::size_t plain_len = (data.x.cols + data.y.cols) * sizeof(float);
  const std::size_t record_len =
      encrypted_ ? crypto::sealed_size(plain_len) : plain_len;

  // The helper reads the (already encrypted) dataset from untrusted storage
  // into a DRAM staging matrix and hands its address to the enclave via an
  // ecall; the data then crosses into PM in ocall-free stores (§V).
  enclave_->charge_ecall();
  enclave_->charge_ocall_io(data.size() * record_len, /*into_enclave=*/true);

  Bytes record(record_len);
  std::vector<float> plain((data.x.cols + data.y.cols));

  rom_->run_transaction([&] {
    Header hdr{kMagic,       data.size(),     data.x.cols,
               data.y.cols,  record_len,      encrypted_ ? 1ULL : 0ULL,
               0};
    hdr.records_off = rom_->pmalloc(data.size() * record_len);
    for (std::size_t r = 0; r < data.size(); ++r) {
      std::memcpy(plain.data(), data.x.row(r), data.x.cols * sizeof(float));
      std::memcpy(plain.data() + data.x.cols, data.y.row(r),
                  data.y.cols * sizeof(float));
      const ByteSpan plain_bytes(reinterpret_cast<const std::uint8_t*>(plain.data()),
                                 plain_len);
      if (encrypted_) {
        // Records are sealed under the provisioned data key (the data owner
        // ships them encrypted; re-sealing here is equivalent and keeps the
        // demo self-contained).
        crypto::seal_into(gcm_, iv_seq_, plain_bytes,
                          MutableByteSpan(record.data(), record.size()));
      } else {
        std::memcpy(record.data(), plain_bytes.data(), plain_len);
      }
      rom_->tx_store(hdr.records_off + r * record_len, record.data(), record.size());
    }
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));
    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(kRootSlot, hdr_off);
  });
}

void PmDataStore::read_record(std::size_t index, float* x_out, float* y_out) {
  const Header hdr = header();
  if (index >= hdr.rows) throw PmError("PmDataStore::read_record: index out of range");
  const std::size_t off = hdr.records_off + index * hdr.record_len;
  const std::size_t plain_len = (hdr.x_cols + hdr.y_cols) * sizeof(float);

  rom_->device().charge_read(hdr.record_len);
  if (enclave_->model().real_sgx) {
    enclave_->copy_into_enclave(hdr.record_len);
  }

  plain_scratch_.resize(hdr.x_cols + hdr.y_cols);
  auto plain_bytes = MutableByteSpan(
      reinterpret_cast<std::uint8_t*>(plain_scratch_.data()), plain_len);

  if (hdr.encrypted != 0) {
    scratch_.resize(hdr.record_len);
    std::memcpy(scratch_.data(), rom_->main_base() + off, hdr.record_len);
    enclave_->charge_crypto(hdr.record_len);
    if (!crypto::open_into(gcm_, scratch_, plain_bytes)) {
      throw CryptoError("PmDataStore: record " + std::to_string(index) +
                        " failed authentication");
    }
  } else {
    std::memcpy(plain_bytes.data(), rom_->main_base() + off, plain_len);
    enclave_->charge_plain_copy(plain_len);
  }

  std::memcpy(x_out, plain_scratch_.data(), hdr.x_cols * sizeof(float));
  std::memcpy(y_out, plain_scratch_.data() + hdr.x_cols, hdr.y_cols * sizeof(float));
  ++stats_.records;
}

void PmDataStore::sample_batch(std::size_t batch, Rng& rng, float* x_out,
                               float* y_out) {
  const Header hdr = header();
  obs::Span span(enclave_->clock(), obs::Category::kDataBatch, "data.batch");
  span.attr("batch", static_cast<double>(batch));
  sim::Stopwatch sw(enclave_->clock());
  const std::size_t plain_len = (hdr.x_cols + hdr.y_cols) * sizeof(float);

  // Phase 1 (serial): draw the batch's record indices — the RNG consumption
  // order is part of the determinism contract, identical at every thread
  // count — then stage the sealed records and charge the PM reads (the media
  // bandwidth is shared, so reads do not overlap across lanes).
  std::vector<std::size_t> indices(batch);
  for (auto& index : indices) index = rng.below(hdr.rows);

  std::vector<sim::Nanos> costs(batch);
  scratch_.resize(batch * hdr.record_len);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t off = hdr.records_off + indices[b] * hdr.record_len;
    // The PM offsets read here are the sampled record indices — exactly what
    // a controlled-channel observer of the data region sees.
    obs::touch_pages("pm.data", off, hdr.record_len);
    rom_->device().charge_read(hdr.record_len);
    if (enclave_->model().real_sgx) {
      enclave_->copy_into_enclave(hdr.record_len);
    }
    std::memcpy(scratch_.data() + b * hdr.record_len, rom_->main_base() + off,
                hdr.record_len);
    costs[b] = hdr.encrypted != 0 ? enclave_->crypto_task_ns(hdr.record_len)
                                  : enclave_->plain_copy_ns(plain_len);
  }

  // Phase 2: authenticate + decrypt every record concurrently into its
  // (disjoint) batch rows; simulated time is the TCS critical path.
  plain_scratch_.resize(batch * (hdr.x_cols + hdr.y_cols));
  std::vector<std::uint8_t> auth_ok(batch, 1);
  par::parallel_for(batch, [&](par::Range r) {
    for (std::size_t b = r.begin; b < r.end; ++b) {
      float* record = plain_scratch_.data() + b * (hdr.x_cols + hdr.y_cols);
      auto plain_bytes =
          MutableByteSpan(reinterpret_cast<std::uint8_t*>(record), plain_len);
      if (hdr.encrypted != 0) {
        const ByteSpan sealed(scratch_.data() + b * hdr.record_len, hdr.record_len);
        auth_ok[b] = crypto::open_into(gcm_, sealed, plain_bytes) ? 1 : 0;
        if (!auth_ok[b]) continue;
      } else {
        std::memcpy(plain_bytes.data(), scratch_.data() + b * hdr.record_len,
                    plain_len);
      }
      std::memcpy(x_out + b * hdr.x_cols, record, hdr.x_cols * sizeof(float));
      std::memcpy(y_out + b * hdr.y_cols, record + hdr.x_cols,
                  hdr.y_cols * sizeof(float));
    }
  });
  {
    // The decrypt critical path is GCM (or plain copies for unencrypted
    // data); attribute the whole advance to the matching category.
    const sim::Nanos t0 = enclave_->clock().now();
    const sim::Nanos dec_ns = enclave_->charge_parallel(costs);
    obs::trace_complete(enclave_->clock(),
                        hdr.encrypted != 0 ? obs::Category::kGcm
                                           : obs::Category::kPlainCopy,
                        "data.batch.open", t0, t0 + dec_ns);
  }

  // Phase 3 (rare, serial): corrupt records. kThrow names the failing index;
  // kResample draws replacements so a batch survives media faults in the
  // data region (each corrupt draw counted; a bounded retry budget keeps a
  // mostly-rotten store from looping forever).
  for (std::size_t b = 0; b < batch; ++b) {
    if (auth_ok[b]) continue;
    ++stats_.corrupt_records;
    if (policy_ == CorruptRecordPolicy::kThrow) {
      throw CryptoError("PmDataStore::sample_batch: record " +
                        std::to_string(indices[b]) + " (batch slot " +
                        std::to_string(b) + ") failed authentication");
    }
    constexpr std::size_t kMaxRedraws = 64;
    bool refilled = false;
    for (std::size_t attempt = 0; attempt < kMaxRedraws; ++attempt) {
      const std::size_t index = rng.below(hdr.rows);
      try {
        read_record(index, x_out + b * hdr.x_cols, y_out + b * hdr.y_cols);
      } catch (const CryptoError&) {
        ++stats_.corrupt_records;
        continue;
      }
      indices[b] = index;
      ++stats_.resampled;
      refilled = true;
      break;
    }
    if (!refilled) {
      throw CryptoError("PmDataStore::sample_batch: record " +
                        std::to_string(indices[b]) + " failed authentication and " +
                        std::to_string(kMaxRedraws) +
                        " resample draws all failed too (data region rotten)");
    }
  }

  stats_.records += batch;
  stats_.decrypt_ns += sw.elapsed();
  ++stats_.batches;
}

std::vector<std::size_t> PmDataStore::scrub_records() {
  const Header hdr = header();
  std::vector<std::size_t> corrupt;
  if (hdr.encrypted == 0) return corrupt;  // no MAC to check

  const std::size_t plain_len = (hdr.x_cols + hdr.y_cols) * sizeof(float);
  scratch_.resize(hdr.record_len);
  plain_scratch_.resize(hdr.x_cols + hdr.y_cols);
  auto plain_bytes = MutableByteSpan(
      reinterpret_cast<std::uint8_t*>(plain_scratch_.data()), plain_len);
  for (std::size_t r = 0; r < hdr.rows; ++r) {
    const std::size_t off = hdr.records_off + r * hdr.record_len;
    rom_->device().scrub_range(rom_->main_region_offset() + off, hdr.record_len);
    std::memcpy(scratch_.data(), rom_->main_base() + off, hdr.record_len);
    enclave_->charge_crypto(hdr.record_len);
    if (!crypto::open_into(gcm_, scratch_, plain_bytes)) {
      corrupt.push_back(r);
      ++stats_.corrupt_records;
    }
  }
  return corrupt;
}

}  // namespace plinius
