// persist<T>: store-interposed persistent scalar (paper §V).
//
// "We annotate all persistent types (e.g., matrix rows, matrix values, model
// layer attributes, etc.) with the persist<> class from lib-sgx-romulus.
// This wrapper class ensures every store operation on the associated
// persistent data is followed by a persistent write back (PWB) to flush the
// cache line to PM."
//
// A persist<T> object must live inside the main region of the Romulus
// instance whose transaction is open on the current thread; assignment logs
// the range and issues the PWB through that transaction. Reads are plain
// loads (the line is in the CPU cache).
#pragma once

#include <type_traits>

#include "romulus/romulus.h"

namespace plinius::romulus {

template <typename T>
class persist {
  static_assert(std::is_trivially_copyable_v<T>,
                "persist<T> requires a trivially copyable T");

 public:
  persist() = default;

  persist& operator=(const T& v) {
    store(v);
    return *this;
  }

  // Copying a persist<T> copies the value with full interposition semantics.
  persist(const persist& other) { store(other.val_); }
  persist& operator=(const persist& other) {
    store(other.val_);
    return *this;
  }

  operator T() const noexcept { return val_; }
  [[nodiscard]] T load() const noexcept { return val_; }

  void store(const T& v) {
    Romulus* rom = Romulus::current();
    if (rom == nullptr) {
      throw PmError("persist<T>: store outside a Romulus transaction");
    }
    rom->tx_store(rom->offset_of(this), &v, sizeof(T));
  }

  persist& operator+=(const T& v) { return *this = val_ + v; }
  persist& operator-=(const T& v) { return *this = val_ - v; }
  persist& operator++() { return *this = val_ + T{1}; }

 private:
  T val_{};
};

/// Typed offset-based pointer into a Romulus main region; 0 is null. Offsets
/// stay valid across crashes and re-mappings (unlike raw pointers).
template <typename T>
class pm_ptr {
 public:
  pm_ptr() = default;
  explicit pm_ptr(std::uint64_t offset) noexcept : offset_(offset) {}

  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] bool is_null() const noexcept { return offset_ == 0; }
  explicit operator bool() const noexcept { return offset_ != 0; }

  [[nodiscard]] T* get(Romulus& rom) const {
    if (offset_ == 0) return nullptr;
    return reinterpret_cast<T*>(rom.main_base() + offset_);
  }
  [[nodiscard]] const T* get(const Romulus& rom) const {
    if (offset_ == 0) return nullptr;
    return reinterpret_cast<const T*>(rom.main_base() + offset_);
  }

  friend bool operator==(const pm_ptr& a, const pm_ptr& b) {
    return a.offset_ == b.offset_;
  }

 private:
  std::uint64_t offset_ = 0;
};

/// Allocates and default-constructs a T inside the main region (within the
/// current transaction) and returns its offset pointer.
template <typename T>
[[nodiscard]] pm_ptr<T> pm_make(Romulus& rom) {
  static_assert(std::is_trivially_destructible_v<T>,
                "persistent objects must not need destructors");
  const std::size_t off = rom.pmalloc(sizeof(T));
  rom.tx_fill(off, sizeof(T), [](std::uint8_t* dst) { ::new (dst) T{}; });
  return pm_ptr<T>(off);
}

}  // namespace plinius::romulus
