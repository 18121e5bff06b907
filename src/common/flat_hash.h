// Minimal open-addressing hash map for 64-bit keys. Hot paths (blocking's
// key slots, the scorer's and matchers' id lookups) probe it millions of
// times; libstdc++'s node-based unordered_map spends most of its time in
// malloc and pointer chasing there.
// This map stores slots contiguously (one cache line covers several slots),
// grows by doubling, and never allocates per entry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hashing.h"

namespace ms {

/// Open-addressing (linear probe) map from a non-zero uint64 key to T.
/// Key 0 is reserved as the empty-slot sentinel; inserting it is UB.
/// T must be default-constructible and cheap to move.
template <typename T>
class FlatMap64 {
 public:
  struct Slot {
    uint64_t key = 0;  ///< 0 == empty
    T value{};
  };

  FlatMap64() = default;
  explicit FlatMap64(size_t expected) { Reserve(expected); }

  /// Returns the value for `key`, default-constructing it on first access.
  T& operator[](uint64_t key) {
    if (slots_.empty() || size_ + 1 > grow_at_) Grow();
    size_t i = static_cast<size_t>(Mix64(key)) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == 0) {
        s.key = key;
        ++size_;
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  const T* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    size_t i = static_cast<size_t>(Mix64(key)) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == 0) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Heap bytes of the slot array.
  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Removes every entry, keeping the slot array capacity.
  void Clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Ensures capacity for `n` entries without rehashing mid-stream.
  void Reserve(size_t n) {
    size_t cap = 16;
    // 62.5% max load: linear probing stays at ~2 expected probes. Memory is
    // cheaper than probe chains on the counting hot path.
    while (cap * 5 / 8 < n) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

 private:
  void Grow() { Rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    grow_at_ = cap * 5 / 8;
    for (Slot& s : old) {
      if (s.key == 0) continue;
      size_t i = static_cast<size_t>(Mix64(s.key)) & mask_;
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  size_t grow_at_ = 0;
};

}  // namespace ms
