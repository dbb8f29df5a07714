// Open-addressing hash map specialized for dense integer keys.
//
// The reference MoCHy-E / MoCHy-A kernels (motif/reference.cc) probe pair
// weights `omega({j,k})` once per candidate triple; std::unordered_map's
// chasing of heap nodes dominates there, so they use a flat power-of-two
// table with linear probing, in the spirit of the Swiss-table / RocksDB
// internal maps discussed in the project's database C++ guides.
#ifndef MOCHY_COMMON_FLAT_MAP_H_
#define MOCHY_COMMON_FLAT_MAP_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace mochy {

/// Hash map from uint64 keys to trivially-copyable values with linear
/// probing. One key value (`kEmptyKey`, default ~0) is reserved as the
/// empty sentinel and must never be inserted. No erase (none needed here).
template <typename V>
class FlatMap64 {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  FlatMap64() { Rehash(16); }

  /// Pre-sizes the table for `n` insertions without rehashing.
  explicit FlatMap64(size_t expected) {
    size_t cap = 16;
    while (cap * 7 < expected * 8) cap <<= 1;  // keep load factor <= 7/8
    Rehash(cap * 2);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts key->value; overwrites any existing value.
  void Put(uint64_t key, V value) {
    MOCHY_DCHECK(key != kEmptyKey);
    if ((size_ + 1) * 8 > capacity_ * 7) Rehash(capacity_ * 2);
    size_t idx = Probe(key);
    if (keys_[idx] == kEmptyKey) {
      keys_[idx] = key;
      ++size_;
    }
    values_[idx] = value;
  }

  /// Adds `delta` to the value at key (default-initialized if absent).
  void Add(uint64_t key, V delta) {
    MOCHY_DCHECK(key != kEmptyKey);
    if ((size_ + 1) * 8 > capacity_ * 7) Rehash(capacity_ * 2);
    size_t idx = Probe(key);
    if (keys_[idx] == kEmptyKey) {
      keys_[idx] = key;
      values_[idx] = V{};
      ++size_;
    }
    values_[idx] += delta;
  }

  /// Returns the value for key, or `fallback` if absent.
  V GetOr(uint64_t key, V fallback) const {
    const size_t idx = Probe(key);
    return keys_[idx] == kEmptyKey ? fallback : values_[idx];
  }

  bool Contains(uint64_t key) const {
    return keys_[Probe(key)] != kEmptyKey;
  }

  /// Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
    }
  }

  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    size_ = 0;
  }

  /// Approximate heap footprint in bytes (table arrays only).
  size_t MemoryBytes() const {
    return capacity_ * (sizeof(uint64_t) + sizeof(V));
  }

 private:
  size_t Probe(uint64_t key) const {
    size_t idx = Mix64(key) & mask_;
    while (keys_[idx] != kEmptyKey && keys_[idx] != key) {
      idx = (idx + 1) & mask_;
    }
    return idx;
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    capacity_ = new_capacity;
    mask_ = capacity_ - 1;
    keys_.assign(capacity_, kEmptyKey);
    values_.assign(capacity_, V{});
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) {
        const size_t idx = Probe(old_keys[i]);
        keys_[idx] = old_keys[i];
        values_[idx] = old_values[i];
        ++size_;
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace mochy

#endif  // MOCHY_COMMON_FLAT_MAP_H_
