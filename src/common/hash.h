// Hashing utilities shared across the library.
#ifndef MOCHY_COMMON_HASH_H_
#define MOCHY_COMMON_HASH_H_

#include <cstdint>
#include <cstddef>

namespace mochy {

/// Strong 64-bit finalizer (Murmur3 fmix64). Good avalanche for packed keys.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Packs an unordered pair of 32-bit ids into one 64-bit key, smaller id in
/// the high half so packed keys sort like (min, max).
inline uint64_t PackPair(uint32_t a, uint32_t b) {
  if (a > b) {
    const uint32_t t = a;
    a = b;
    b = t;
  }
  return (static_cast<uint64_t>(a) << 32) | b;
}

inline uint32_t PairFirst(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
inline uint32_t PairSecond(uint64_t key) {
  return static_cast<uint32_t>(key & 0xffffffffULL);
}

/// FNV-1a-64 over raw bytes. `h` seeds the state (default: the offset
/// basis), so a caller can chain calls or mix in a seed. The `.mhg`
/// container, the streaming WAL and the fault injector's rate coin all
/// hash through this one function.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// boost-style hash combiner for aggregating multiple fields.
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hashes a span of 32-bit ids (e.g. a sorted hyperedge) with FNV-1a over
/// mixed words; order-sensitive, so callers hash canonical (sorted) forms.
inline uint64_t HashIdSpan(const uint32_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= Mix64(data[i] + 0x9e3779b97f4a7c15ULL * (i + 1));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace mochy

#endif  // MOCHY_COMMON_HASH_H_
