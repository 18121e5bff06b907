// Hashing utilities shared by inverted indexes, the mini MapReduce shuffle
// and the session's options fingerprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace ms {

/// 64-bit FNV-1a over a byte string. Stable across platforms/runs, which
/// persisted fingerprints rely on.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mixes a 64-bit value (finalizer from MurmurHash3).
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Combines two hashes (boost-style).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Hash for a pair of 32-bit ids (e.g. a (left,right) value pair).
inline uint64_t HashIdPair(uint32_t a, uint32_t b) {
  return Mix64((static_cast<uint64_t>(a) << 32) | b);
}

/// std-compatible hasher for pair<uint32_t,uint32_t> keys.
struct IdPairHash {
  size_t operator()(const std::pair<uint32_t, uint32_t>& p) const {
    return static_cast<size_t>(HashIdPair(p.first, p.second));
  }
};

}  // namespace ms
