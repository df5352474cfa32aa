#ifndef HBOLD_COMMON_HASH_H_
#define HBOLD_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace hbold {

/// FNV-1a 64 offset basis: the running state of a hash over no bytes.
inline constexpr uint64_t kFnv64Basis = 1469598103934665603ULL;

/// FNV-1a 64-bit hash — stable across runs/platforms, used for content
/// fingerprints (e.g. detecting an unchanged Schema Summary, §3.2).
/// `state` continues a running hash, so hashing pieces in order gives the
/// hash of their concatenation: Fnv64(b, Fnv64(a)) == Fnv64(a + b).
inline uint64_t Fnv64(std::string_view data, uint64_t state = kFnv64Basis) {
  for (unsigned char c : data) {
    state ^= c;
    state *= 1099511628211ULL;
  }
  return state;
}

}  // namespace hbold

#endif  // HBOLD_COMMON_HASH_H_
