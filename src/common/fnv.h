// 64-bit FNV-1a: a cheap, stable hash for digests, line checksums and
// shard placement. Pass a previous result as `h` to hash in pieces.
#ifndef SRC_COMMON_FNV_H_
#define SRC_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace cxlpool {

inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
// The standard offset basis (14695981039346656037) with its last digit
// dropped. The kv store's shard placement and the kv_soak digest were
// built on it, so they keep it: the standard basis would move keys to other
// shards and change the pinned kv_soak digest.
inline constexpr uint64_t kFnv1aTruncatedOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

inline uint64_t Fnv1a(std::span<const std::byte> bytes, uint64_t h = kFnv1aOffset) {
  for (std::byte b : bytes) {
    h ^= static_cast<uint64_t>(b);
    h *= kFnv1aPrime;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view s, uint64_t h = kFnv1aOffset) {
  return Fnv1a(std::as_bytes(std::span(s.data(), s.size())), h);
}

}  // namespace cxlpool

#endif  // SRC_COMMON_FNV_H_
