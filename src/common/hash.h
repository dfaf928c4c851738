#ifndef LAZYSI_COMMON_HASH_H_
#define LAZYSI_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace lazysi {

/// 64-bit FNV-1a. Stable across platforms and byte-serial: kept for short
/// keys (shard and partition placement) and the on-disk checksums, whose
/// formats it defines. Long values go through Digest64 instead.
inline std::uint64_t Fnv1a64(std::string_view data,
                             std::uint64_t seed = 0xcbf29ce484222325ULL) {
  std::uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mixes an integer into a running hash (splitmix64 finalizer).
inline std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

namespace hash_internal {

inline constexpr std::uint64_t kM0 = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kM1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kM2 = 0xff51afd7ed558ccdULL;
inline constexpr std::uint64_t kM3 = 0xc4ceb9fe1a85ec53ULL;

/// Little-endian loads, so digests agree across hosts of either byte order.
inline std::uint64_t Load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

inline std::uint64_t Load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

inline std::uint64_t Rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

/// Absorbs one 8-byte word into an accumulator.
inline std::uint64_t Round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kM1;
  acc = Rotl(acc, 31);
  return acc * kM0;
}

}  // namespace hash_internal

/// 64-bit digest of a byte string, a word at a time. Strings of 32 bytes or
/// more run through four independent multiply lanes (one 32-byte stripe per
/// step), so the cost per byte is a fraction of FNV-1a's serial multiply
/// chain; the rest is absorbed a word, then a half word, then up to three
/// bytes at a time. The length is mixed in first, so strings that differ
/// only by trailing zero bytes differ. Not cryptographic.
inline std::uint64_t Digest64(std::string_view data, std::uint64_t seed = 0) {
  using namespace hash_internal;
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t h = HashMix(seed, n);
  if (n >= 32) {
    std::uint64_t v0 = h + kM0;
    std::uint64_t v1 = h ^ kM1;
    std::uint64_t v2 = h + kM2;
    std::uint64_t v3 = h ^ kM3;
    do {
      v0 = Round(v0, Load64(p));
      v1 = Round(v1, Load64(p + 8));
      v2 = Round(v2, Load64(p + 16));
      v3 = Round(v3, Load64(p + 24));
      p += 32;
      n -= 32;
    } while (n >= 32);
    h = Rotl(v0, 1) + Rotl(v1, 7) + Rotl(v2, 12) + Rotl(v3, 18);
    for (std::uint64_t v : {v0, v1, v2, v3}) {
      h = (h ^ Round(0, v)) * kM0 + kM2;
    }
  }
  for (; n >= 8; p += 8, n -= 8) {
    h = Rotl(h ^ Round(0, Load64(p)), 27) * kM0 + kM3;
  }
  if (n >= 4) {
    // Two overlapping half-word loads cover 4..7 bytes.
    const std::uint64_t word = Load32(p) | (Load32(p + n - 4) << 32);
    h = Rotl(h ^ Round(0, word), 23) * kM1 + kM2;
  } else if (n > 0) {
    const auto byte = [p](std::size_t i) {
      return static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]));
    };
    const std::uint64_t word =
        byte(0) | (byte(n / 2) << 8) | (byte(n - 1) << 16);
    h = Rotl(h ^ Round(0, word), 11) * kM2 + kM0;
  }
  // Final avalanche (murmur3 fmix64).
  h ^= h >> 33;
  h *= kM2;
  h ^= h >> 33;
  h *= kM3;
  h ^= h >> 33;
  return h;
}

/// Digest of one buffered write. Key and value are digested separately,
/// each with its length, so ("ab", "c") and ("a", "bc") differ.
inline std::uint64_t WriteDigest(std::string_view key, std::string_view value,
                                 bool deleted) {
  return HashMix(Digest64(value, Digest64(key)), deleted ? 1 : 0);
}

/// Incremental database-state hash chain used to check completeness
/// (Theorem 3.1): state_i = Mix(state_{i-1}, hash of the i-th committed
/// transaction's write set). Two sites that install identical write sets in
/// identical order produce identical chains; any divergence in order or
/// content diverges the chain with overwhelming probability.
///
/// The chain advances under the commit-ordering lock, so it takes writes as
/// precomputed WriteDigests (storage::Write::digest, computed when the write
/// was buffered): folding costs one mix per write, whatever its size.
class StateChain {
 public:
  std::uint64_t value() const { return value_; }

  /// Folds the WriteDigest of one write of the current write set.
  void FoldDigest(std::uint64_t write_digest) {
    pending_ = HashMix(pending_, write_digest);
  }

  /// Folds one (key, value, deleted) triple of the current write set.
  void FoldWrite(std::string_view key, std::string_view value, bool deleted) {
    FoldDigest(WriteDigest(key, value, deleted));
  }

  /// Seals the current write set as one committed transaction and advances
  /// the chain.
  void SealTransaction() {
    value_ = HashMix(value_, pending_);
    pending_ = kEmptyPending;
  }

 private:
  static constexpr std::uint64_t kEmptyPending = 0xcbf29ce484222325ULL;

  std::uint64_t value_ = 0;
  std::uint64_t pending_ = kEmptyPending;
};

}  // namespace lazysi

#endif  // LAZYSI_COMMON_HASH_H_
