#ifndef LAZYSI_COMMON_CRC32_H_
#define LAZYSI_COMMON_CRC32_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace lazysi {

/// CRC-32C (Castagnoli polynomial, reflected form). Used to checksum WAL
/// records and replication-stream frames: the paper assumes messages are
/// never corrupted in transit (Section 3.2), so the stream has to detect
/// corruption itself before the FIFO contract can be re-derived from an
/// unreliable network.
namespace crc32_internal {

constexpr std::uint32_t kPolynomial = 0x82f63b78u;

constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kTable = MakeTable();

}  // namespace crc32_internal

/// CRC-32C of `data`; pass a previous result as `seed` to extend a running
/// checksum over multiple chunks.
inline std::uint32_t Crc32c(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (unsigned char c : data) {
    crc = crc32_internal::kTable[(crc ^ c) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

/// Appends `crc` to `out` as 4 little-endian bytes (the wire frame trailer).
inline void AppendCrc32(std::string* out, std::uint32_t crc) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

/// Reads a 4-byte little-endian CRC trailer starting at data[offset].
/// The caller must have checked offset + 4 <= data.size().
inline std::uint32_t ReadCrc32(std::string_view data, std::size_t offset) {
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[offset + i]))
           << (8 * i);
  }
  return crc;
}

}  // namespace lazysi

#endif  // LAZYSI_COMMON_CRC32_H_
