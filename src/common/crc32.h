#ifndef LAZYSI_COMMON_CRC32_H_
#define LAZYSI_COMMON_CRC32_H_

#include <array>
#include <cstdint>
#include <cstring>
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

/// Byte-at-a-time table CRC-32C: the portable path, and the reference the
/// hardware path is tested against.
inline std::uint32_t TableCrc32c(std::string_view data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (unsigned char c : data) {
    crc = kTable[(crc ^ c) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
/// SSE4.2 `crc32` instruction, 8 bytes per step. Callers must check
/// HardwareCrc32cAvailable() first.
__attribute__((target("sse4.2"))) inline std::uint32_t HardwareCrc32c(
    std::string_view data, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, sizeof(word));
    crc = __builtin_ia32_crc32di(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; i < data.size(); ++i) {
    crc32 = __builtin_ia32_crc32qi(crc32, static_cast<unsigned char>(data[i]));
  }
  return ~crc32;
}

inline bool HardwareCrc32cAvailable() {
  // __builtin_cpu_init makes the probe safe from static initializers too.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}
#else
inline bool HardwareCrc32cAvailable() { return false; }
#endif

}  // namespace crc32_internal

/// CRC-32C of `data`; pass a previous result as `seed` to extend a running
/// checksum over multiple chunks. Uses the SSE4.2 instruction when the CPU
/// has it, the byte table otherwise; both give identical results.
inline std::uint32_t Crc32c(std::string_view data, std::uint32_t seed = 0) {
#if defined(__x86_64__)
  if (crc32_internal::HardwareCrc32cAvailable()) {
    return crc32_internal::HardwareCrc32c(data, seed);
  }
#endif
  return crc32_internal::TableCrc32c(data, seed);
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
