#ifndef LAZYSI_COMMON_CODEC_H_
#define LAZYSI_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace lazysi {
namespace codec {

/// The one byte codec behind the logical log records, the checkpoint file,
/// the replication stream and the client protocol: base-128 varints and
/// varint-length-prefixed byte strings.

/// Appends `v` to `out` as a base-128 varint, low group first.
inline void PutVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Decodes a varint at *offset, advancing it. Rejects encodings longer than
/// 10 bytes and encodings whose high bits overflow 64 bits, so every value
/// has exactly one accepted encoding.
inline bool GetVarint(std::string_view data, std::size_t* offset,
                      std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (*offset < data.size()) {
    auto b = static_cast<unsigned char>(data[*offset]);
    ++(*offset);
    // The 10th byte can only contribute the top bit of a 64-bit value.
    if (shift == 63 && (b & 0xfe) != 0) return false;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Appends `s` as varint(length) + bytes.
inline void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

/// The bytes of the string at *offset, advancing past them; false when the
/// length is malformed or runs past the end of `data`.
inline bool GetBytes(std::string_view data, std::size_t* offset,
                     std::string_view* out) {
  std::uint64_t len = 0;
  if (!GetVarint(data, offset, &len)) return false;
  // Not `*offset + len > data.size()`: that sum wraps for a hostile len
  // near 2^64 and would pass the check.
  if (len > data.size() - *offset) return false;
  *out = data.substr(*offset, static_cast<std::size_t>(len));
  *offset += static_cast<std::size_t>(len);
  return true;
}

/// Decodes a string written by PutString into `out`.
inline bool GetString(std::string_view data, std::size_t* offset,
                      std::string* out) {
  std::string_view bytes;
  if (!GetBytes(data, offset, &bytes)) return false;
  out->assign(bytes);
  return true;
}

/// Decodes a string written by PutString into any type constructible from a
/// string_view (a shared storage::Value: its one copy of the bytes).
template <typename T>
bool GetString(std::string_view data, std::size_t* offset, T* out) {
  std::string_view bytes;
  if (!GetBytes(data, offset, &bytes)) return false;
  *out = T(bytes);
  return true;
}

}  // namespace codec
}  // namespace lazysi

#endif  // LAZYSI_COMMON_CODEC_H_
