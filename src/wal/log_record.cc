#include "wal/log_record.h"

#include <sstream>

namespace lazysi {
namespace wal {

namespace {

void PutVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const std::string& data, std::size_t* offset,
               std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (*offset < data.size()) {
    auto b = static_cast<unsigned char>(data[*offset]);
    ++(*offset);
    // The 10th byte can only contribute the top bit of a 64-bit value:
    // reject continuations and payload bits that would be shifted out, so
    // every value has exactly one accepted encoding of <= 10 bytes.
    if (shift == 63 && (b & 0xfe) != 0) return false;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
    if (shift > 63) return false;
  }
  return false;
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

/// Decodes varint(length) + bytes into any type constructible from a
/// string_view (a key string or a shared value).
template <typename T>
bool GetString(const std::string& data, std::size_t* offset, T* out) {
  std::uint64_t len = 0;
  if (!GetVarint(data, offset, &len)) return false;
  // Not `*offset + len > data.size()`: that sum wraps for len near 2^64.
  if (len > data.size() - *offset) return false;
  *out = T(std::string_view(data).substr(*offset, len));
  *offset += len;
  return true;
}

}  // namespace

void LogRecord::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutVarint(out, txn_id);
  switch (type) {
    case LogRecordType::kStart:
    case LogRecordType::kCommit:
      PutVarint(out, timestamp);
      break;
    case LogRecordType::kUpdate:
      PutString(out, key);
      PutString(out, value);
      out->push_back(deleted ? 1 : 0);
      break;
    case LogRecordType::kAbort:
      break;
  }
}

Result<LogRecord> LogRecord::Decode(const std::string& data,
                                    std::size_t* offset) {
  if (*offset >= data.size()) {
    return Status::InvalidArgument("log record: truncated type");
  }
  LogRecord r;
  auto raw = static_cast<std::uint8_t>(data[*offset]);
  ++(*offset);
  if (raw < 1 || raw > 4) {
    return Status::InvalidArgument("log record: bad type byte");
  }
  r.type = static_cast<LogRecordType>(raw);
  std::uint64_t v = 0;
  if (!GetVarint(data, offset, &v)) {
    return Status::InvalidArgument("log record: truncated txn id");
  }
  r.txn_id = v;
  switch (r.type) {
    case LogRecordType::kStart:
    case LogRecordType::kCommit:
      if (!GetVarint(data, offset, &v)) {
        return Status::InvalidArgument("log record: truncated timestamp");
      }
      r.timestamp = v;
      break;
    case LogRecordType::kUpdate: {
      if (!GetString(data, offset, &r.key) ||
          !GetString(data, offset, &r.value)) {
        return Status::InvalidArgument("log record: truncated key/value");
      }
      if (*offset >= data.size()) {
        return Status::InvalidArgument("log record: truncated deleted flag");
      }
      r.deleted = data[*offset] != 0;
      ++(*offset);
      break;
    }
    case LogRecordType::kAbort:
      break;
  }
  return r;
}

std::string LogRecord::ToString() const {
  std::ostringstream os;
  switch (type) {
    case LogRecordType::kStart:
      os << "START txn=" << txn_id << " ts=" << timestamp;
      break;
    case LogRecordType::kUpdate:
      os << "UPDATE txn=" << txn_id << " key=" << key
         << (deleted ? " (delete)" : " value=" + value.ToString());
      break;
    case LogRecordType::kCommit:
      os << "COMMIT txn=" << txn_id << " ts=" << timestamp;
      break;
    case LogRecordType::kAbort:
      os << "ABORT txn=" << txn_id;
      break;
  }
  return os.str();
}

}  // namespace wal
}  // namespace lazysi
