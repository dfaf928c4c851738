#include "wal/log_record.h"

#include <sstream>

#include "common/codec.h"

namespace lazysi {
namespace wal {

using codec::GetString;
using codec::GetVarint;
using codec::PutString;
using codec::PutVarint;

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
