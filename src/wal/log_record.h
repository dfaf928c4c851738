#ifndef LAZYSI_WAL_LOG_RECORD_H_
#define LAZYSI_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/timestamp.h"
#include "storage/value.h"

namespace lazysi {
namespace wal {

/// Kinds of logical log entries, exactly the four Algorithm 3.1 dispatches
/// on: start_p(T), T's update, commit_p(T), abort_p(T).
enum class LogRecordType : std::uint8_t {
  kStart = 1,
  kUpdate = 2,
  kCommit = 3,
  kAbort = 4,
};

/// One logical log entry. The log is SQL-statement-level ("logical") rather
/// than page-level, as the paper assumes (Section 3: "a logical log
/// containing update records is available", citing Oracle's capability).
///
/// Field usage by type:
///  - kStart:  txn_id, timestamp = start_p(T)
///  - kUpdate: txn_id, key, value, deleted
///  - kCommit: txn_id, timestamp = commit_p(T)
///  - kAbort:  txn_id
struct LogRecord {
  LogRecordType type = LogRecordType::kStart;
  TxnId txn_id = kInvalidTxnId;
  Timestamp timestamp = kInvalidTimestamp;
  std::string key;
  /// Shared with the write set and the store version it came from.
  storage::Value value;
  bool deleted = false;

  static LogRecord Start(TxnId txn, Timestamp start_ts) {
    LogRecord r;
    r.type = LogRecordType::kStart;
    r.txn_id = txn;
    r.timestamp = start_ts;
    return r;
  }
  static LogRecord Update(TxnId txn, std::string key, storage::Value value,
                          bool deleted) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = txn;
    r.key = std::move(key);
    r.value = std::move(value);
    r.deleted = deleted;
    return r;
  }
  static LogRecord Commit(TxnId txn, Timestamp commit_ts) {
    LogRecord r;
    r.type = LogRecordType::kCommit;
    r.txn_id = txn;
    r.timestamp = commit_ts;
    return r;
  }
  static LogRecord Abort(TxnId txn) {
    LogRecord r;
    r.type = LogRecordType::kAbort;
    r.txn_id = txn;
    return r;
  }

  bool operator==(const LogRecord& other) const = default;

  /// Appends a length-delimited binary encoding to `out`. The format is
  /// self-describing enough for crash-recovery style replay and round-trips
  /// through Decode.
  void EncodeTo(std::string* out) const;

  /// Decodes one record from `data` starting at *offset; advances *offset.
  static Result<LogRecord> Decode(const std::string& data,
                                  std::size_t* offset);

  std::string ToString() const;
};

}  // namespace wal
}  // namespace lazysi

#endif  // LAZYSI_WAL_LOG_RECORD_H_
