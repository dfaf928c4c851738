#ifndef LAZYSI_WAL_LOGICAL_LOG_H_
#define LAZYSI_WAL_LOGICAL_LOG_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "wal/log_record.h"

namespace lazysi {
namespace wal {

/// Append-only logical log of one site. The primary's transaction manager
/// appends under its timestamp mutex, so the log order of start and commit
/// records equals timestamp order — the property Section 3 assumes ("start
/// and commit timestamps are consistent with the actual order of start and
/// commit operations at the site").
///
/// The propagator tails the log with WaitForSize + Visit (a "log sniffer" in
/// the paper's terms, Section 5: it does not go through the concurrency
/// control), reading records in place instead of copying them out.
/// LSNs are *absolute*: they keep counting across checkpoint truncation and
/// restarts. `base_lsn()` is the oldest retained LSN; reads below it find
/// nothing (the record was truncated away).
class LogicalLog {
 public:
  /// Appends a record; wakes blocked cursors. Returns the record's log
  /// sequence number (LSN, 0-based, absolute).
  std::size_t Append(LogRecord record);

  /// One past the last appended LSN (absolute), i.e. the next LSN.
  std::size_t Size() const;

  /// Oldest retained LSN (0 unless the log was truncated or restored).
  std::size_t base_lsn() const;

  /// Re-bases an *empty* log so the next append gets LSN `base` (recovery:
  /// the on-disk suffix starts there). No-op if records were ever appended.
  void ResetBase(std::size_t base);

  /// Drops in-memory records with LSN < `lsn` (clamped to [base, Size()]).
  /// Absolute LSNs are unaffected; reads below the new base yield nullopt.
  void TruncateBelow(std::size_t lsn);

  /// Returns a copy of the record at `lsn` if it exists and is still
  /// retained.
  std::optional<LogRecord> At(std::size_t lsn) const;

  /// Calls `fn(const LogRecord&)` on each retained record with LSN in
  /// [from, to), in order, under the log lock — no record is copied, and
  /// `fn` must not call back into the log. Stops at the first LSN that is
  /// not retained (truncated away, or not yet appended). Returns the number
  /// of records visited.
  template <typename Fn>
  std::size_t Visit(std::size_t from, std::size_t to, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (from < base_lsn_) return 0;
    const std::size_t end = std::min(to, base_lsn_ + size_);
    for (std::size_t lsn = from; lsn < end; ++lsn) fn(RecordAt(lsn));
    return end > from ? end - from : 0;
  }

  /// Blocks until Size() >= `size`, the log is closed, or `timeout`
  /// elapses. Returns whether Size() >= `size`.
  bool WaitForSize(std::size_t size, std::chrono::milliseconds timeout) const;

  /// Closes the log (site shutdown); blocked WaitForSize calls wake.
  void Close();
  bool closed() const;

  /// Serializes records [from, Size()) to a byte string (for checkpointing
  /// and for shipping a recovery delta, Section 3.4). The range is snapshot
  /// under the lock and encoded outside it, so a large encode never stalls
  /// Append or the propagator's cursors.
  std::string EncodeFrom(std::size_t from) const;

  /// Parses a byte string produced by EncodeFrom.
  static Result<std::vector<LogRecord>> DecodeAll(const std::string& data);

 private:
  /// Records per chunk. A record is a small header (its value is a shared
  /// handle), appended by whichever thread commits, next to the values and
  /// versions that thread allocates. Truncation frees whole chunks, i.e.
  /// whole pages malloc can return, where a std::deque's 512-byte blocks
  /// left holes among those live allocations.
  static constexpr std::size_t kChunkRecords = 512;

  /// The retained record with absolute LSN `lsn`; caller holds mu_ and has
  /// checked base_lsn_ <= lsn < base_lsn_ + size_.
  const LogRecord& RecordAt(std::size_t lsn) const {
    const std::size_t pos = front_ + (lsn - base_lsn_);
    return chunks_[pos / kChunkRecords][pos % kChunkRecords];
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  /// Every chunk but the last holds kChunkRecords records; the first
  /// `front_` records of the first chunk are truncated (and cleared).
  std::deque<std::vector<LogRecord>> chunks_;
  std::size_t front_ = 0;
  std::size_t size_ = 0;      // retained records
  std::size_t base_lsn_ = 0;  // absolute LSN of the first retained record
  bool closed_ = false;
};

}  // namespace wal
}  // namespace lazysi

#endif  // LAZYSI_WAL_LOGICAL_LOG_H_
