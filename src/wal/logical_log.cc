#include "wal/logical_log.h"

#include <algorithm>

namespace lazysi {
namespace wal {

std::size_t LogicalLog::Append(LogRecord record) {
  std::size_t lsn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lsn = base_lsn_ + size_;
    if (chunks_.empty() || chunks_.back().size() == kChunkRecords) {
      chunks_.emplace_back().reserve(kChunkRecords);
    }
    chunks_.back().push_back(std::move(record));
    ++size_;
  }
  cv_.notify_all();
  return lsn;
}

std::size_t LogicalLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + size_;
}

std::size_t LogicalLog::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

void LogicalLog::ResetBase(std::size_t base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ != 0 || base_lsn_ != 0) return;
  base_lsn_ = base;
}

void LogicalLog::TruncateBelow(std::size_t lsn) {
  // Dropped chunks are moved out under the lock and freed after it is
  // released, so truncating a large prefix never stalls Append.
  std::vector<std::vector<LogRecord>> dropped;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t end = base_lsn_ + size_;
  if (lsn > end) lsn = end;
  if (lsn <= base_lsn_) return;
  std::size_t cleared = front_;
  front_ += lsn - base_lsn_;
  size_ -= lsn - base_lsn_;
  base_lsn_ = lsn;
  while (front_ >= kChunkRecords) {
    dropped.push_back(std::move(chunks_.front()));
    chunks_.pop_front();
    front_ -= kChunkRecords;
    cleared = 0;
  }
  // Truncated records of the chunk that stays let go of their keys and
  // values now rather than when the chunk goes.
  for (; cleared < front_; ++cleared) chunks_.front()[cleared] = LogRecord();
}

std::optional<LogRecord> LogicalLog::At(std::size_t lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn < base_lsn_ || lsn - base_lsn_ >= size_) return std::nullopt;
  return RecordAt(lsn);
}

bool LogicalLog::WaitForSize(std::size_t size,
                             std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    return size <= base_lsn_ + size_ || closed_;
  }) && size <= base_lsn_ + size_;
}

void LogicalLog::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool LogicalLog::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::string LogicalLog::EncodeFrom(std::size_t from) const {
  // Snapshot the range under the lock, encode outside it: serialization is
  // O(total bytes) and must not stall Append or blocked cursors.
  std::vector<LogRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t end = base_lsn_ + size_;
    from = std::clamp(from, base_lsn_, end);
    snapshot.reserve(end - from);
    for (std::size_t lsn = from; lsn < end; ++lsn) {
      snapshot.push_back(RecordAt(lsn));
    }
  }
  std::string out;
  for (const auto& record : snapshot) {
    record.EncodeTo(&out);
  }
  return out;
}

Result<std::vector<LogRecord>> LogicalLog::DecodeAll(const std::string& data) {
  std::vector<LogRecord> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto rec = LogRecord::Decode(data, &offset);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace wal
}  // namespace lazysi
