#include "wal/logical_log.h"

#include <iterator>

namespace lazysi {
namespace wal {

std::size_t LogicalLog::Append(LogRecord record) {
  std::size_t lsn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lsn = base_lsn_ + records_.size();
    records_.push_back(std::move(record));
  }
  cv_.notify_all();
  return lsn;
}

std::size_t LogicalLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + records_.size();
}

std::size_t LogicalLog::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

void LogicalLog::ResetBase(std::size_t base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!records_.empty() || base_lsn_ != 0) return;
  base_lsn_ = base;
}

void LogicalLog::TruncateBelow(std::size_t lsn) {
  // Dropped records are moved out under the lock and freed after it is
  // released, so truncating a large prefix never stalls Append.
  std::deque<LogRecord> dropped;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t end = base_lsn_ + records_.size();
  if (lsn > end) lsn = end;
  if (lsn <= base_lsn_) return;
  const auto cut =
      records_.begin() + static_cast<std::ptrdiff_t>(lsn - base_lsn_);
  if (cut == records_.end()) {
    dropped.swap(records_);
  } else {
    dropped.assign(std::make_move_iterator(records_.begin()),
                   std::make_move_iterator(cut));
    records_.erase(records_.begin(), cut);
  }
  base_lsn_ = lsn;
}

std::optional<LogRecord> LogicalLog::At(std::size_t lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn < base_lsn_ || lsn - base_lsn_ >= records_.size()) {
    return std::nullopt;
  }
  return records_[lsn - base_lsn_];
}

bool LogicalLog::WaitForSize(std::size_t size,
                             std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    return size <= base_lsn_ + records_.size() || closed_;
  }) && size <= base_lsn_ + records_.size();
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
    if (from < base_lsn_) from = base_lsn_;
    if (from > base_lsn_ + records_.size()) from = base_lsn_ + records_.size();
    snapshot.assign(records_.begin() +
                        static_cast<std::ptrdiff_t>(from - base_lsn_),
                    records_.end());
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
