#include "txn/transaction.h"

#include "txn/txn_manager.h"

namespace lazysi {
namespace txn {

Transaction::Transaction(TxnManager* manager, TxnId id, Timestamp start_ts,
                         Timestamp snapshot_ts, bool read_only)
    : manager_(manager),
      id_(id),
      start_ts_(start_ts),
      snapshot_ts_(snapshot_ts),
      read_only_(read_only) {}

Transaction::~Transaction() {
  // Dropping an active handle rolls it back, RAII-style.
  if (state_ == State::kActive) Abort();
}

Result<storage::Value> Transaction::Get(const std::string& key) {
  if (state_ != State::kActive) {
    return Status::FailedPrecondition("transaction is not active");
  }
  // A transaction sees its own updates (Section 2.1).
  if (const storage::Write* own = write_set_.Find(key)) {
    reads_.push_back(ReadObservation{key, kInvalidTimestamp, !own->deleted,
                                     /*from_own_write=*/true});
    if (own->deleted) return Status::NotFound();
    return own->value;
  }
  auto result = locked_reads_
                    ? manager_->store()->GetLocked(key, snapshot_ts_)
                    : manager_->store()->Get(key, snapshot_ts_);
  if (result.ok()) {
    reads_.push_back(ReadObservation{key, result->commit_ts, /*found=*/true,
                                     /*from_own_write=*/false});
    return std::move(result)->value;
  }
  reads_.push_back(ReadObservation{key, kInvalidTimestamp, /*found=*/false,
                                   /*from_own_write=*/false});
  return result.status();
}

Status Transaction::Put(const std::string& key, storage::Value value) {
  if (state_ != State::kActive) {
    return Status::FailedPrecondition("transaction is not active");
  }
  if (read_only_) {
    return Status::InvalidArgument("Put on a read-only transaction");
  }
  manager_->NotifyUpdate(id_, key, value, /*deleted=*/false);
  write_set_.Put(key, std::move(value));
  return Status::OK();
}

Status Transaction::Delete(const std::string& key) {
  if (state_ != State::kActive) {
    return Status::FailedPrecondition("transaction is not active");
  }
  if (read_only_) {
    return Status::InvalidArgument("Delete on a read-only transaction");
  }
  manager_->NotifyUpdate(id_, key, storage::Value(), /*deleted=*/true);
  write_set_.Delete(key);
  return Status::OK();
}

Result<std::vector<std::pair<std::string, storage::Value>>> Transaction::Scan(
    const std::string& begin, const std::string& end) {
  if (state_ != State::kActive) {
    return Status::FailedPrecondition("transaction is not active");
  }
  auto snapshot = manager_->store()->Scan(begin, end, snapshot_ts_);
  // Overlay this transaction's own writes within the range.
  std::map<std::string, storage::Value> merged;
  for (auto& [key, vv] : snapshot) {
    reads_.push_back(ReadObservation{key, vv.commit_ts, /*found=*/true,
                                     /*from_own_write=*/false});
    merged[key] = std::move(vv.value);
  }
  for (const auto& [key, w] : write_set_.entries()) {
    if (key < begin) continue;
    if (!end.empty() && key >= end) continue;
    if (w.deleted) {
      merged.erase(key);
    } else {
      merged[key] = w.value;
    }
  }
  std::vector<std::pair<std::string, storage::Value>> out;
  out.reserve(merged.size());
  for (auto& [key, value] : merged) out.emplace_back(key, std::move(value));
  return out;
}

Status Transaction::Commit() {
  if (state_ == State::kCommitted) return Status::OK();
  if (state_ == State::kAborted) {
    return Status::Aborted("transaction already aborted");
  }
  return manager_->CommitTxn(this);
}

void Transaction::Abort() { manager_->AbortTxn(this); }

}  // namespace txn
}  // namespace lazysi
