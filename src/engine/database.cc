#include "engine/database.h"

#include <thread>

#include "common/logging.h"

namespace lazysi {
namespace engine {

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      store_(options_.store_shards),
      txn_manager_(&store_, this) {}

Database::~Database() { Close(); }

std::unique_ptr<txn::Transaction> Database::Begin(bool read_only) {
  return txn_manager_.Begin(read_only);
}

Result<storage::Value> Database::Get(const std::string& key) {
  auto t = Begin(/*read_only=*/true);
  auto value = t->Get(key);
  t->Commit().ok();  // read-only commit cannot fail
  return value;
}

Status Database::Put(const std::string& key, storage::Value value) {
  auto t = Begin();
  LAZYSI_RETURN_NOT_OK(t->Put(key, std::move(value)));
  return t->Commit();
}

Status Database::Delete(const std::string& key) {
  auto t = Begin();
  LAZYSI_RETURN_NOT_OK(t->Delete(key));
  return t->Commit();
}

std::uint64_t Database::StateHash() const {
  std::lock_guard<std::mutex> lock(chain_mu_);
  return chain_.value();
}

std::vector<StateChainEntry> Database::StateChainHistory() const {
  std::lock_guard<std::mutex> lock(chain_mu_);
  return chain_history_;
}

Database::Checkpoint Database::TakeCheckpoint() {
  const CheckpointPin pin = PinCheckpoint();
  Checkpoint cp;
  cp.as_of = pin.as_of;
  cp.lsn = pin.lsn;
  for (std::size_t shard = 0; shard < store_.shard_count(); ++shard) {
    store_.ForEachVisibleInShard(
        shard, pin.as_of,
        [&cp](const std::string& key, const storage::Value& value) {
          cp.state.emplace(key, value);
        });
  }
  return cp;
}

Database::CheckpointPin Database::PinCheckpoint() {
  CheckpointPin pin;
  // The pipelined commit emits the log record before installing versions, so
  // `log_.Size()` alone may count commits the watermark has not yet passed.
  // Sample (as_of, lsn) until the pipeline is momentarily drained with the
  // watermark unchanged across the sample: then every commit record below
  // `lsn` has timestamp <= `as_of` and is materialized, and every commit
  // <= `as_of` has its record below `lsn` (records are emitted before
  // publication). `as_of` is the snapshot of a read-only transaction the
  // caller holds open across its read, so a concurrent GarbageCollect cannot
  // prune a version the checkpoint still has to read.
  for (;;) {
    pin.txn = txn_manager_.BeginReadOnly();
    pin.as_of = pin.txn->snapshot_ts();
    pin.lsn = log_.Size();
    if (txn_manager_.AllCommitsVisible() &&
        txn_manager_.LatestCommitTs() == pin.as_of) {
      return pin;
    }
    pin.txn.reset();
    std::this_thread::yield();
  }
}

Result<Timestamp> Database::InstallCheckpoint(const Checkpoint& checkpoint) {
  auto t = Begin();
  for (const auto& [key, value] : checkpoint.state) {
    LAZYSI_RETURN_NOT_OK(t->Put(key, value));
  }
  LAZYSI_RETURN_NOT_OK(t->Commit());
  return t->commit_ts();
}

void Database::Close() { log_.Close(); }

void Database::AttachDurableLog(wal::DurableLog* durable) {
  durable_ = durable;
  txn_manager_.SetDurabilityGate(
      [this](Timestamp commit_ts) { return DurabilityGate(commit_ts); });
}

void Database::AppendLogRecord(wal::LogRecord record, Timestamp commit_ts) {
  if (durable_ == nullptr) {
    log_.Append(std::move(record));
    return;
  }
  // The pair (memory append, mirror append) is serialized: update records
  // are emitted outside the timestamp mutex, so without this the mirror
  // could see LSNs out of order.
  std::lock_guard<std::mutex> lock(dur_mu_);
  const std::size_t lsn = log_.Append(record);
  if (commit_ts != kInvalidTimestamp) commit_lsns_[commit_ts] = lsn;
  durable_->Append(lsn, record);
}

Status Database::DurabilityGate(Timestamp commit_ts) {
  if (durable_ == nullptr) return Status::OK();
  std::uint64_t lsn;
  {
    std::lock_guard<std::mutex> lock(dur_mu_);
    auto it = commit_lsns_.find(commit_ts);
    if (it == commit_lsns_.end()) return Status::OK();
    lsn = it->second;
    commit_lsns_.erase(it);
  }
  return durable_->WaitDurable(lsn + 1);
}

std::uint64_t Database::ContentHash() {
  // Pinned like TakeCheckpoint, so a concurrent GarbageCollect cannot drop
  // a version of the snapshot being hashed. Rows are hashed in place, shard
  // by shard, and summed: the sum does not depend on the order rows are
  // visited in, so sites with different shard layouts still agree. Each row
  // is digested as the state chain digests a write of it.
  auto pin = txn_manager_.BeginReadOnly();
  std::uint64_t h = 0;
  for (std::size_t shard = 0; shard < store_.shard_count(); ++shard) {
    store_.ForEachVisibleInShard(
        shard, pin->snapshot_ts(),
        [&h](const std::string& key, const storage::Value& value) {
          h += WriteDigest(key, value, /*deleted=*/false);
        });
  }
  return h;
}

Result<Database::RestoreReport> Database::RestoreFromDurable(
    const Checkpoint* checkpoint, const std::vector<wal::LogRecord>& suffix,
    std::size_t suffix_base_lsn, wal::DurableLog* durable) {
  if (log_.Size() != 0 || LatestCommitTs() != kInvalidTimestamp) {
    return Status::FailedPrecondition(
        "RestoreFromDurable requires a fresh database");
  }
  RestoreReport report;
  Timestamp as_of = kInvalidTimestamp;
  if (checkpoint != nullptr) {
    if (checkpoint->lsn < suffix_base_lsn) {
      return Status::InvalidArgument(
          "checkpoint LSN below the retained log suffix");
    }
    as_of = checkpoint->as_of;
    // Install the checkpoint state directly at its original timestamp —
    // InstallCheckpoint would allocate a fresh one, and recovery must not
    // renumber primary-visible timestamps.
    if (!checkpoint->state.empty()) {
      storage::WriteSet base;
      for (const auto& [key, value] : checkpoint->state) {
        base.Put(key, value);
      }
      store_.Apply(base, as_of);
    }
  }
  log_.ResetBase(suffix_base_lsn);

  std::map<TxnId, storage::WriteSet> updates;
  std::map<TxnId, Timestamp> open_starts;
  Timestamp max_ts = as_of;
  Timestamp max_commit = as_of;
  TxnId max_txn = 0;
  for (const auto& rec : suffix) {
    log_.Append(rec);
    ++report.records_replayed;
    if (rec.txn_id > max_txn) max_txn = rec.txn_id;
    switch (rec.type) {
      case wal::LogRecordType::kStart:
        open_starts[rec.txn_id] = rec.timestamp;
        max_ts = std::max(max_ts, rec.timestamp);
        break;
      case wal::LogRecordType::kUpdate: {
        auto& ws = updates[rec.txn_id];
        if (rec.deleted) {
          ws.Delete(rec.key);
        } else {
          ws.Put(rec.key, rec.value);
        }
        break;
      }
      case wal::LogRecordType::kCommit: {
        max_ts = std::max(max_ts, rec.timestamp);
        max_commit = std::max(max_commit, rec.timestamp);
        auto it = updates.find(rec.txn_id);
        if (rec.timestamp > as_of || as_of == kInvalidTimestamp) {
          // Not covered by the checkpoint: apply at the logged timestamp.
          // (TakeCheckpoint's consistent (state, LSN) pair guarantees
          // commit records below the checkpoint LSN have ts <= as_of.)
          if (it != updates.end() && !it->second.empty()) {
            store_.Apply(it->second, rec.timestamp);
          }
          {
            std::lock_guard<std::mutex> lock(chain_mu_);
            if (it != updates.end()) {
              for (const auto& [key, w] : it->second.entries()) {
                chain_.FoldDigest(w.digest);
              }
            }
            chain_.SealTransaction();
            if (options_.record_state_chain) {
              chain_history_.push_back(
                  StateChainEntry{rec.timestamp, chain_.value()});
            }
          }
          ++report.commits_applied;
        }
        if (it != updates.end()) updates.erase(it);
        open_starts.erase(rec.txn_id);
        break;
      }
      case wal::LogRecordType::kAbort:
        updates.erase(rec.txn_id);
        open_starts.erase(rec.txn_id);
        break;
    }
  }
  // Transactions the crash caught mid-flight can never commit (their client
  // connections died with the process): resolve them with synthetic abort
  // records — in memory *and* on disk — so propagation update lists and
  // segment-rotation quiescence converge.
  for (const auto& [txn_id, start_ts] : open_starts) {
    (void)start_ts;
    wal::LogRecord abort_rec = wal::LogRecord::Abort(txn_id);
    const std::size_t lsn = log_.Append(abort_rec);
    if (durable != nullptr) durable->Append(lsn, abort_rec);
    ++report.unresolved_aborted;
  }
  const Timestamp clock = max_ts == kInvalidTimestamp ? 0 : max_ts;
  const Timestamp visible = max_commit == kInvalidTimestamp ? 0 : max_commit;
  txn_manager_.ResetForRecovery(clock, visible, max_txn + 1);
  report.restored_visible = visible;
  return report;
}

void Database::OnStart(TxnId txn_id, Timestamp start_ts) {
  AppendLogRecord(wal::LogRecord::Start(txn_id, start_ts), kInvalidTimestamp);
}

void Database::OnUpdate(TxnId txn_id, const std::string& key,
                        const storage::Value& value, bool deleted) {
  AppendLogRecord(wal::LogRecord::Update(txn_id, key, value, deleted),
                  kInvalidTimestamp);
}

void Database::OnCommit(TxnId txn_id, Timestamp commit_ts,
                        const storage::WriteSet& writes) {
  AppendLogRecord(wal::LogRecord::Commit(txn_id, commit_ts), commit_ts);
  if (commit_hook_) commit_hook_(txn_id, commit_ts);
  // Runs under the TxnManager's timestamp mutex: fold the digests the write
  // set computed as each write was buffered, and read no value bytes here.
  std::lock_guard<std::mutex> lock(chain_mu_);
  for (const auto& [key, w] : writes.entries()) {
    chain_.FoldDigest(w.digest);
  }
  chain_.SealTransaction();
  if (options_.record_state_chain) {
    chain_history_.push_back(StateChainEntry{commit_ts, chain_.value()});
  }
}

void Database::OnAbort(TxnId txn_id) {
  AppendLogRecord(wal::LogRecord::Abort(txn_id), kInvalidTimestamp);
}

}  // namespace engine
}  // namespace lazysi
