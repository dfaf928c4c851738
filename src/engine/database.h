#ifndef LAZYSI_ENGINE_DATABASE_H_
#define LAZYSI_ENGINE_DATABASE_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "storage/versioned_store.h"
#include "txn/txn_manager.h"
#include "txn/txn_observer.h"
#include "wal/durable_log.h"
#include "wal/logical_log.h"

namespace lazysi {
namespace engine {

class CheckpointReader;

struct DatabaseOptions {
  /// Site identifier, for diagnostics (0 = primary by convention).
  SiteId site_id = kPrimarySiteId;
  /// Human-readable site name.
  std::string name = "site";
  /// Record the per-commit state-hash chain. Enables completeness
  /// (Theorem 3.1) assertions; costs one vector entry per committed update
  /// transaction, so long-running deployments may disable it.
  bool record_state_chain = true;
  /// Lock stripes of the MVCC store (rounded up to a power of two). One
  /// shard reproduces the single-global-lock layout; the default spreads
  /// concurrent point reads/installs across independent locks.
  std::size_t store_shards = storage::VersionedStore::kDefaultShardCount;
};

/// One entry of the state-hash chain: the database state produced by the
/// i-th committed update transaction (S_i in the paper's notation), as a
/// 64-bit fingerprint.
struct StateChainEntry {
  Timestamp commit_ts;
  std::uint64_t hash;

  bool operator==(const StateChainEntry&) const = default;
};

/// An autonomous site database: MVCC store + strong SI transaction manager +
/// logical log, i.e. the "autonomous database management system with a local
/// concurrency controller that guarantees strong SI and is deadlock-free" of
/// Section 3. Every site in the replicated system (primary and secondaries)
/// is one of these.
class Database : private txn::TxnObserver {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Begins a transaction at the latest committed snapshot (strong SI).
  std::unique_ptr<txn::Transaction> Begin(bool read_only = false);

  /// Begins a read-only transaction pinned to a historical snapshot (time
  /// travel; see TxnManager::BeginAtSnapshot).
  Result<std::unique_ptr<txn::Transaction>> BeginAtSnapshot(
      Timestamp snapshot) {
    return txn_manager_.BeginAtSnapshot(snapshot);
  }

  /// Auto-commit conveniences.
  Result<storage::Value> Get(const std::string& key);
  Status Put(const std::string& key, storage::Value value);
  Status Delete(const std::string& key);

  /// Timestamp of the most recent committed update transaction.
  Timestamp LatestCommitTs() const { return txn_manager_.LatestCommitTs(); }

  /// Version garbage collection: drops every version shadowed at the safe
  /// horizon (the oldest snapshot any in-flight transaction can read).
  /// Returns the number of versions reclaimed. Always safe to call — a
  /// long-running reader simply pins the horizon, and concurrent historical
  /// Begins are covered by the floor handshake: the pruning upper bound is
  /// published *before* the horizon scan of the active-snapshot table, and
  /// the horizon is clamped to that bound, so a reader either appears in
  /// the scan (horizon <= its snapshot) or observes the floor and reads
  /// under the shard locks (see VersionedStore's reclamation contract).
  std::size_t GarbageCollect() {
    const Timestamp bound = txn_manager_.LatestCommitTs();
    store_.RaiseGcFloor(bound);
    return store_.PruneVersions(
        std::min(bound, txn_manager_.MinActiveSnapshot()));
  }

  storage::VersionedStore* store() { return &store_; }
  txn::TxnManager* txn_manager() { return &txn_manager_; }
  wal::LogicalLog* log() { return &log_; }
  const DatabaseOptions& options() const { return options_; }

  /// Fingerprint of the current database state (last chain entry), and the
  /// full chain history (empty when record_state_chain is off). Two sites
  /// that installed identical write sets in identical commit order have
  /// equal chains — the executable form of Theorem 3.1.
  std::uint64_t StateHash() const;
  std::vector<StateChainEntry> StateChainHistory() const;

  /// A consistent (as_of, lsn) pair for copying this site's state (Section
  /// 3.4): every commit at or below `as_of` has its log record below `lsn`,
  /// and every commit record below `lsn` is at or below `as_of`, so a copy of
  /// the state at `as_of` plus the log from `lsn` on covers the whole
  /// history. `txn` is a read-only transaction at `as_of` that keeps
  /// GarbageCollect from pruning a version of that snapshot for as long as
  /// the pin is held. The state is then read shard by shard
  /// (EncodeSnapshotChunks in engine/recovery.h), so it is never copied
  /// whole. Non-quiescent: commits keep flowing.
  struct CheckpointPin {
    Timestamp as_of = kInvalidTimestamp;
    std::size_t lsn = 0;
    std::unique_ptr<txn::Transaction> txn;
  };
  CheckpointPin PinCheckpoint();

  /// Attaches a durable on-disk mirror of the logical log: every record the
  /// observers append is also queued on `durable` under the same LSN, and
  /// every commit acknowledgement blocks on the flushed-LSN watermark (the
  /// group-commit ack rule). Attach before any transaction runs (or right
  /// after RestoreFromDurable).
  void AttachDurableLog(wal::DurableLog* durable);

  /// The attached durable log; null for an in-memory database.
  wal::DurableLog* durable() const { return durable_; }

  struct RestoreReport {
    std::size_t records_replayed = 0;   // suffix records re-appended
    std::size_t commits_applied = 0;    // commits above the checkpoint
    std::size_t unresolved_aborted = 0;  // synthetic aborts for torn txns
    Timestamp restored_visible = kInvalidTimestamp;
  };

  /// Primary restart (Section 3.4): rebuilds this *fresh* database from a
  /// checkpoint (may be null), installed chunk by chunk at its as_of, plus
  /// the durable log suffix starting at absolute LSN `suffix_base_lsn`.
  /// Original commit timestamps are preserved — sessions hold seq(c) =
  /// primary commit timestamps and secondaries dedupe by record seq, so
  /// recovery must not renumber anything. Commits with timestamp <=
  /// checkpoint->as_of() are already in the checkpoint state and are skipped
  /// (PinCheckpoint's (as_of, lsn) pair is consistent); later commits are
  /// applied at their logged timestamps. Transactions left unresolved by the crash get
  /// synthetic abort records, appended both here and to `durable` (if
  /// given) so propagation update lists quiesce. Seeds the transaction
  /// manager's clock/watermark/txn-id counters past everything restored.
  Result<RestoreReport> RestoreFromDurable(
      CheckpointReader* checkpoint, const std::vector<wal::LogRecord>& suffix,
      std::size_t suffix_base_lsn, wal::DurableLog* durable);

  /// Order-independent fingerprint of the materialized state at the
  /// visibility watermark. Unlike StateHash (a fold over commit history,
  /// which a checkpoint restart cannot reproduce), two sites holding the
  /// same key-value content hash equal regardless of how they got there.
  std::uint64_t ContentHash();

  /// Installs a hook invoked for every update-transaction commit *under the
  /// timestamp mutex*, before the commit's versions become visible (the
  /// visibility watermark passes the commit timestamp only after the hook
  /// has run and installation finished). The replication layer uses this to
  /// publish the local-to-primary commit timestamp translation before any
  /// reader can observe the new versions.
  void SetCommitHook(std::function<void(TxnId, Timestamp)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Closes the logical log; tailing propagators drain and stop.
  void Close();

 private:
  // txn::TxnObserver — wired into the TxnManager so the log sees every
  // update-transaction lifecycle event in timestamp order.
  void OnStart(TxnId txn_id, Timestamp start_ts) override;
  void OnUpdate(TxnId txn_id, const std::string& key,
                const storage::Value& value, bool deleted) override;
  void OnCommit(TxnId txn_id, Timestamp commit_ts,
                const storage::WriteSet& writes) override;
  void OnAbort(TxnId txn_id) override;

  /// Appends to the in-memory log and, when a durable mirror is attached,
  /// queues the record there under the same LSN (the pair is serialized so
  /// the mirror receives LSNs in order). Registers commit records for the
  /// durability gate.
  void AppendLogRecord(wal::LogRecord record, Timestamp commit_ts);

  /// TxnManager durability gate: waits until this commit's log record is
  /// below the durable flushed-LSN watermark.
  Status DurabilityGate(Timestamp commit_ts);

  DatabaseOptions options_;
  storage::VersionedStore store_;
  wal::LogicalLog log_;
  txn::TxnManager txn_manager_;
  std::function<void(TxnId, Timestamp)> commit_hook_;

  wal::DurableLog* durable_ = nullptr;  // not owned
  std::mutex dur_mu_;  // orders mirror appends; guards commit_lsns_
  std::map<Timestamp, std::uint64_t> commit_lsns_;

  mutable std::mutex chain_mu_;
  StateChain chain_;
  std::vector<StateChainEntry> chain_history_;
};

}  // namespace engine
}  // namespace lazysi

#endif  // LAZYSI_ENGINE_DATABASE_H_
