#ifndef LAZYSI_TXN_TXN_MANAGER_H_
#define LAZYSI_TXN_TXN_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timestamp.h"
#include "storage/versioned_store.h"
#include "txn/transaction.h"
#include "txn/txn_observer.h"

namespace lazysi {
namespace txn {

/// Local concurrency control providing **strong SI** with the
/// first-committer-wins rule — the contract the paper assumes of every site's
/// DBMS (Section 3: "a local concurrency controller that guarantees strong SI
/// and is deadlock-free").
///
/// Design — pipelined commit with a visibility watermark:
///  - One logical clock issues both start and commit timestamps, so every
///    commit timestamp is larger than all previously issued start/commit
///    timestamps (operational SI definition, Section 2.1).
///  - A transaction reads at `snapshot_ts` = `visible_ts_`, the commit-order
///    visibility watermark: the largest timestamp V such that every commit
///    with commit_ts <= V has finished installing its versions. Because a
///    commit is acknowledged to its client only after the watermark passes
///    its commit timestamp, any transaction beginning after that
///    acknowledgement gets snapshot >= commit(T1) — Definition 2.1's
///    strong-SI requirement — and no snapshot can ever observe a partially
///    installed commit.
///  - Commit runs in four phases. (1) FCW pre-validation against the store,
///    outside any manager lock — a pure early-abort optimization, skipped
///    entirely when nothing has committed since the transaction's snapshot.
///    (2) A tiny critical section under `clock_mu_`: validate, allocate the
///    commit timestamp, and emit the log record — so log order == timestamp
///    order (the invariant Lemmas 3.1-3.3 rest on). (3) Version installation
///    into the sharded store, outside `clock_mu_`, overlapping with other
///    commits' validation and installation. (4) Publish `visible_ts_` in
///    timestamp order and acknowledge.
///  - The under-mutex validation is exact and cheap: per-shard last-commit
///    watermarks skip every key whose shard saw no commit after the
///    transaction's snapshot (the uncontended case costs one array read per
///    key). A racing key is checked against (a) `installing_`, the list of
///    commits whose versions are not yet fully installed — their write sets
///    are readable because a committer only unlists itself, under
///    `clock_mu_`, after its publication — and (b) the store, which is
///    authoritative for every already-unlisted (hence installed) commit.
///  - Purely optimistic, lock-free data access: no waits-for graph exists,
///    so the control is trivially deadlock-free.
class TxnManager {
 public:
  /// `observer` may be nullptr; it is not owned.
  TxnManager(storage::VersionedStore* store, TxnObserver* observer = nullptr);
  ~TxnManager();

  /// Starts a transaction at the latest committed snapshot (the visibility
  /// watermark). Update transactions (read_only = false) emit a start record
  /// to the observer under the timestamp mutex; their snapshot is registered
  /// in the active set atomically with its choice, so the GC horizon can
  /// never pass a snapshot a live transaction reads. Read-only transactions
  /// are dispatched to the lock-free BeginReadOnly path.
  std::unique_ptr<Transaction> Begin(bool read_only = false);

  /// Lock-free read-only begin: the snapshot is the commit watermark, read
  /// with an atomic load — no clock mutex, no clock bump, no log record
  /// (weak SI lets a reader attach to any committed state, and the watermark
  /// *is* the latest fully installed one, so this is still strong SI
  /// locally). The snapshot is pinned in a fixed array of padded atomic
  /// slots with a publish-validate handshake: publish the snapshot (seq_cst
  /// store), then re-load the watermark and re-publish until it is
  /// unchanged. Paired with MinActiveSnapshot — which loads the watermark
  /// *before* scanning the slots, also seq_cst — this guarantees any
  /// concurrently computed GC horizon is <= the pinned snapshot: either the
  /// horizon scan sees the slot, or it ran entirely before the publish, in
  /// which case its watermark load (and hence the horizon) is <= the
  /// validated snapshot by monotonicity of the watermark. Falls back to the
  /// mutex-tracked multiset if all slots are taken. The transaction's
  /// start_ts equals its snapshot (read-only transactions no longer consume
  /// clock ticks; they are invisible to the log and to other sites).
  std::unique_ptr<Transaction> BeginReadOnly();

  /// Starts a *read-only* transaction pinned to the historical snapshot
  /// `snapshot` (time travel over the version chains — weak SI explicitly
  /// allows reading any earlier committed state; the paper's related work
  /// [18, 25] builds exactly this on SI engines). `snapshot` must not
  /// exceed the visibility watermark; versions below the prune horizon may
  /// be gone, in which case reads return NotFound. The snapshot is pinned
  /// in the active set *before* validation so a concurrent GarbageCollect
  /// cannot prune it between the check and the pin; if the snapshot lies
  /// below the store's GC floor the transaction reads under the shard lock
  /// (see VersionedStore's reclamation contract).
  Result<std::unique_ptr<Transaction>> BeginAtSnapshot(Timestamp snapshot);

  /// The visibility watermark: timestamp of the most recent *fully
  /// installed* committed update transaction, i.e. the snapshot new
  /// transactions will see. Every commit acknowledged to a client is at or
  /// below this value.
  Timestamp LatestCommitTs() const {
    return visible_ts_.load(std::memory_order_acquire);
  }

  /// Oldest snapshot any active transaction may read, i.e. the safe version
  /// garbage-collection horizon: versions shadowed by a newer version at or
  /// below this timestamp can never be read again. Equals LatestCommitTs()
  /// when no transaction is active.
  Timestamp MinActiveSnapshot() const;

  /// True when every allocated commit timestamp has finished installing and
  /// the watermark has caught up — i.e. no commit is mid-pipeline. Used by
  /// checkpointing to pick a (state, log position) pair that corresponds to
  /// one database state; with the pipelined commit, the log may briefly hold
  /// commit records whose versions are still installing.
  bool AllCommitsVisible() const {
    std::lock_guard<std::mutex> lock(visible_mu_);
    return inflight_commits_.empty() &&
           visible_ts_.load(std::memory_order_relaxed) ==
               last_allocated_commit_;
  }

  /// --- Externally-ordered commits (the secondary's direct-apply refresh
  /// engine). The caller owns both the global order (timestamps are issued
  /// in its call order) and version installation; FCW validation is skipped
  /// entirely, which is sound only when the caller can prove its commits
  /// never conflict — refresh transactions qualify, because conflicting
  /// primary transactions were never concurrent after FCW at the primary.
  ///
  /// Protocol, per externally-applied transaction:
  ///   1. id = AllocateTxnId()               (once, any thread)
  ///   2. ExternalStart(id)                   (emits the start record)
  ///   3. ts = BeginExternalCommit(id, ws)    (allocates the commit
  ///      timestamp, emits update+commit records and the commit hook,
  ///      stages the commit in the visibility pipeline)
  ///   4. store()->Apply(...)/ApplyBatch(...) (install, any thread)
  ///   5. FinishExternalCommit(ts)            (publish visibility)
  /// `ws` must stay alive and unmodified until step 5 returns: until then
  /// concurrent validators may read it through the installing list.
  /// Between steps 3 and 5 the versions may be installed out of order
  /// relative to other external commits; the visibility watermark only
  /// advances over the fully installed prefix, so no snapshot ever observes
  /// a torn or out-of-order state.

  /// Reserves a fresh local transaction id without starting a transaction.
  TxnId AllocateTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Emits a start record for an externally-applied transaction: allocates a
  /// start timestamp under the clock mutex and notifies the observer, so the
  /// local log preserves the start/commit interleaving of the origin site
  /// (Lemmas 3.1-3.2 read the refresh schedule off this log).
  Timestamp ExternalStart(TxnId id);

  /// Emits an abort record for an externally-applied transaction that will
  /// never commit (the origin site aborted it).
  void ExternalAbort(TxnId id);

  /// Step 3 of the protocol above. Returns the allocated commit timestamp.
  Timestamp BeginExternalCommit(TxnId id, const storage::WriteSet& writes);

  /// One element of a batched step 3: an externally-applied transaction and
  /// its write set (same lifetime contract as BeginExternalCommit's `ws`).
  struct ExternalCommitRequest {
    TxnId id = kInvalidTxnId;
    const storage::WriteSet* writes = nullptr;
  };

  /// Batched step 3: allocates commit timestamps for a *run* of external
  /// commits under a single clock-mutex hold (and stages them in the
  /// visibility pipeline under a single visible-mutex hold), instead of one
  /// lock round-trip per commit. Timestamps are issued in `batch` order, so
  /// the caller's order is the commit order — the secondary's replay
  /// sequencer passes runs of consecutive primary commits here, keeping its
  /// ordered section as small as one mutex acquisition per run. Returns the
  /// allocated timestamps, index-aligned with `batch`.
  std::vector<Timestamp> BeginExternalCommitBatch(
      const std::vector<ExternalCommitRequest>& batch);

  /// Step 5: marks `commit_ts` installed, advances the visibility watermark
  /// over the installed prefix and unlists the commit. Never blocks (unlike
  /// the client commit path there is no per-transaction acknowledgement to
  /// order). Returns the new watermark, which may cover later external
  /// commits finished out of order by other threads.
  Timestamp FinishExternalCommit(Timestamp commit_ts);

  /// Durability gate: when set, CommitTxn blocks *after* watermark
  /// publication — the commit is installed and visible — until the gate
  /// returns, i.e. until the commit's log record is durable under the
  /// configured fsync policy. Because log order == timestamp order, gate
  /// waits resolve in commit order: N concurrent committers parked on the
  /// same flushed-LSN watermark are released by one shared fsync (group
  /// commit). A non-OK gate status is surfaced to the client, which must
  /// treat the commit's durability as unknown.
  void SetDurabilityGate(std::function<Status(Timestamp)> gate) {
    durability_gate_ = std::move(gate);
  }

  /// Recovery seeding for a *fresh* manager (no transaction may have run
  /// yet): restores the logical clock, the visibility watermark (= the
  /// newest restored commit timestamp) and the transaction-id counter, so
  /// post-restart timestamps and ids continue the pre-crash sequences.
  void ResetForRecovery(Timestamp clock, Timestamp visible, TxnId next_txn_id);

  /// Total committed update transactions (used by tests and stats).
  std::uint64_t CommittedCount() const {
    return committed_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t AbortedCount() const {
    return aborted_count_.load(std::memory_order_relaxed);
  }

  storage::VersionedStore* store() { return store_; }

 private:
  friend class Transaction;

  /// Commit protocol; called by Transaction::Commit.
  Status CommitTxn(Transaction* t);
  /// Abort path; called by Transaction::Abort and failed commits.
  void AbortTxn(Transaction* t);

  void NotifyUpdate(TxnId id, const std::string& key,
                    const storage::Value& value, bool deleted);

  /// Registers `commit_ts` as allocated-but-not-yet-installed. Caller holds
  /// clock_mu_; takes visible_mu_ (lock order: clock_mu_ -> visible_mu_).
  void StageInflightCommit(Timestamp commit_ts);

  /// Marks `commit_ts` installed, advances the visibility watermark as far
  /// as the in-flight set allows, blocks until the watermark reaches
  /// `commit_ts` — commits become visible, and are acknowledged, strictly
  /// in timestamp order — and finally removes the commit from `installing_`.
  void PublishCommit(Timestamp commit_ts);

  storage::VersionedStore* store_;
  TxnObserver* observer_;
  std::function<Status(Timestamp)> durability_gate_;

  /// Guards the logical clock, the FCW validation state and the observer's
  /// OnStart/OnCommit (keeping log order == timestamp order). Version
  /// installation happens *outside* this mutex.
  std::mutex clock_mu_;
  Timestamp clock_ = 0;
  /// Per-store-shard timestamp of the newest commit that wrote a key in the
  /// shard. Lets validation skip shards (and thus keys) untouched since the
  /// transaction's snapshot.
  std::vector<Timestamp> shard_last_commit_;
  /// Commits whose versions may not all be installed yet, with a view of
  /// their write sets. An entry is appended when the commit timestamp is
  /// allocated and removed — only by its owner, only after its publication —
  /// at the end of PublishCommit; the owning Transaction outlives the entry,
  /// so `writes` is always safe to read under clock_mu_. Validation needs
  /// the list because the store cannot answer for commits that have not
  /// finished installing.
  struct PendingInstall {
    Timestamp commit_ts;
    const storage::WriteSet* writes;
  };
  std::vector<PendingInstall> installing_;

  /// Commit timestamps allocated but not yet fully installed, and the
  /// watermark-publication plumbing. Commits are staged in timestamp order
  /// (staging happens under clock_mu_ right after allocation), so the deque
  /// is always sorted; the watermark advances over the installed prefix.
  mutable std::mutex visible_mu_;
  std::condition_variable visible_cv_;
  struct InflightCommit {
    Timestamp ts;
    bool installed;
  };
  std::deque<InflightCommit> inflight_commits_;
  Timestamp last_allocated_commit_ = 0;

  /// Snapshots of in-flight transactions, for the GC horizon — two tiers.
  ///
  /// Tier 1 (lock-free, the read-only hot path): a chain of fixed-size banks
  /// of cache-line-padded atomic slots. A free slot holds kFreeSlot (= max
  /// timestamp, so it never lowers a min-scan); claiming is a CAS from
  /// kFreeSlot guided by a thread-local hint, releasing is a plain store.
  /// When every slot in every bank is taken, the claimer allocates a fresh
  /// bank with its snapshot pre-written into slot 0 and links it at the
  /// chain tail with a seq_cst CAS — the link *is* the slot's publication,
  /// so begins never fall off the lock-free path no matter how many
  /// read-only sessions are live. Banks are never unlinked (16 KiB apiece;
  /// a burst of N concurrent readers permanently sizes the chain for N,
  /// which is the steady state that produced the burst). All slot, link and
  /// watermark accesses on this path are seq_cst; the publish-validate
  /// handshake (see BeginReadOnly) makes a concurrently computed horizon
  /// always <= any pinned snapshot, and a horizon scan that misses a
  /// just-linked bank precedes the link in the seq_cst order, so its
  /// watermark load bounds it the same way a missed slot store does.
  ///
  /// Tier 2 (mutex-guarded multiset): update transactions, whose Begin
  /// already serializes on the clock mutex for the start record. Begin loads
  /// the watermark and registers it under active_mu_ in one step, so a
  /// concurrently computed horizon either includes the new snapshot or
  /// predates it.
  static constexpr Timestamp kFreeSlot = ~Timestamp{0};
  static constexpr std::size_t kSlotsPerBank = 256;
  struct alignas(64) ActiveSlot {
    std::atomic<Timestamp> ts{kFreeSlot};
  };
  struct SlotBank {
    std::array<ActiveSlot, kSlotsPerBank> slots;
    std::atomic<SlotBank*> next{nullptr};
  };
  /// Head of the bank chain (inline; extra banks are heap-allocated and
  /// freed only in the destructor).
  SlotBank first_bank_;
  std::atomic<std::size_t> bank_count_{1};
  /// Claims a slot pinned to the (validated) current watermark; writes the
  /// snapshot. Grows the chain when full — never fails.
  std::atomic<Timestamp>* ClaimReadSlot(Timestamp* snapshot);
  /// Claims a slot pinned to an explicit historical snapshot; grows when
  /// full — never fails.
  std::atomic<Timestamp>* ClaimHistoricalSlot(Timestamp snapshot);
  /// Probes every existing bank for a free slot, CASing `value` in; nullptr
  /// when all are occupied. Writes the bank chain tail to *tail.
  std::atomic<Timestamp>* TryClaimExisting(Timestamp value, SlotBank** tail);
  /// Allocates and links a fresh bank whose slot 0 holds `value`; returns
  /// that slot, or nullptr if another thread linked a bank first (retry the
  /// probe).
  std::atomic<Timestamp>* GrowBank(Timestamp value, SlotBank* tail);
  /// Frees the transaction's slot, or untracks from the multiset.
  void ReleaseSnapshot(Transaction* t);

 public:
  /// Number of reader-slot banks ever linked (monitoring; growth test).
  std::size_t slot_bank_count() const {
    return bank_count_.load(std::memory_order_relaxed);
  }

 private:

  mutable std::mutex active_mu_;
  std::multiset<Timestamp> active_snapshots_;
  /// Atomically picks the current watermark as a snapshot and tracks it.
  Timestamp TrackActiveAtWatermark();
  void TrackActive(Timestamp snapshot);
  void UntrackActive(Timestamp snapshot);

  std::atomic<Timestamp> visible_ts_{0};
  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<std::uint64_t> committed_count_{0};
  std::atomic<std::uint64_t> aborted_count_{0};
};

}  // namespace txn
}  // namespace lazysi

#endif  // LAZYSI_TXN_TXN_MANAGER_H_
