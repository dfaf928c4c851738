#include "txn/txn_manager.h"

#include <cassert>
#include <functional>
#include <thread>

namespace lazysi {
namespace txn {

TxnManager::TxnManager(storage::VersionedStore* store, TxnObserver* observer)
    : store_(store),
      observer_(observer),
      shard_last_commit_(store->shard_count(), kInvalidTimestamp) {}

TxnManager::~TxnManager() {
  // Banks beyond the inline first one were heap-allocated by GrowBank; no
  // transaction may outlive the manager, so no slot pointer dangles.
  SlotBank* bank = first_bank_.next.load(std::memory_order_acquire);
  while (bank != nullptr) {
    SlotBank* next = bank->next.load(std::memory_order_acquire);
    delete bank;
    bank = next;
  }
}

std::unique_ptr<Transaction> TxnManager::Begin(bool read_only) {
  if (read_only) return BeginReadOnly();
  const TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  Timestamp start_ts;
  Timestamp snapshot;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    // The start timestamp advances the clock so that start/commit order is
    // totally ordered and log order can mirror it.
    start_ts = ++clock_;
    if (observer_ != nullptr) {
      observer_->OnStart(id, start_ts);
    }
    // Strong SI: the snapshot is the latest fully installed committed state
    // (Definition 2.1). It must be chosen in the *same* critical section
    // that emits the start record: commit records are also emitted under
    // clock_mu_, so a commit precedes this start record in the log iff its
    // timestamp is visible to this snapshot. The secondary's refresher
    // depends on exactly that equivalence — it derives each refresh
    // transaction's snapshot point from log order (Algorithm 3.2), and a
    // snapshot taken outside the critical section could include a commit
    // whose log record follows the start record, making two transactions
    // look concurrent at the secondary that were not concurrent here.
    // Tracked atomically with its choice so the GC horizon can never pass
    // it (lock order: clock_mu_ -> active_mu_).
    snapshot = TrackActiveAtWatermark();
  }
  return std::unique_ptr<Transaction>(
      new Transaction(this, id, start_ts, snapshot, read_only));
}

std::unique_ptr<Transaction> TxnManager::BeginReadOnly() {
  const TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  Timestamp snapshot;
  std::atomic<Timestamp>* slot = ClaimReadSlot(&snapshot);
  auto* t = new Transaction(this, id, /*start_ts=*/snapshot, snapshot,
                            /*read_only=*/true);
  t->active_slot_ = slot;
  return std::unique_ptr<Transaction>(t);
}

std::atomic<Timestamp>* TxnManager::TryClaimExisting(Timestamp value,
                                                     SlotBank** tail) {
  // Thread-local probe hint: repeat callers from the same thread land on
  // "their" slot with one CAS and never share a cache line with neighbours.
  thread_local std::size_t hint =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  SlotBank* bank = &first_bank_;
  for (;;) {
    for (std::size_t probe = 0; probe < kSlotsPerBank; ++probe) {
      const std::size_t idx = (hint + probe) & (kSlotsPerBank - 1);
      std::atomic<Timestamp>& slot = bank->slots[idx].ts;
      Timestamp expected = kFreeSlot;
      if (slot.compare_exchange_strong(expected, value,
                                       std::memory_order_seq_cst)) {
        hint = idx;
        return &slot;
      }
    }
    SlotBank* next = bank->next.load(std::memory_order_seq_cst);
    if (next == nullptr) {
      *tail = bank;
      return nullptr;
    }
    bank = next;
  }
}

std::atomic<Timestamp>* TxnManager::GrowBank(Timestamp value, SlotBank* tail) {
  // Slot 0 is pre-claimed before the bank is reachable; the seq_cst link CAS
  // is the slot's publication (the same role the claiming CAS plays for an
  // existing slot in the scan order argument — see MinActiveSnapshot).
  auto* fresh = new SlotBank;
  fresh->slots[0].ts.store(value, std::memory_order_relaxed);
  SlotBank* expected = nullptr;
  if (tail->next.compare_exchange_strong(expected, fresh,
                                         std::memory_order_seq_cst)) {
    bank_count_.fetch_add(1, std::memory_order_relaxed);
    return &fresh->slots[0].ts;
  }
  // Another thread linked a bank first; its slots are fair game — retry the
  // probe instead.
  delete fresh;
  return nullptr;
}

std::atomic<Timestamp>* TxnManager::ClaimReadSlot(Timestamp* snapshot) {
  std::atomic<Timestamp>* slot = nullptr;
  Timestamp s = visible_ts_.load(std::memory_order_seq_cst);
  while (slot == nullptr) {
    SlotBank* tail = nullptr;
    slot = TryClaimExisting(s, &tail);
    if (slot == nullptr) slot = GrowBank(s, tail);
  }
  // Publish-validate: the watermark may have advanced between our load
  // and the publication, in which case a concurrent MinActiveSnapshot
  // could have scanned before our publish *and* loaded the newer
  // watermark — its horizon might exceed s. Re-publishing until the
  // watermark is stable closes the window: once it validates, any
  // horizon computed before our publish loaded a watermark <= s (the
  // watermark is monotone and still s after our publish), and any
  // computed after sees the slot.
  for (;;) {
    const Timestamp now = visible_ts_.load(std::memory_order_seq_cst);
    if (now == s) break;
    s = now;
    slot->store(s, std::memory_order_seq_cst);
  }
  *snapshot = s;
  return slot;
}

std::atomic<Timestamp>* TxnManager::ClaimHistoricalSlot(Timestamp snapshot) {
  for (;;) {
    SlotBank* tail = nullptr;
    std::atomic<Timestamp>* slot = TryClaimExisting(snapshot, &tail);
    if (slot == nullptr) slot = GrowBank(snapshot, tail);
    if (slot != nullptr) return slot;
  }
}

void TxnManager::ReleaseSnapshot(Transaction* t) {
  if (t->active_slot_ != nullptr) {
    // Release ordering: the reader's chain traversals happen-before the
    // slot frees, so a GC that sees the free slot also sees the reads done.
    t->active_slot_->store(kFreeSlot, std::memory_order_release);
    t->active_slot_ = nullptr;
    return;
  }
  UntrackActive(t->snapshot_ts());
}

Result<std::unique_ptr<Transaction>> TxnManager::BeginAtSnapshot(
    Timestamp snapshot) {
  // Pin the snapshot before validating it: pinning first means any GC
  // horizon computed from now on is capped at `snapshot`, closing the race
  // where GarbageCollect pruned the snapshot between the visibility check
  // and the pin.
  std::atomic<Timestamp>* slot = ClaimHistoricalSlot(snapshot);
  auto untrack = [&] { slot->store(kFreeSlot, std::memory_order_release); };
  if (snapshot > visible_ts_.load(std::memory_order_seq_cst)) {
    untrack();
    return Status::InvalidArgument(
        "snapshot is in the future of this site's committed state");
  }
  // Floor check strictly after the pin (seq_cst on both sides): either the
  // pruner's horizon scan saw our pin (horizon <= snapshot, lock-free reads
  // are covered), or we see its raised floor here and demote every read to
  // the locked path, which a concurrent prune excludes via the shard lock.
  const bool locked_reads = snapshot < store_->gc_floor();
  const TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto* t = new Transaction(this, id, snapshot, snapshot, /*read_only=*/true);
  t->active_slot_ = slot;
  t->locked_reads_ = locked_reads;
  return std::unique_ptr<Transaction>(t);
}

Timestamp TxnManager::TrackActiveAtWatermark() {
  std::lock_guard<std::mutex> lock(active_mu_);
  const Timestamp snapshot = visible_ts_.load(std::memory_order_acquire);
  active_snapshots_.insert(snapshot);
  return snapshot;
}

void TxnManager::TrackActive(Timestamp snapshot) {
  std::lock_guard<std::mutex> lock(active_mu_);
  active_snapshots_.insert(snapshot);
}

void TxnManager::UntrackActive(Timestamp snapshot) {
  std::lock_guard<std::mutex> lock(active_mu_);
  auto it = active_snapshots_.find(snapshot);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
}

Timestamp TxnManager::MinActiveSnapshot() const {
  // Watermark first, slots second, both seq_cst: this is the counterpart of
  // the readers' publish-validate (see BeginReadOnly). A reader whose slot
  // this scan misses must have published after the scan started, and its
  // validated snapshot is then >= the watermark loaded here, so the
  // returned horizon cannot exceed it. The same argument covers a whole
  // missed bank: the seq_cst link CAS is the publication of its pre-claimed
  // slot, so a scan whose null `next` load precedes the link also loaded
  // the watermark before the claimer validated. Free slots hold kFreeSlot
  // (= max) and never lower the min.
  Timestamp m = visible_ts_.load(std::memory_order_seq_cst);
  for (const SlotBank* bank = &first_bank_; bank != nullptr;
       bank = bank->next.load(std::memory_order_seq_cst)) {
    for (const ActiveSlot& slot : bank->slots) {
      const Timestamp s = slot.ts.load(std::memory_order_seq_cst);
      if (s < m) m = s;
    }
  }
  std::lock_guard<std::mutex> lock(active_mu_);
  if (!active_snapshots_.empty()) {
    m = std::min(m, *active_snapshots_.begin());
  }
  return m;
}

void TxnManager::StageInflightCommit(Timestamp commit_ts) {
  std::lock_guard<std::mutex> lock(visible_mu_);
  inflight_commits_.push_back(InflightCommit{commit_ts, /*installed=*/false});
  last_allocated_commit_ = commit_ts;
}

void TxnManager::PublishCommit(Timestamp commit_ts) {
  {
    std::unique_lock<std::mutex> lock(visible_mu_);
    for (auto& inflight : inflight_commits_) {
      if (inflight.ts == commit_ts) {
        inflight.installed = true;
        break;
      }
    }
    // The watermark advances over the fully installed prefix: everything up
    // to the oldest still-installing commit is safe to expose to snapshots.
    Timestamp new_visible = visible_ts_.load(std::memory_order_relaxed);
    while (!inflight_commits_.empty() && inflight_commits_.front().installed) {
      new_visible = inflight_commits_.front().ts;
      inflight_commits_.pop_front();
    }
    if (new_visible > visible_ts_.load(std::memory_order_relaxed)) {
      visible_ts_.store(new_visible, std::memory_order_release);
      visible_cv_.notify_all();
    }
    // Acknowledge in timestamp order: the client may not learn of the commit
    // until every earlier commit is also visible, so a snapshot taken after
    // this return includes this commit (strong SI) and never a partial one.
    visible_cv_.wait(lock, [&] {
      return visible_ts_.load(std::memory_order_relaxed) >= commit_ts;
    });
  }
  // Unlist from `installing_` strictly after publication: while the entry is
  // present, validators may read our write set (the transaction is alive,
  // since CommitTxn has not returned); once removed, the store answers for
  // us, because our versions are installed and visible.
  std::lock_guard<std::mutex> lock(clock_mu_);
  for (auto it = installing_.begin(); it != installing_.end(); ++it) {
    if (it->commit_ts == commit_ts) {
      installing_.erase(it);
      break;
    }
  }
}

Timestamp TxnManager::ExternalStart(TxnId id) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  const Timestamp start_ts = ++clock_;
  if (observer_ != nullptr) observer_->OnStart(id, start_ts);
  return start_ts;
}

void TxnManager::ExternalAbort(TxnId id) {
  aborted_count_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    observer_->OnAbort(id);
  }
}

Timestamp TxnManager::BeginExternalCommit(TxnId id,
                                          const storage::WriteSet& writes) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  const Timestamp commit_ts = ++clock_;
  // The local log must carry the update records (cascaded propagators tail
  // it), and validation of any concurrent local update transaction must see
  // this commit: bump the per-shard watermarks and list the write set as
  // installing. Emitting everything inside one clock_mu_ critical section
  // keeps log order == timestamp order, the invariant every lemma rests on.
  for (const auto& [key, w] : writes.entries()) {
    shard_last_commit_[store_->ShardOf(key)] = commit_ts;
    if (observer_ != nullptr) {
      observer_->OnUpdate(id, key, w.value, w.deleted);
    }
  }
  installing_.push_back(PendingInstall{commit_ts, &writes});
  if (observer_ != nullptr) observer_->OnCommit(id, commit_ts, writes);
  StageInflightCommit(commit_ts);
  return commit_ts;
}

std::vector<Timestamp> TxnManager::BeginExternalCommitBatch(
    const std::vector<ExternalCommitRequest>& batch) {
  std::vector<Timestamp> allocated;
  allocated.reserve(batch.size());
  if (batch.empty()) return allocated;
  std::lock_guard<std::mutex> lock(clock_mu_);
  for (const ExternalCommitRequest& req : batch) {
    const Timestamp commit_ts = ++clock_;
    for (const auto& [key, w] : req.writes->entries()) {
      shard_last_commit_[store_->ShardOf(key)] = commit_ts;
      if (observer_ != nullptr) {
        observer_->OnUpdate(req.id, key, w.value, w.deleted);
      }
    }
    installing_.push_back(PendingInstall{commit_ts, req.writes});
    if (observer_ != nullptr) observer_->OnCommit(req.id, commit_ts, *req.writes);
    allocated.push_back(commit_ts);
  }
  // Stage the whole run in the visibility pipeline under one visible_mu_
  // hold. Staging is normally interleaved with allocation (StageInflightCommit
  // under clock_mu_), but clock_mu_ is held across the entire loop above, so
  // no other commit can have been allocated in between and appending the run
  // here keeps the inflight deque sorted by timestamp.
  {
    std::lock_guard<std::mutex> visible_lock(visible_mu_);
    for (const Timestamp ts : allocated) {
      inflight_commits_.push_back(InflightCommit{ts, /*installed=*/false});
    }
    last_allocated_commit_ = allocated.back();
  }
  return allocated;
}

Timestamp TxnManager::FinishExternalCommit(Timestamp commit_ts) {
  Timestamp new_visible;
  {
    std::lock_guard<std::mutex> lock(visible_mu_);
    for (auto& inflight : inflight_commits_) {
      if (inflight.ts == commit_ts) {
        inflight.installed = true;
        break;
      }
    }
    new_visible = visible_ts_.load(std::memory_order_relaxed);
    while (!inflight_commits_.empty() && inflight_commits_.front().installed) {
      new_visible = inflight_commits_.front().ts;
      inflight_commits_.pop_front();
    }
    if (new_visible > visible_ts_.load(std::memory_order_relaxed)) {
      visible_ts_.store(new_visible, std::memory_order_release);
      visible_cv_.notify_all();
    }
  }
  // Unlist after installation (the caller installed before calling us): from
  // here the store is authoritative for this commit's writes, visible or not
  // — HasCommitAfter reads raw chains, not snapshots.
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    for (auto it = installing_.begin(); it != installing_.end(); ++it) {
      if (it->commit_ts == commit_ts) {
        installing_.erase(it);
        break;
      }
    }
  }
  committed_count_.fetch_add(1, std::memory_order_relaxed);
  return new_visible;
}

void TxnManager::ResetForRecovery(Timestamp clock, Timestamp visible,
                                  TxnId next_txn_id) {
  std::lock_guard<std::mutex> clock_lock(clock_mu_);
  std::lock_guard<std::mutex> visible_lock(visible_mu_);
  clock_ = clock;
  visible_ts_.store(visible, std::memory_order_release);
  last_allocated_commit_ = visible;
  next_txn_id_.store(next_txn_id, std::memory_order_relaxed);
}

Status TxnManager::CommitTxn(Transaction* t) {
  assert(t->state() == Transaction::State::kActive);
  if (t->write_set().empty()) {
    // Read-only (or empty) commit: no validation, no new database state.
    // Update-declared transactions still emit a commit record so their
    // refresh transactions at the secondaries are resolved; they go through
    // the same ordered watermark publication as real commits.
    if (!t->read_only()) {
      Timestamp commit_ts;
      {
        std::lock_guard<std::mutex> lock(clock_mu_);
        commit_ts = ++clock_;
        t->commit_ts_ = commit_ts;
        if (observer_ != nullptr) {
          observer_->OnCommit(t->id(), commit_ts, t->write_set());
        }
        StageInflightCommit(commit_ts);
      }
      PublishCommit(commit_ts);
      committed_count_.fetch_add(1, std::memory_order_relaxed);
      if (durability_gate_) {
        Status durable = durability_gate_(commit_ts);
        if (!durable.ok()) {
          t->state_ = Transaction::State::kCommitted;
          ReleaseSnapshot(t);
          return durable;
        }
      }
    }
    t->state_ = Transaction::State::kCommitted;
    ReleaseSnapshot(t);
    return Status::OK();
  }

  // Phase 1 — FCW pre-validation (Section 2.1), against the installed
  // history and without holding any manager lock: T aborts iff some
  // committed transaction whose lifespan overlapped T's wrote a key T also
  // wrote. "Committed with commit_ts > snapshot(T)" is exactly lifespan
  // overlap, since anything committed before the snapshot is in T's
  // snapshot. This pass is a pure early abort — phase 2 is complete on its
  // own — so it is skipped outright when nothing has committed since T's
  // snapshot (the uncontended fast path).
  if (visible_ts_.load(std::memory_order_acquire) != t->snapshot_ts()) {
    for (const auto& [key, w] : t->write_set().entries()) {
      if (store_->HasCommitAfter(key, t->snapshot_ts())) {
        AbortTxn(t);
        return Status::WriteConflict(
            "key '" + key + "' written by a concurrent committed txn");
      }
    }
  }

  Timestamp commit_ts = kInvalidTimestamp;
  std::string conflict_key;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    // Phase 2 — exact validation, then timestamp allocation and log
    // emission. The per-shard watermark skips every key whose shard saw no
    // commit after T's snapshot — one array read per key, the whole cost
    // when uncontended. A racing key is conflict-checked against the
    // still-installing commits' write sets and, for commits already
    // installed and unlisted, against the store.
    for (const auto& [key, w] : t->write_set().entries()) {
      if (shard_last_commit_[store_->ShardOf(key)] <= t->snapshot_ts()) {
        continue;
      }
      for (const PendingInstall& pending : installing_) {
        if (pending.commit_ts > t->snapshot_ts() &&
            pending.writes->Find(key) != nullptr) {
          conflict_key = key;
          break;
        }
      }
      if (conflict_key.empty() &&
          store_->HasCommitAfter(key, t->snapshot_ts())) {
        conflict_key = key;
      }
      if (!conflict_key.empty()) break;
    }
    if (conflict_key.empty()) {
      commit_ts = ++clock_;
      for (const auto& [key, w] : t->write_set().entries()) {
        shard_last_commit_[store_->ShardOf(key)] = commit_ts;
      }
      installing_.push_back(PendingInstall{commit_ts, &t->write_set()});
      t->commit_ts_ = commit_ts;
      if (observer_ != nullptr) {
        observer_->OnCommit(t->id(), commit_ts, t->write_set());
      }
      StageInflightCommit(commit_ts);
    }
  }
  if (!conflict_key.empty()) {
    AbortTxn(t);
    return Status::WriteConflict("key '" + conflict_key +
                                 "' written by a concurrent committed txn");
  }

  // Phase 3 — version installation, outside the critical section and
  // overlapping with other commits. FCW guarantees no two in-flight
  // installations share a key, so per-key chains still grow in timestamp
  // order.
  store_->Apply(t->write_set(), commit_ts);

  // Phase 4 — publish visibility in timestamp order and acknowledge. The
  // durability gate then holds the acknowledgement until the commit's log
  // record is flushed (group commit shares one fsync across all committers
  // parked here).
  PublishCommit(commit_ts);
  committed_count_.fetch_add(1, std::memory_order_relaxed);
  t->state_ = Transaction::State::kCommitted;
  ReleaseSnapshot(t);
  if (durability_gate_) {
    LAZYSI_RETURN_NOT_OK(durability_gate_(commit_ts));
  }
  return Status::OK();
}

void TxnManager::AbortTxn(Transaction* t) {
  if (t->state() != Transaction::State::kActive) return;
  t->state_ = Transaction::State::kAborted;
  ReleaseSnapshot(t);
  if (!t->read_only()) {
    // Only update-transaction aborts are interesting (FCW losers and client
    // rollbacks); dropped read-only handles are routine.
    aborted_count_.fetch_add(1, std::memory_order_relaxed);
    if (observer_ != nullptr) observer_->OnAbort(t->id());
  }
}

void TxnManager::NotifyUpdate(TxnId id, const std::string& key,
                              const storage::Value& value, bool deleted) {
  if (observer_ != nullptr) {
    observer_->OnUpdate(id, key, value, deleted);
  }
}

}  // namespace txn
}  // namespace lazysi
