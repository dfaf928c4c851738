#include "replication/secondary.h"

#include <algorithm>

#include "common/logging.h"

namespace lazysi {
namespace replication {

Secondary::Secondary(engine::Database* db, SecondaryOptions options)
    : db_(db), options_(options) {
  if (options_.applicator_threads == 0) options_.applicator_threads = 1;
  if (options_.group_apply_limit == 0) options_.group_apply_limit = 1;
  parallel_engine_ = options_.direct_apply && options_.decode_threads > 0;
  // Publish the local->primary commit-timestamp translation atomically with
  // version visibility (the hook runs under the engine's timestamp mutex),
  // so any reader whose snapshot includes a refresh commit can translate it.
  db_->SetCommitHook([this](TxnId local_txn, Timestamp local_commit_ts) {
    std::unique_lock lock(translate_mu_);
    auto it = pending_translation_.find(local_txn);
    if (it != pending_translation_.end()) {
      local_to_primary_[local_commit_ts] = it->second;
      // Refresh commits allocate local timestamps in primary-commit order,
      // so appending here keeps the deque ascending in both coordinates.
      primary_local_order_.emplace_back(it->second, local_commit_ts);
      pending_translation_.erase(it);
    }
  });
}

Secondary::~Secondary() { Stop(); }

void Secondary::Start() {
  if (started_) return;
  started_ = true;
  // A restart after Stop() finds every queue closed; reopen them so the new
  // threads actually run instead of exiting immediately while started_
  // claims the site is live. Records broadcast while stopped were dropped by
  // the closed update queue (Section 3.4's failure model) — replication
  // resumes from the next record the propagator pushes.
  update_queue_.Reopen();
  tasks_.Reopen();
  direct_tasks_.Reopen();
  pending_queue_.Reopen();
  decode_queue_.Reopen();
  reorder_.Reset();
  scheduler_.Reopen();
  applicators_.reserve(options_.applicator_threads);
  if (parallel_engine_) {
    refresher_ = std::thread([this] { IngestLoop(); });
    decoders_.reserve(options_.decode_threads);
    for (std::size_t i = 0; i < options_.decode_threads; ++i) {
      decoders_.emplace_back([this] { DecodeLoop(); });
    }
    sequencer_ = std::thread([this] { SequencerLoop(); });
    for (std::size_t i = 0; i < options_.applicator_threads; ++i) {
      applicators_.emplace_back([this] { ParallelApplicatorLoop(); });
    }
    return;
  }
  refresher_ = std::thread([this] { RefresherLoop(); });
  for (std::size_t i = 0; i < options_.applicator_threads; ++i) {
    if (options_.direct_apply) {
      applicators_.emplace_back([this] { DirectApplicatorLoop(); });
    } else {
      applicators_.emplace_back([this] { ApplicatorLoop(); });
    }
  }
}

void Secondary::Stop() {
  if (!started_) return;
  update_queue_.Close();
  refresher_.join();
  if (parallel_engine_) {
    // Stage-by-stage shutdown, upstream first, each stage fully drained
    // before the next closes. Nothing past ingest may be dropped: a decoded
    // commit the sequencer already allocated has its commit record in the
    // local log, and abandoning its installation would wedge the visibility
    // watermark below it forever. Draining in stage order also means the
    // reorder buffer holds a gapless set when the sequencer does its final
    // pops, so the contiguous-prefix pop empties it completely.
    decode_queue_.Close();
    for (auto& t : decoders_) t.join();
    decoders_.clear();
    reorder_.Close();
    sequencer_.join();
    scheduler_.Close();
    for (auto& t : applicators_) t.join();
    applicators_.clear();
    direct_txns_.clear();
    started_ = false;
    return;
  }
  tasks_.Close();
  direct_tasks_.Close();
  pending_queue_.Close();
  // Legacy applicators abort whatever WaitHead hands back after the close;
  // direct applicators instead drain direct_tasks_ completely (Pop after
  // Close returns queued items), because every queued task's commit record
  // and timestamp are already published and skipping its installation would
  // wedge the visibility watermark below it forever.
  for (auto& t : applicators_) t.join();
  applicators_.clear();
  refresh_txns_.clear();  // aborts leftovers via RAII
  direct_txns_.clear();
  started_ = false;
}

bool Secondary::WaitForSeq(Timestamp seq,
                           std::chrono::milliseconds timeout) const {
  if (applied_seq() >= seq) return true;
  std::unique_lock<std::mutex> lock(seq_mu_);
  return seq_cv_.wait_for(lock, timeout, [&] { return applied_seq() >= seq; });
}

void Secondary::InitializeSeq(Timestamp seq, Timestamp local_install_ts) {
  {
    std::unique_lock lock(translate_mu_);
    local_to_primary_[local_install_ts] = seq;
    // A checkpoint install contains *all* primary commits <= seq, so the
    // (seq, install) pair is a valid bound entry for every snapshot at or
    // below it.
    primary_local_order_.emplace_back(seq, local_install_ts);
  }
  AdvanceSeq(seq);
}

void Secondary::StageSnapshotRow(const std::string& key,
                                 storage::Value value) {
  if (!snapshot_txn_) snapshot_txn_ = db_->Begin();
  (void)snapshot_txn_->Put(key, std::move(value));
}

Status Secondary::CommitSnapshot(Timestamp as_of) {
  if (!snapshot_txn_) {
    // An empty primary state: the empty local state at the current
    // watermark is its image.
    InitializeSeq(as_of, db_->LatestCommitTs());
    return Status::OK();
  }
  std::unique_ptr<txn::Transaction> txn = std::move(snapshot_txn_);
  LAZYSI_RETURN_NOT_OK(txn->Commit());
  InitializeSeq(as_of, txn->commit_ts());
  return Status::OK();
}

void Secondary::AbandonSnapshot() {
  if (snapshot_txn_) snapshot_txn_->Abort();
  snapshot_txn_.reset();
}

Timestamp Secondary::TranslateLocalToPrimary(Timestamp local_ts) const {
  std::shared_lock lock(translate_mu_);
  auto it = local_to_primary_.find(local_ts);
  return it == local_to_primary_.end() ? kInvalidTimestamp : it->second;
}

std::size_t Secondary::PruneTranslations(Timestamp primary_horizon) {
  std::unique_lock lock(translate_mu_);
  std::size_t erased = 0;
  for (auto it = local_to_primary_.begin(); it != local_to_primary_.end();) {
    if (it->second < primary_horizon) {
      it = local_to_primary_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  // Trim the bound deque too, but keep the newest entry below the horizon as
  // a boundary sentinel: a snapshot between that entry and the horizon still
  // resolves to the exact local bound (only per-version translation below
  // the horizon becomes approximate).
  while (primary_local_order_.size() >= 2 &&
         primary_local_order_[1].first < primary_horizon) {
    primary_local_order_.pop_front();
  }
  return erased;
}

Timestamp Secondary::PrimaryPrefixAtLocal(Timestamp local_snapshot_ts) const {
  std::shared_lock lock(translate_mu_);
  // Last refresh commit with local ts <= the snapshot; both coordinates
  // ascend, so binary search on the local coordinate is valid.
  auto it = std::upper_bound(
      primary_local_order_.begin(), primary_local_order_.end(),
      local_snapshot_ts,
      [](Timestamp ls, const std::pair<Timestamp, Timestamp>& e) {
        return ls < e.second;
      });
  if (it == primary_local_order_.begin()) return 0;
  return std::prev(it)->first;
}

Result<Timestamp> Secondary::LocalBoundForPrimary(
    Timestamp primary_snapshot) const {
  std::shared_lock lock(translate_mu_);
  auto it = std::upper_bound(
      primary_local_order_.begin(), primary_local_order_.end(),
      primary_snapshot,
      [](Timestamp ps, const std::pair<Timestamp, Timestamp>& e) {
        return ps < e.first;
      });
  if (it == primary_local_order_.begin()) {
    if (primary_local_order_.empty()) {
      // No refresh commit ever: the empty local prefix is the exact image of
      // every primary prefix this replica has applied (none).
      return Timestamp(0);
    }
    return Status::FailedPrecondition(
        "primary snapshot below the translation-prune horizon");
  }
  return std::prev(it)->second;
}

Result<Secondary::RemoteRead> Secondary::ReadAtPrimarySnapshot(
    const std::string& key, Timestamp primary_snapshot) {
  if (applied_seq() < primary_snapshot) {
    return Status::Unavailable(
        "secondary has not applied the requested snapshot prefix");
  }
  // applied_seq >= snapshot means every refresh commit with primary ts <=
  // snapshot is appended and visible, so the bound below is at or under the
  // local watermark and BeginAtSnapshot accepts it. The pinned snapshot
  // keeps GC from pruning the versions this read needs.
  auto bound = LocalBoundForPrimary(primary_snapshot);
  if (!bound.ok()) return bound.status();
  auto txn = db_->BeginAtSnapshot(bound.value());
  if (!txn.ok()) return txn.status();
  RemoteRead out;
  auto value = (*txn)->Get(key);
  if (value.ok()) {
    out.found = true;
    out.value = std::move(value).value();
    if (!(*txn)->reads().empty()) {
      out.version_primary_ts =
          TranslateLocalToPrimary((*txn)->reads().back().version_commit_ts);
    }
  } else if (!value.status().IsNotFound()) {
    return value.status();
  }
  (void)(*txn)->Commit();
  remote_reads_served_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<std::vector<Secondary::RemoteScanItem>> Secondary::ScanAtPrimarySnapshot(
    const std::string& begin, const std::string& end,
    Timestamp primary_snapshot) {
  if (applied_seq() < primary_snapshot) {
    return Status::Unavailable(
        "secondary has not applied the requested snapshot prefix");
  }
  auto bound = LocalBoundForPrimary(primary_snapshot);
  if (!bound.ok()) return bound.status();
  auto txn = db_->BeginAtSnapshot(bound.value());
  if (!txn.ok()) return txn.status();
  auto result = (*txn)->Scan(begin, end);
  if (!result.ok()) return result.status();
  // Read-only scans observe exactly the returned keys, in the same sorted
  // order; pair them up to carry each version's primary timestamp out.
  const auto& observations = (*txn)->reads();
  std::vector<RemoteScanItem> out;
  out.reserve(result->size());
  for (std::size_t i = 0; i < result->size(); ++i) {
    RemoteScanItem item;
    item.key = std::move((*result)[i].first);
    item.value = std::move((*result)[i].second);
    if (i < observations.size() && observations[i].key == item.key) {
      item.version_primary_ts =
          TranslateLocalToPrimary(observations[i].version_commit_ts);
    }
    out.push_back(std::move(item));
  }
  (void)(*txn)->Commit();
  remote_reads_served_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void Secondary::CountIncoming(const PropagationRecord& record) {
  const auto* commit = std::get_if<PropCommit>(&record);
  if (commit == nullptr) return;
  if (commit->filtered > 0) {
    records_filtered_.fetch_add(commit->filtered, std::memory_order_relaxed);
  }
  if (!commit->updates.empty()) {
    updates_received_.fetch_add(commit->updates.size(),
                                std::memory_order_relaxed);
    std::uint64_t bytes = 0;
    for (const storage::Write& w : commit->updates) {
      bytes += w.key.size() + w.value.size();
    }
    update_bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

std::size_t Secondary::translation_count() const {
  std::shared_lock lock(translate_mu_);
  return local_to_primary_.size() + pending_translation_.size();
}

std::uint64_t Secondary::SampleLoadEstimate() {
  // ewma += (sample - ewma) / 8, in x1024 fixed point so small loads do not
  // truncate to zero steps. Lock-free CAS loop: concurrent samplers each
  // fold in their own observation; losing a race just retries against the
  // fresher estimate. When the quotient truncates to zero the estimate still
  // steps by one toward the sample, so it converges exactly instead of
  // sticking within 7 counts of the target forever.
  const auto sample =
      static_cast<std::uint64_t>(active_reads_.load(std::memory_order_relaxed))
      << 10;
  std::uint64_t prev = load_ewma_.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    const auto delta =
        static_cast<std::int64_t>(sample) - static_cast<std::int64_t>(prev);
    auto step = delta / 8;
    if (step == 0 && delta != 0) step = delta > 0 ? 1 : -1;
    next = static_cast<std::uint64_t>(static_cast<std::int64_t>(prev) + step);
  } while (!load_ewma_.compare_exchange_weak(prev, next,
                                             std::memory_order_relaxed));
  return next;
}

void Secondary::AdvanceSeq(Timestamp primary_commit_ts) {
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    Timestamp current = applied_seq_.load(std::memory_order_relaxed);
    if (primary_commit_ts > current) {
      applied_seq_.store(primary_commit_ts, std::memory_order_release);
    }
  }
  seq_cv_.notify_all();
}

void Secondary::AdvanceSeqToWatermark(Timestamp local_watermark) {
  // The watermark can jump past commits other applicator threads installed
  // (their FinishExternalCommit returned before ours unblocked the prefix),
  // so seq(DBsec) is driven off the FIFO of allocated refresh commits, not
  // off this thread's own task: pop everything visibility has passed and
  // advance to the newest primary timestamp among them.
  Timestamp newest_primary = kInvalidTimestamp;
  {
    std::lock_guard<std::mutex> lock(visibility_mu_);
    while (!visibility_fifo_.empty() &&
           visibility_fifo_.front().first <= local_watermark) {
      newest_primary = visibility_fifo_.front().second;
      visibility_fifo_.pop_front();
    }
  }
  if (newest_primary != kInvalidTimestamp) AdvanceSeq(newest_primary);
}

void Secondary::RefresherLoop() {
  // Algorithm 3.2. Records are drained in batches — one queue lock
  // round-trip per burst instead of one per record — but still processed
  // strictly in FIFO (= primary log) order, which is what Lemmas 3.1-3.3
  // require of the refresh schedule.
  for (;;) {
    std::vector<PropagationRecord> batch =
        update_queue_.PopBatch(kRefresherBatchSize);
    if (batch.empty()) return;  // closed and drained
    bool shutdown = false;
    for (PropagationRecord& record : batch) {
      CountIncoming(record);
      if (options_.direct_apply) {
        DirectRefreshRecord(record);
      } else {
        LegacyRefreshRecord(record, &shutdown);
        if (shutdown) return;
      }
    }
  }
}

void Secondary::DirectRefreshRecord(PropagationRecord& record) {
  txn::TxnManager* tm = db_->txn_manager();
  if (auto* start = std::get_if<PropStart>(&record)) {
    // Emit the local start record immediately — no pending-queue drain. The
    // refresh transaction's snapshot is defined by its position in the log:
    // it sees exactly the refresh commits whose records precede it, which the
    // visibility watermark will have installed before any timestamp at or
    // past this start is handed to a reader. That is the guarantee the old
    // WaitEmpty stall bought, for free.
    const TxnId local_id = tm->AllocateTxnId();
    tm->ExternalStart(local_id);
    direct_txns_[start->txn_id] = local_id;
  } else if (auto* commit = std::get_if<PropCommit>(&record)) {
    const TxnId local_id = ResolveCommitTxn(commit->txn_id);
    auto writes = std::make_unique<storage::WriteSet>();
    for (const storage::Write& w : commit->updates) {
      if (w.deleted) {
        writes->Delete(w.key);
      } else {
        writes->Put(w.key, w.value);
      }
    }
    {
      // Stage the translation before allocating the local commit timestamp:
      // BeginExternalCommit runs the commit hook synchronously, and the hook
      // must find the staged primary timestamp.
      std::unique_lock lock(translate_mu_);
      pending_translation_[local_id] = commit->commit_ts;
    }
    // Local commit timestamps are allocated here, on the single refresher
    // thread, in primary-commit order — local refresh commit order equals
    // primary commit order by construction (Lemma 3.3), regardless of how
    // the applicator pool interleaves the installations below.
    const Timestamp local_ts = tm->BeginExternalCommit(local_id, *writes);
    {
      std::lock_guard<std::mutex> lock(visibility_mu_);
      visibility_fifo_.emplace_back(local_ts, commit->commit_ts);
    }
    direct_tasks_.Push(
        DirectTask{std::move(writes), local_ts, commit->commit_ts});
  } else if (auto* abort = std::get_if<PropAbort>(&record)) {
    auto abort_it = direct_txns_.find(abort->txn_id);
    if (abort_it != direct_txns_.end()) {
      tm->ExternalAbort(abort_it->second);
      direct_txns_.erase(abort_it);
    }
  }
}

void Secondary::LegacyRefreshRecord(PropagationRecord& record, bool* shutdown) {
  if (auto* start = std::get_if<PropStart>(&record)) {
    // Block until the pending queue is empty so the new refresh
    // transaction's snapshot includes every refresh commit that precedes
    // it in primary order.
    if (!pending_queue_.WaitEmpty()) {
      *shutdown = true;
      return;
    }
    refresh_txns_[start->txn_id] = db_->Begin(/*read_only=*/false);
  } else if (auto* commit = std::get_if<PropCommit>(&record)) {
    std::unique_ptr<txn::Transaction> txn;
    auto it = refresh_txns_.find(commit->txn_id);
    if (it != refresh_txns_.end()) {
      txn = std::move(it->second);
      refresh_txns_.erase(it);
    } else {
      // See the direct-path comment: mid-stream attach without a checkpoint.
      LAZYSI_WARN("secondary: commit without start record, txn="
                  << commit->txn_id);
      if (!pending_queue_.WaitEmpty()) {
        *shutdown = true;
        return;
      }
      txn = db_->Begin(/*read_only=*/false);
    }
    pending_queue_.Append(commit->commit_ts);
    tasks_.Push(ApplyTask{std::move(txn), std::move(commit->updates),
                          commit->commit_ts});
  } else if (auto* abort = std::get_if<PropAbort>(&record)) {
    // Abandon the refresh transaction; Transaction's destructor aborts it.
    refresh_txns_.erase(abort->txn_id);
  }
}

TxnId Secondary::ResolveCommitTxn(TxnId primary_txn_id) {
  txn::TxnManager* tm = db_->txn_manager();
  auto it = direct_txns_.find(primary_txn_id);
  if (it != direct_txns_.end()) {
    const TxnId local_id = it->second;
    direct_txns_.erase(it);
    return local_id;
  }
  // Commit for a transaction whose start record we never saw. This happens
  // only for sinks attached mid-stream without a quiesced checkpoint;
  // recover by starting the refresh transaction now (its updates are value
  // writes, so a later snapshot is safe).
  LAZYSI_WARN("secondary: commit without start record, txn="
              << primary_txn_id);
  const TxnId local_id = tm->AllocateTxnId();
  tm->ExternalStart(local_id);
  return local_id;
}

// ---------------------------------------------------------------------------
// Parallel replay pipeline.
// ---------------------------------------------------------------------------

bool Secondary::ReorderBuffer::Admit(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  space_cv_.wait(lock, [&] { return closed_ || seq < next_ + kWindow; });
  return !closed_;
}

void Secondary::ReorderBuffer::Put(std::uint64_t seq, DecodedRecord record) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace(seq, std::move(record));
  }
  ready_cv_.notify_one();
}

std::vector<Secondary::DecodedRecord> Secondary::ReorderBuffer::PopReady() {
  std::unique_lock<std::mutex> lock(mu_);
  ready_cv_.wait(lock, [&] {
    return closed_ || (!pending_.empty() && pending_.begin()->first == next_);
  });
  std::vector<DecodedRecord> out;
  while (!pending_.empty() && pending_.begin()->first == next_) {
    out.push_back(std::move(pending_.begin()->second));
    pending_.erase(pending_.begin());
    ++next_;
  }
  if (!out.empty()) space_cv_.notify_all();
  return out;
}

void Secondary::ReorderBuffer::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

void Secondary::ReorderBuffer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  next_ = 0;
  closed_ = false;
}

void Secondary::ApplyScheduler::Submit(DirectTask task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(task));
  }
  cv_.notify_all();
}

Secondary::ApplyScheduler::Run Secondary::ApplyScheduler::ClaimRun(
    std::size_t limit) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    if (!pending_.empty()) {
      return (pending_.front().footprint & busy_) == 0;
    }
    return closed_;
  });
  Run run;
  if (pending_.empty()) return run;  // closed and drained
  // Greedy head prefix: stop at the first task whose footprint collides with
  // a concurrently active run. Collision with *this* run's mask is fine —
  // tasks inside one run install sequentially in one timestamp-ordered
  // ApplyBatch pass, so intra-run key overlap is harmless.
  while (run.tasks.size() < limit && !pending_.empty() &&
         (pending_.front().footprint & busy_) == 0) {
    run.mask |= pending_.front().footprint;
    run.tasks.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  busy_ |= run.mask;
  return run;
}

void Secondary::ApplyScheduler::CompleteRun(std::uint64_t mask) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    busy_ &= ~mask;
  }
  cv_.notify_all();
}

void Secondary::ApplyScheduler::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void Secondary::ApplyScheduler::Reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  busy_ = 0;
  closed_ = false;
}

std::size_t Secondary::ApplyScheduler::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void Secondary::IngestLoop() {
  // Pipeline stage 0: the only consumer of the update queue. Assigns each
  // record a gapless local pipeline sequence number (robust across restarts
  // and resyncs, unlike the propagator-stamped seq, which legitimately gaps
  // when records were broadcast into a closed queue) and fans the record to
  // the decode pool. The reorder-buffer window is the pipeline's
  // backpressure: ingest stalls here when decode or allocation falls behind.
  std::uint64_t next_seq = 0;
  std::uint64_t expected_wire_seq = 0;
  bool have_expected = false;
  for (;;) {
    std::vector<PropagationRecord> batch =
        update_queue_.PopBatch(kRefresherBatchSize);
    if (batch.empty()) return;  // closed and drained
    for (PropagationRecord& record : batch) {
      CountIncoming(record);
      const std::uint64_t wire_seq =
          std::visit([](const auto& r) { return r.seq; }, record);
      if (have_expected && wire_seq != expected_wire_seq) {
        stream_discontinuities_.fetch_add(1, std::memory_order_relaxed);
        LAZYSI_WARN("secondary: propagation stream discontinuity, expected seq "
                    << expected_wire_seq << " got " << wire_seq);
      }
      expected_wire_seq = wire_seq + 1;
      have_expected = true;
      if (!reorder_.Admit(next_seq)) return;
      decode_queue_.Push(DecodeJob{next_seq, std::move(record)});
      ++next_seq;
    }
  }
}

Secondary::DecodedRecord Secondary::DecodeRecord(
    PropagationRecord& record) const {
  DecodedRecord out;
  if (auto* start = std::get_if<PropStart>(&record)) {
    out.kind = DecodedRecord::Kind::kStart;
    out.txn_id = start->txn_id;
    out.primary_ts = start->start_ts;
  } else if (auto* commit = std::get_if<PropCommit>(&record)) {
    out.kind = DecodedRecord::Kind::kCommit;
    out.txn_id = commit->txn_id;
    out.primary_ts = commit->commit_ts;
    out.writes = std::make_unique<storage::WriteSet>();
    for (const storage::Write& w : commit->updates) {
      if (w.deleted) {
        out.writes->Delete(w.key);
      } else {
        out.writes->Put(w.key, w.value);
      }
    }
    out.footprint = db_->store()->ShardFootprint(*out.writes);
  } else if (auto* abort = std::get_if<PropAbort>(&record)) {
    out.kind = DecodedRecord::Kind::kAbort;
    out.txn_id = abort->txn_id;
  }
  return out;
}

void Secondary::DecodeLoop() {
  // Pipeline stage 1: all per-record CPU work — write-set construction
  // (which digests every write for the state chain) and shard-footprint
  // extraction — off the ordered path, so the sequencer's
  // BeginExternalCommitBatch folds one precomputed word per write. Results
  // re-sequence through the reorder buffer; this loop needs no ordering of
  // its own.
  while (auto job = decode_queue_.Pop()) {
    reorder_.Put(job->seq, DecodeRecord(job->record));
  }
}

void Secondary::FlushCommitBatch(std::vector<PendingCommit>* batch) {
  if (batch->empty()) return;
  txn::TxnManager* tm = db_->txn_manager();
  {
    // Stage every translation before allocating the local commit timestamps:
    // BeginExternalCommitBatch runs the commit hook synchronously, and the
    // hook must find the staged primary timestamp.
    std::unique_lock lock(translate_mu_);
    for (const PendingCommit& pc : *batch) {
      pending_translation_[pc.local_id] = pc.primary_ts;
    }
  }
  std::vector<txn::TxnManager::ExternalCommitRequest> requests;
  requests.reserve(batch->size());
  for (const PendingCommit& pc : *batch) {
    requests.push_back({pc.local_id, pc.writes.get()});
  }
  // The tiny ordered section: the whole batch's timestamps come from one
  // clock-mutex hold, in batch (= primary-commit) order.
  const std::vector<Timestamp> allocated = tm->BeginExternalCommitBatch(requests);
  {
    std::lock_guard<std::mutex> lock(visibility_mu_);
    for (std::size_t i = 0; i < batch->size(); ++i) {
      visibility_fifo_.emplace_back(allocated[i], (*batch)[i].primary_ts);
    }
  }
  for (std::size_t i = 0; i < batch->size(); ++i) {
    PendingCommit& pc = (*batch)[i];
    scheduler_.Submit(DirectTask{std::move(pc.writes), allocated[i],
                                 pc.primary_ts, pc.footprint});
  }
  batch->clear();
}

void Secondary::SequencerLoop() {
  // Pipeline stage 2: consumes the reordered stream in pipeline-sequence
  // (= primary log) order and does nothing but bookkeeping and timestamp
  // allocation. Commits batch through BeginExternalCommitBatch; a start or
  // abort first flushes the accumulated batch so the local log's record
  // interleaving exactly mirrors the primary log's (the snapshot of a
  // refresh transaction is defined by its position among emitted commits).
  txn::TxnManager* tm = db_->txn_manager();
  std::vector<PendingCommit> batch;
  batch.reserve(kSequencerBatch);
  for (;;) {
    std::vector<DecodedRecord> ready = reorder_.PopReady();
    if (ready.empty()) {
      FlushCommitBatch(&batch);
      return;  // closed and drained
    }
    for (DecodedRecord& rec : ready) {
      switch (rec.kind) {
        case DecodedRecord::Kind::kStart: {
          FlushCommitBatch(&batch);
          const TxnId local_id = tm->AllocateTxnId();
          tm->ExternalStart(local_id);
          direct_txns_[rec.txn_id] = local_id;
          break;
        }
        case DecodedRecord::Kind::kCommit: {
          const TxnId local_id = ResolveCommitTxn(rec.txn_id);
          batch.push_back(PendingCommit{local_id, std::move(rec.writes),
                                        rec.primary_ts, rec.footprint});
          if (batch.size() >= kSequencerBatch) FlushCommitBatch(&batch);
          break;
        }
        case DecodedRecord::Kind::kAbort: {
          FlushCommitBatch(&batch);
          auto it = direct_txns_.find(rec.txn_id);
          if (it != direct_txns_.end()) {
            tm->ExternalAbort(it->second);
            direct_txns_.erase(it);
          }
          break;
        }
      }
    }
    // Flush at burst end rather than waiting for a full batch: when the
    // stream goes quiet the allocated prefix reaches the applicators (and
    // the watermark) immediately.
    FlushCommitBatch(&batch);
  }
}

void Secondary::ParallelApplicatorLoop() {
  // Pipeline stage 3: Algorithm 3.3 in key-disjoint group-apply form. Each
  // claimed run's shard footprint is exclusive against every other in-flight
  // run, so concurrent ApplyBatch passes never interleave installs on the
  // same key and per-key version order equals timestamp order by
  // construction. Publication stays serialized by the visibility watermark
  // regardless of install interleaving.
  for (;;) {
    ApplyScheduler::Run run = scheduler_.ClaimRun(options_.group_apply_limit);
    if (run.tasks.empty()) return;  // closed and drained
    std::vector<storage::VersionedStore::TimestampedWrites> installs;
    installs.reserve(run.tasks.size());
    for (const DirectTask& task : run.tasks) {
      installs.push_back({task.writes.get(), task.local_commit_ts});
    }
    db_->store()->ApplyBatch(installs);
    // Versions are fully installed: release the run's shard claim before the
    // visibility pass so a same-key successor run can start installing (its
    // timestamps are higher — order per key is preserved).
    scheduler_.CompleteRun(run.mask);
    CountGroupApply(run.tasks.size());
    Timestamp watermark = kInvalidTimestamp;
    for (const DirectTask& task : run.tasks) {
      watermark =
          db_->txn_manager()->FinishExternalCommit(task.local_commit_ts);
    }
    refreshed_count_.fetch_add(run.tasks.size(), std::memory_order_relaxed);
    AdvanceSeqToWatermark(watermark);
  }
}

void Secondary::CountGroupApply(std::size_t batch_size) {
  group_applies_.fetch_add(1, std::memory_order_relaxed);
  group_applied_commits_.fetch_add(batch_size, std::memory_order_relaxed);
  std::uint64_t prev = max_group_apply_.load(std::memory_order_relaxed);
  while (batch_size > prev &&
         !max_group_apply_.compare_exchange_weak(prev, batch_size,
                                                 std::memory_order_relaxed)) {
  }
}

void Secondary::DirectApplicatorLoop() {
  // Algorithm 3.3, group-apply form: drain a run of consecutive refresh
  // commits and install all their writes in one store pass. Tasks arrive in
  // local-commit-timestamp order (single refresher producer), so each batch
  // is an increasing run, as ApplyBatch requires. No ordering wait is needed
  // before installation — the visibility watermark serializes *publication*
  // in timestamp order, so installation itself can proceed in parallel.
  for (;;) {
    std::vector<DirectTask> batch =
        direct_tasks_.PopBatch(options_.group_apply_limit);
    if (batch.empty()) return;  // closed and drained
    std::vector<storage::VersionedStore::TimestampedWrites> installs;
    installs.reserve(batch.size());
    for (const DirectTask& task : batch) {
      installs.push_back({task.writes.get(), task.local_commit_ts});
    }
    db_->store()->ApplyBatch(installs);
    CountGroupApply(batch.size());
    // Mark the whole group installed, then advance seq(DBsec) once: the
    // watermark is monotone, so the last returned value covers everything
    // this batch (and possibly other threads' batches) unblocked —
    // AdvanceSeqToWatermark credits those too.
    Timestamp watermark = kInvalidTimestamp;
    for (const DirectTask& task : batch) {
      watermark = db_->txn_manager()->FinishExternalCommit(task.local_commit_ts);
    }
    refreshed_count_.fetch_add(batch.size(), std::memory_order_relaxed);
    AdvanceSeqToWatermark(watermark);
  }
}

void Secondary::ApplicatorLoop() {
  // Algorithm 3.3, one iteration per task.
  while (auto task = tasks_.Pop()) {
    for (const auto& w : task->updates) {
      Status s = w.deleted ? task->txn->Delete(w.key)
                           : task->txn->Put(w.key, w.value);
      if (!s.ok()) {
        LAZYSI_ERROR("applicator: buffering update failed: " << s);
      }
    }
    // Commit only when our primary commit timestamp reaches the head of the
    // pending queue, so local refresh commit order equals primary commit
    // order (Lemma 3.3).
    if (!pending_queue_.WaitHead(task->commit_ts)) {
      // Shutdown: abandon the refresh transaction.
      task->txn->Abort();
      continue;
    }
    {
      // Stage the translation; the commit hook publishes it under the
      // timestamp mutex when the commit installs its versions.
      std::unique_lock lock(translate_mu_);
      pending_translation_[task->txn->id()] = task->commit_ts;
    }
    Status s = task->txn->Commit();
    if (!s.ok()) {
      // Cannot happen for refresh transactions: concurrent refreshes have
      // disjoint write sets (conflicting primary transactions are never
      // concurrent after FCW at the primary), and the local control is
      // deadlock-free. Surface loudly if the invariant is ever broken.
      LAZYSI_ERROR("applicator: refresh commit failed: " << s);
      std::unique_lock lock(translate_mu_);
      pending_translation_.erase(task->txn->id());
    } else {
      refreshed_count_.fetch_add(1, std::memory_order_relaxed);
      // seq(DBsec) := commit_p(T), then remove from the pending queue
      // (Section 4's ordering: set before delete).
      AdvanceSeq(task->commit_ts);
    }
    pending_queue_.PopHead(task->commit_ts);
  }
}

}  // namespace replication
}  // namespace lazysi
