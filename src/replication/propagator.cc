#include "replication/propagator.h"

#include <algorithm>

#include "common/logging.h"

namespace lazysi {
namespace replication {

Propagator::Propagator(wal::LogicalLog* log, PropagatorOptions options)
    : log_(log), options_(options) {}

Propagator::~Propagator() { Stop(); }

namespace {

/// Applies a sink's coverage filter to one record in place: commits keep
/// only covered updates and count the dropped ones in `filtered`; starts
/// and aborts pass through untouched.
void FilterRecordInPlace(PropagationRecord* record, const SinkFilter& filter) {
  auto* commit = std::get_if<PropCommit>(record);
  if (commit == nullptr) return;
  std::vector<storage::Write> kept;
  kept.reserve(commit->updates.size());
  for (auto& w : commit->updates) {
    if (filter.CoversKey(w.key)) {
      kept.push_back(std::move(w));
    } else {
      ++commit->filtered;
    }
  }
  commit->updates = std::move(kept);
}

}  // namespace

std::uint64_t Propagator::AttachSink(BlockingQueue<PropagationRecord>* sink,
                                     SinkFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(SinkEntry{sink, std::move(filter)});
  return records_broadcast_.load(std::memory_order_relaxed);
}

Result<std::uint64_t> Propagator::AttachSinkAt(
    BlockingQueue<PropagationRecord>* sink, std::size_t from_lsn,
    SinkFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  return AttachSinkAtLocked(sink, from_lsn, std::move(filter));
}

Result<Propagator::SyncPoint> Propagator::AttachSinkAtLatestSyncPoint(
    BlockingQueue<PropagationRecord>* sink, SinkFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& [seq, lsn] = *sync_points_.rbegin();
  const SyncPoint point{lsn, seq};
  auto base = AttachSinkAtLocked(sink, point.lsn, std::move(filter));
  if (!base.ok()) return base.status();
  return point;
}

std::size_t Propagator::TruncateLogBelow(std::size_t limit) {
  std::size_t floor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    limit = std::min(limit, position_.load(std::memory_order_acquire));
    // Latest point at or below the limit; both components ascend.
    auto it = sync_points_.end();
    do {
      --it;
    } while (it != sync_points_.begin() && it->second > limit);
    if (it == sync_points_.begin()) return 0;
    floor = it->second;
    sync_points_.erase(sync_points_.begin(), it);
  }
  // Outside mu_: freeing the dropped records must not stall the broadcast.
  // An AttachSinkAt that reads below the floor meanwhile either finishes
  // first or finds the records gone and fails NotFound.
  const std::size_t base = log_->base_lsn();
  log_->TruncateBelow(floor);
  return log_->base_lsn() - base;
}

Result<std::uint64_t> Propagator::AttachSinkAtLocked(
    BlockingQueue<PropagationRecord>* sink, std::size_t from_lsn,
    SinkFilter filter) {
  const std::size_t upto = position_.load(std::memory_order_acquire);
  if (from_lsn > upto) {
    return Status::InvalidArgument("from_lsn is ahead of the propagator");
  }
  if (from_lsn < log_->base_lsn()) {
    return Status::NotFound("log truncated past lsn " +
                            std::to_string(from_lsn));
  }
  // Global sequence number of the first replayed record: every non-update
  // log record below from_lsn produced exactly one propagation record. Count
  // forward from the nearest recorded sync point at or below from_lsn (both
  // map components ascend) instead of rescanning the log from LSN 0, so the
  // cost is O(sync points + resync window), not O(log size).
  std::uint64_t base_seq = 0;
  std::size_t base_lsn = 0;
  for (const auto& [seq, lsn] : sync_points_) {
    if (lsn > from_lsn) break;
    base_seq = seq;
    base_lsn = lsn;
  }
  // Both passes read the log in place, a bounded chunk per log-lock hold so
  // a long replay never stalls the primary's appends for its whole length.
  auto visit = [this](std::size_t from, std::size_t to, auto&& fn) -> Status {
    for (std::size_t lsn = from; lsn < to;) {
      const std::size_t n =
          log_->Visit(lsn, std::min(to, lsn + kReplayChunk), fn);
      if (n == 0) return Status::NotFound("log truncated during the replay");
      lsn += n;
    }
    return Status::OK();
  };
  LAZYSI_RETURN_NOT_OK(
      visit(base_lsn, from_lsn, [&base_seq](const wal::LogRecord& rec) {
        if (rec.type != wal::LogRecordType::kUpdate) ++base_seq;
      }));
  // Rebuild update lists from the log slice and emit the records this sink
  // missed. A commit whose start record is not inside the slice means the
  // checkpoint was not quiesced.
  std::map<TxnId, std::vector<storage::Write>> lists;
  std::vector<PropagationRecord> replay;
  Status quiesced = Status::OK();
  LAZYSI_RETURN_NOT_OK(visit(from_lsn, upto, [&](const wal::LogRecord& rec) {
    if (!quiesced.ok()) return;
    switch (rec.type) {
      case wal::LogRecordType::kStart:
        lists[rec.txn_id];  // mark txn as started inside the slice
        replay.push_back(
            PropStart{rec.txn_id, rec.timestamp, base_seq + replay.size()});
        break;
      case wal::LogRecordType::kUpdate: {
        auto it = lists.find(rec.txn_id);
        if (it == lists.end()) {
          quiesced = Status::FailedPrecondition(
              "checkpoint LSN is not quiesced: update of a transaction "
              "started before the checkpoint");
          return;
        }
        it->second.push_back(storage::Write{rec.key, rec.value, rec.deleted});
        break;
      }
      case wal::LogRecordType::kCommit: {
        auto it = lists.find(rec.txn_id);
        if (it == lists.end()) {
          quiesced = Status::FailedPrecondition(
              "checkpoint LSN is not quiesced: commit of a transaction "
              "started before the checkpoint");
          return;
        }
        replay.push_back(PropCommit{rec.txn_id, rec.timestamp,
                                    std::move(it->second),
                                    base_seq + replay.size()});
        lists.erase(it);
        break;
      }
      case wal::LogRecordType::kAbort:
        lists.erase(rec.txn_id);
        replay.push_back(PropAbort{rec.txn_id, base_seq + replay.size()});
        break;
    }
  }));
  LAZYSI_RETURN_NOT_OK(quiesced);
  if (filter.active()) {
    for (auto& record : replay) FilterRecordInPlace(&record, filter);
  }
  sink->PushAll(std::move(replay));
  sinks_.push_back(SinkEntry{sink, std::move(filter)});
  return base_seq;
}

Propagator::SyncPoint Propagator::SyncPointAtOrBefore(
    std::uint64_t record_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sync_points_.upper_bound(record_seq);
  if (it == sync_points_.begin()) {
    // record_seq predates every retained point (possible after truncation
    // on a recovered primary): return the oldest one; the caller notices
    // the returned seq is ahead of what it asked for.
    return SyncPoint{it->second, it->first};
  }
  --it;
  return SyncPoint{it->second, it->first};
}

void Propagator::SeedForRecovery(std::size_t base_lsn,
                                 std::uint64_t base_record_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  position_.store(base_lsn, std::memory_order_release);
  records_broadcast_.store(base_record_seq, std::memory_order_relaxed);
  // The truncation floor is always a quiesced point (segment rotation and
  // checkpoints only happen with no transaction in flight), so it replaces
  // the origin as the resync point of last resort.
  sync_points_.clear();
  sync_points_[base_record_seq] = base_lsn;
}

void Propagator::DetachSink(BlockingQueue<PropagationRecord>* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(sinks_, [sink](const SinkEntry& e) { return e.queue == sink; });
}

void Propagator::Start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void Propagator::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  started_ = false;
}

void Propagator::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (options_.batch_interval.count() > 0) {
      // Batched cycles: think for one propagation delay *before* each drain
      // (Table 1's propagation_delay is the propagator's think time), in
      // small increments so Stop() stays responsive.
      auto remaining = options_.batch_interval;
      const auto step = std::chrono::milliseconds(10);
      while (remaining.count() > 0 && !stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::min(step, remaining));
        remaining -= step;
      }
    }
    // Drain everything currently available, in log order, one burst (and
    // one per-sink PushAll) per lock hold.
    bool drained_any = false;
    while (DrainBurst() > 0) drained_any = true;
    if (options_.batch_interval.count() == 0 && !drained_any) {
      // Continuous mode: block until the next record appears.
      const bool appended = log_->WaitForSize(
          position_.load(std::memory_order_acquire) + 1,
          std::chrono::milliseconds(50));
      if (appended && options_.read_limit) {
        // The record exists but DrainBurst declined it: it is still behind
        // the durability barrier. Yield while the flush completes rather
        // than spinning on WaitForSize (which returns immediately).
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!appended && log_->closed()) {
        if (log_->Size() <= position_.load(std::memory_order_acquire)) break;
      }
    }
  }
  // Final drain so a Stop after workload completion loses nothing.
  while (DrainBurst() > 0) {
  }
}

std::size_t Propagator::DrainBurst() {
  std::lock_guard<std::mutex> lock(mu_);
  // Sampled once per burst: the watermark only advances, so a stale sample
  // merely under-drains this round.
  const std::size_t limit =
      options_.read_limit ? options_.read_limit() : SIZE_MAX;
  const std::size_t pos = position_.load(std::memory_order_relaxed);
  // Records at or past `limit` are not durable yet.
  const std::size_t end = std::min(limit, pos + kBroadcastBurst);
  const std::size_t consumed =
      pos < end ? log_->Visit(pos, end,
                              [this](const wal::LogRecord& record) {
                                ConsumeLocked(record);
                              })
                : 0;
  FlushBurstLocked();
  return consumed;
}

void Propagator::ConsumeLocked(const wal::LogRecord& record) {
  switch (record.type) {
    case wal::LogRecordType::kStart:
      update_lists_[record.txn_id];
      BufferLocked(PropStart{record.txn_id, record.timestamp});
      break;
    case wal::LogRecordType::kUpdate:
      update_lists_[record.txn_id].push_back(
          storage::Write{record.key, record.value, record.deleted});
      break;
    case wal::LogRecordType::kCommit: {
      auto it = update_lists_.find(record.txn_id);
      std::vector<storage::Write> updates;
      if (it != update_lists_.end()) {
        updates = std::move(it->second);
        update_lists_.erase(it);
      }
      BufferLocked(
          PropCommit{record.txn_id, record.timestamp, std::move(updates)});
      commits_propagated_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case wal::LogRecordType::kAbort:
      update_lists_.erase(record.txn_id);
      BufferLocked(PropAbort{record.txn_id});
      break;
  }
  position_.fetch_add(1, std::memory_order_release);
  if (update_lists_.empty()) {
    // No transaction spans the new position: remember it as a quiesced
    // resync target for reconnecting channels.
    sync_points_[records_broadcast_.load(std::memory_order_relaxed)] =
        position_.load(std::memory_order_relaxed);
    if (sync_points_.size() > kMaxSyncPoints) {
      // Drop the oldest point after the always-kept first one.
      sync_points_.erase(std::next(sync_points_.begin()));
    }
  }
}

void Propagator::BufferLocked(PropagationRecord record) {
  // Counted at buffering time: the flush happens under the same mu_ hold, so
  // a sink attached afterwards (AttachSink also takes mu_) starts exactly at
  // the post-burst sequence number it will first observe. The pre-increment
  // value is also the record's stream position, stamped into the record so
  // receivers can spot discontinuities after the wire and transport layers
  // have had their way with the batch framing.
  const std::uint64_t seq =
      records_broadcast_.fetch_add(1, std::memory_order_relaxed);
  std::visit([seq](auto& r) { r.seq = seq; }, record);
  burst_.push_back(std::move(record));
}

void Propagator::FlushBurstLocked() {
  if (burst_.empty()) return;
  if (sinks_.size() == 1 && !sinks_[0].filter.active()) {
    sinks_[0].queue->PushAll(std::move(burst_));
  } else {
    for (auto& sink : sinks_) {
      if (!sink.filter.active()) {
        sink.queue->PushAll(burst_);
        continue;
      }
      // Filtered sinks get their own copy with uncovered updates dropped;
      // the shared burst_ stays intact for the remaining sinks.
      std::vector<PropagationRecord> filtered = burst_;
      for (auto& record : filtered) FilterRecordInPlace(&record, sink.filter);
      sink.queue->PushAll(std::move(filtered));
    }
  }
  burst_.clear();
}

}  // namespace replication
}  // namespace lazysi
