#ifndef LAZYSI_REPLICATION_PROPAGATOR_H_
#define LAZYSI_REPLICATION_PROPAGATOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/result.h"
#include "common/status.h"
#include "replication/messages.h"
#include "replication/partition_map.h"
#include "wal/logical_log.h"

namespace lazysi {
namespace replication {

struct PropagatorOptions {
  /// 0 = continuous propagation (each log record forwarded as it appears).
  /// > 0 = batched cycles: every interval, all records accumulated since the
  /// last cycle are sent, modelling the paper's `propagation_delay`
  /// (Table 1: 10 s propagator think time).
  std::chrono::milliseconds batch_interval{0};
  /// Durability barrier: when set, the propagator only consumes log records
  /// below the returned LSN (exclusive). A durable primary points this at
  /// its flushed-LSN watermark so no record reaches a secondary before it
  /// reaches disk — otherwise a crash could leave the restarted primary
  /// *behind* its secondaries, re-issuing timestamps they already applied.
  /// Null = no barrier (in-memory primary).
  std::function<std::size_t()> read_limit;
};

/// Algorithm 3.1: tails the primary's logical log as a "log sniffer"
/// (Section 5 — it does not pass through the concurrency control), keeps an
/// update list per in-flight transaction, and broadcasts records to every
/// secondary's update queue in log (= timestamp) order:
///
///   - start records are forwarded immediately, which keeps propagation live
///     even when an earlier-started transaction has not committed yet;
///   - update records are buffered into the transaction's update list;
///   - commit records are forwarded together with the full update list, so
///     updates of transactions that abort are never shipped;
///   - abort records drop the update list and are forwarded so refreshers
///     can abandon the refresh transaction they already started.
class Propagator {
 public:
  explicit Propagator(wal::LogicalLog* log,
                      PropagatorOptions options = PropagatorOptions());
  ~Propagator();

  Propagator(const Propagator&) = delete;
  Propagator& operator=(const Propagator&) = delete;

  /// A quiesced propagation point: no transaction's start/commit pair spans
  /// `lsn`, and exactly `record_seq` propagation records precede it in the
  /// canonical broadcast stream. Valid target for AttachSinkAt; the reliable
  /// channel resyncs a reconnecting secondary from one of these.
  struct SyncPoint {
    std::size_t lsn = 0;
    std::uint64_t record_seq = 0;
  };

  /// Adds a sink receiving every record from the propagator's *current*
  /// position onward. Safe while running. Returns the global sequence number
  /// of the first record the sink will observe (records are numbered from
  /// the start of the log, one per non-update log record). An active
  /// `filter` restricts each commit's update list to the sink's partitions
  /// (dropped updates counted in PropCommit::filtered); record count and
  /// stream seqs are identical across all sinks regardless of filtering.
  std::uint64_t AttachSink(BlockingQueue<PropagationRecord>* sink,
                           SinkFilter filter = SinkFilter());

  /// Adds a sink that first receives a replay of log records from `from_lsn`
  /// up to the current position, then joins the live broadcast. `from_lsn`
  /// must be a quiesced point (no transaction in flight across it), e.g. the
  /// LSN of a Database::PinCheckpoint or a SyncPoint — otherwise
  /// FailedPrecondition. Returns the global sequence number of the first
  /// replayed record. Used for secondary recovery (Section 3.4) and for
  /// transport-level resync after a disconnect. The replay is filtered the
  /// same way as the live broadcast. NotFound when the log no longer retains
  /// `from_lsn` (it was truncated away): no replay can start there.
  Result<std::uint64_t> AttachSinkAt(BlockingQueue<PropagationRecord>* sink,
                                     std::size_t from_lsn,
                                     SinkFilter filter = SinkFilter());

  /// AttachSinkAt at the latest recorded sync point, chosen and attached
  /// under one lock hold, so no truncation can pass it in between. Returns
  /// that point: the sink's first record has seq `record_seq`. The snapshot
  /// rejoin uses it: a snapshot pinned afterwards covers every commit whose
  /// record precedes the point.
  Result<SyncPoint> AttachSinkAtLatestSyncPoint(
      BlockingQueue<PropagationRecord>* sink, SinkFilter filter = SinkFilter());

  /// Latest recorded quiesced point whose record_seq is <= `record_seq`.
  /// A reconnecting channel replays from here, so a receiver that
  /// acknowledged everything below `record_seq` sees exactly the suffix it
  /// missed (plus dedupable records between the sync point and `record_seq`).
  /// When `record_seq` predates every retained point (the log was truncated
  /// past it), the oldest retained point is returned — the caller compares
  /// record_seq against the result to detect that it can no longer resync.
  SyncPoint SyncPointAtOrBefore(std::uint64_t record_seq) const;

  /// Primes a propagator for a primary restored from a data directory whose
  /// log was truncated: the oldest retained record is `base_lsn`, preceded
  /// by exactly `base_record_seq` propagation records that are gone for
  /// good. The propagator starts reading at `base_lsn` (re-consuming the
  /// restored suffix so AttachSinkAt can replay it) and numbers the stream
  /// from `base_record_seq`. Must be called before Start / AttachSink, on a
  /// propagator that has consumed nothing.
  void SeedForRecovery(std::size_t base_lsn, std::uint64_t base_record_seq);

  /// Log reclamation for a primary with no durable log: truncates the
  /// logical log below the latest recorded sync point at or below
  /// min(`limit`, position()), which becomes the oldest resync point (older
  /// ones are forgotten). Returns the number of log records dropped.
  std::size_t TruncateLogBelow(std::size_t limit);

  /// Removes a sink (e.g. a failed secondary, before its queue is
  /// destroyed). No-op when the sink is not attached.
  void DetachSink(BlockingQueue<PropagationRecord>* sink);

  void Start();
  void Stop();

  /// Next LSN the propagator will read.
  std::size_t position() const {
    return position_.load(std::memory_order_acquire);
  }

  std::uint64_t commits_propagated() const {
    return commits_propagated_.load(std::memory_order_relaxed);
  }

  /// Total propagation records broadcast so far (starts + commits + aborts;
  /// update log records fold into their commit and are not counted).
  std::uint64_t records_broadcast() const {
    return records_broadcast_.load(std::memory_order_relaxed);
  }

 private:
  /// Recorded quiesced points beyond which older ones are dropped; the
  /// first point is always retained as the resync point of last resort.
  static constexpr std::size_t kMaxSyncPoints = 256;
  /// Upper bound on log records consumed per lock hold. The whole burst's
  /// propagation records are published to each sink with one PushAll — one
  /// queue lock per burst per sink instead of one per record — while the
  /// bound keeps Attach/Detach latency under a steady firehose.
  static constexpr std::size_t kBroadcastBurst = 256;
  /// Log records AttachSinkAt reads per log-lock hold while it rebuilds a
  /// replay.
  static constexpr std::size_t kReplayChunk = 4096;

  /// AttachSinkAt's body; must be called with mu_ held.
  Result<std::uint64_t> AttachSinkAtLocked(
      BlockingQueue<PropagationRecord>* sink, std::size_t from_lsn,
      SinkFilter filter);
  void Run();
  /// Consumes up to kBroadcastBurst log records under one mu_ hold and
  /// flushes their propagation records to every sink. Returns the number of
  /// log records consumed (0 = nothing available).
  std::size_t DrainBurst();
  /// Consumes the log record at the current position: updates per-txn lists,
  /// buffers broadcast records into burst_, advances position_ and records a
  /// sync point when quiesced. Must be called with mu_ held.
  void ConsumeLocked(const wal::LogRecord& record);
  /// Counts the record as broadcast and appends it to the pending burst.
  void BufferLocked(PropagationRecord record);
  /// Publishes the pending burst to every sink. Must be called with mu_ held
  /// (attach/detach see either none or all of a burst).
  void FlushBurstLocked();

  wal::LogicalLog* log_;
  PropagatorOptions options_;

  struct SinkEntry {
    BlockingQueue<PropagationRecord>* queue;
    SinkFilter filter;
  };

  mutable std::mutex mu_;  // guards sinks_, update_lists_, sync_points_
  std::vector<SinkEntry> sinks_;
  std::map<TxnId, std::vector<storage::Write>> update_lists_;
  /// Propagation records of the burst being consumed, awaiting flush.
  std::vector<PropagationRecord> burst_;
  /// record_seq -> lsn at quiesced moments, ascending in both components.
  /// The first entry is the resync point of last resort: the origin, the
  /// recovery seed, or the last TruncateLogBelow floor.
  std::map<std::uint64_t, std::size_t> sync_points_{{0, 0}};

  std::atomic<std::size_t> position_{0};
  std::atomic<std::uint64_t> commits_propagated_{0};
  std::atomic<std::uint64_t> records_broadcast_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  bool started_ = false;
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_PROPAGATOR_H_
