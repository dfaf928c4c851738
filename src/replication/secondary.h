#ifndef LAZYSI_REPLICATION_SECONDARY_H_
#define LAZYSI_REPLICATION_SECONDARY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/queue.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "engine/database.h"
#include "replication/messages.h"
#include "replication/pending_queue.h"

namespace lazysi {
namespace replication {

struct SecondaryOptions {
  /// Size of the fixed applicator thread pool (Section 3.3 suggests a fixed
  /// pool rather than a fork per transaction).
  std::size_t applicator_threads = 4;
  /// Direct-apply refresh engine (the default): the refresher allocates
  /// local commit timestamps up front in primary-commit order, applicators
  /// install write sets straight into the versioned store, and visibility is
  /// published through the commit pipeline's watermark — no refresh
  /// transaction ever passes through Begin/Put/Commit FCW machinery (whose
  /// validation is provably a no-op for refresh: conflicting primary
  /// transactions were never concurrent after FCW at the primary).
  /// When false, the legacy transactional refresh path of Algorithms 3.2/3.3
  /// runs instead; it is kept alive for differential testing.
  bool direct_apply = true;
  /// Direct-apply only: upper bound on the run of consecutive refresh
  /// commits an applicator group-applies in a single store pass.
  std::size_t group_apply_limit = 32;
  /// Direct-apply only: number of decode-pool workers in the parallel replay
  /// pipeline. Greater than zero (the default) selects the three-stage
  /// pipeline — decode pool, ordered timestamp allocation, key-disjoint
  /// concurrent group-apply. Zero selects the serial direct-apply path (one
  /// refresher thread decodes and allocates inline), kept alive for
  /// differential testing against the pipeline.
  std::size_t decode_threads = 2;
};

/// A secondary site's refresh machinery: the FIFO update queue (kept outside
/// the database to avoid FCW aborts on queue pages, Section 3.4), the
/// refresher (Algorithm 3.2), the applicator pool (Algorithm 3.3), and the
/// seq(DBsec) sequence number of Section 4.
///
/// Two interchangeable refresh engines implement the algorithms:
///
///  - The **direct-apply engine** (default). Each propagated commit record
///    becomes a pre-allocated local commit timestamp
///    (TxnManager::BeginExternalCommit, called in primary-commit order, so
///    local commit order == primary commit order by construction — Lemma
///    3.3); applicator threads install the write sets concurrently with
///    VersionedStore::ApplyBatch, group-applying runs of consecutive
///    commits in one store pass; and the commit pipeline's visibility
///    watermark publishes each refresh commit only once the whole prefix
///    below it has installed, which is what keeps snapshots torn-free
///    without ever draining the pipeline. Start records never block: the
///    refresh transaction's snapshot is *defined* by its position in the
///    emitted log (every previously emitted commit, exactly the set a
///    BeginAtSnapshot at the current watermark target would pin), so
///    PropStart only emits the local start record and moves on.
///
///    With decode_threads > 0 (the default) the direct engine runs as a
///    three-stage **parallel replay pipeline**:
///
///      1. An ingest thread tags each arriving record with a gapless local
///         sequence number and fans it to a pool of decode workers, which do
///         the CPU work off the ordered path: write-set construction and
///         shard-footprint extraction. Decoded records re-sequence through a
///         bounded reorder buffer.
///      2. A sequencer thread consumes the reordered stream and does nothing
///         but timestamp allocation, batching consecutive commits through
///         TxnManager::BeginExternalCommitBatch — one clock-mutex hold per
///         batch instead of per commit. This is the tiny ordered section;
///         everything before and after it is concurrent.
///      3. Applicators claim *key-disjoint* runs of allocated commits (64-bit
///         shard-footprint bitmaps; a run is claimable only while its
///         footprint is disjoint from every in-flight run's) and install
///         them concurrently via ApplyBatch. Disjointness means same-key
///         installs always happen in increasing timestamp order, and the
///         watermark FIFO still only advances seq(DBsec) over fully
///         installed prefixes.
///
///    decode_threads = 0 preserves the serial single-refresher direct path
///    for differential testing.
///  - The **legacy transactional engine** (direct_apply = false): refresh
///    transactions run through the full local concurrency control; the
///    refresher blocks each start on PendingQueue::WaitEmpty and applicators
///    serialize commits through PendingQueue::WaitHead.
///
/// Either way the local database guarantees strong SI (engine::Database
/// does) and refresh start/commit records are emitted in primary log order,
/// so relationships 1-3 of Section 3.1 hold and Theorem 3.1's completeness
/// proof applies.
class Secondary {
 public:
  explicit Secondary(engine::Database* db,
                     SecondaryOptions options = SecondaryOptions());
  ~Secondary();

  Secondary(const Secondary&) = delete;
  Secondary& operator=(const Secondary&) = delete;

  /// The update queue to attach to the primary's propagator.
  BlockingQueue<PropagationRecord>* update_queue() { return &update_queue_; }

  void Start();
  /// Stops the pipeline. Legacy engine: in-flight refresh transactions are
  /// aborted. Direct-apply engine: commits whose timestamps were already
  /// allocated are installed before the applicators exit (their commit
  /// records are in the log, so abandoning them would wedge the visibility
  /// watermark); records still in the update queue are dropped either way.
  /// Call WaitForSeq first if the test/workload needs everything applied.
  void Stop();

  /// seq(DBsec): the primary commit timestamp of the latest refresh
  /// transaction committed here (Section 4).
  Timestamp applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }

  /// Blocks until seq(DBsec) >= seq or timeout. This is the blocking rule of
  /// ALG-STRONG-SESSION-SI: a read-only transaction with session sequence
  /// number seq(c) may not start while seq(c) > seq(DBsec).
  bool WaitForSeq(Timestamp seq,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(10000)) const;

  /// Re-seeds seq(DBsec) after recovery: the checkpoint install corresponds
  /// to the primary state `seq` (Section 4 does this with a dummy primary
  /// transaction after failure).
  void InitializeSeq(Timestamp seq, Timestamp local_install_ts);

  /// Snapshot rejoin (a fresh secondary whose primary no longer holds the
  /// log back to LSN 0): the rows of the primary's state at some as_of are
  /// staged in one local update transaction as they arrive, and
  /// CommitSnapshot commits it and re-seeds seq(DBsec) at as_of — the
  /// InstallCheckpoint + InitializeSeq pair of recovery. One commit, so no
  /// reader sees part of the snapshot. Call from one thread, on a site
  /// that holds no replicated state, before any record reaches the update
  /// queue.
  void StageSnapshotRow(const std::string& key, storage::Value value);
  Status CommitSnapshot(Timestamp as_of);
  /// Drops the staged rows (the stream was cut mid-snapshot).
  void AbandonSnapshot();

  /// Maps a local refresh-commit timestamp to the primary commit timestamp
  /// it installed (kInvalidTimestamp if unknown). History recording uses
  /// this to express secondary reads in primary-state coordinates.
  Timestamp TranslateLocalToPrimary(Timestamp local_ts) const;

  /// Drops local->primary translations of refresh commits whose *primary*
  /// commit timestamp is below `primary_horizon`, returning the number of
  /// entries erased. Without pruning the table grows by one entry per
  /// refresh commit forever. A sound horizon is one no future reader can
  /// need: the system layer uses the minimum applied_seq across live
  /// secondaries, below which every site already serves newer state, so
  /// session floors derived from pruned entries would be vacuous anyway.
  /// Reads of versions older than the horizon afterwards translate to
  /// kInvalidTimestamp (history recording in primary coordinates becomes
  /// approximate below the horizon; keep history-checked workloads above
  /// it by pruning only at quiesced points).
  std::size_t PruneTranslations(Timestamp primary_horizon);

  /// Current size of the local->primary translation table (monitoring and
  /// the pruning regression test).
  std::size_t translation_count() const;

  /// Largest primary commit timestamp whose refresh commit is contained in
  /// the local snapshot `local_snapshot_ts` — the exact primary-state prefix
  /// a local read-only transaction at that snapshot observes. 0 when the
  /// snapshot predates every refresh commit. Partition-spanning reads carry
  /// this as their SCAR-style snapshot timestamp: remote replicas serve the
  /// same primary prefix instead of "whatever is freshest", preserving read
  /// atomicity across partitions.
  Timestamp PrimaryPrefixAtLocal(Timestamp local_snapshot_ts) const;

  /// One observed value from a coverage-routed remote read, in primary-state
  /// coordinates.
  struct RemoteRead {
    bool found = false;
    storage::Value value;
    Timestamp version_primary_ts = kInvalidTimestamp;
  };
  struct RemoteScanItem {
    std::string key;
    storage::Value value;
    Timestamp version_primary_ts = kInvalidTimestamp;
  };

  /// Serves a key at the primary-prefix snapshot `primary_snapshot` on
  /// behalf of a reader homed on another secondary (SCAR-style partition
  /// read). Fails Unavailable when this replica has not applied the snapshot
  /// prefix yet (the caller treats that as a stale-partition rejection and
  /// tries another replica), and FailedPrecondition when the snapshot fell
  /// below the translation-prune horizon (the caller retries with a fresher
  /// snapshot). The read pins its local snapshot via BeginAtSnapshot, so it
  /// is safe against concurrent version pruning.
  Result<RemoteRead> ReadAtPrimarySnapshot(const std::string& key,
                                           Timestamp primary_snapshot);

  /// Range-scan counterpart of ReadAtPrimarySnapshot; returns the visible
  /// [begin, end) keys with their values and primary version timestamps.
  Result<std::vector<RemoteScanItem>> ScanAtPrimarySnapshot(
      const std::string& begin, const std::string& end,
      Timestamp primary_snapshot);

  engine::Database* db() { return db_; }

  std::uint64_t refreshed_count() const {
    return refreshed_count_.load(std::memory_order_relaxed);
  }
  std::size_t update_queue_depth() const { return update_queue_.size(); }

  bool direct_apply() const { return options_.direct_apply; }

  /// Freshness-aware router instrumentation (Section 6's read routing,
  /// generalized): read-only transactions routed here because this site's
  /// seq(DBsec) already covered the session's seq(c) (no blocking needed)
  /// vs. reads sent here as the freshest-available fallback, which must
  /// block until seq(DBsec) catches up.
  std::uint64_t ro_routed_fresh() const {
    return ro_routed_fresh_.load(std::memory_order_relaxed);
  }
  std::uint64_t ro_blocked_on_freshness() const {
    return ro_blocked_on_freshness_.load(std::memory_order_relaxed);
  }
  /// Read-only transactions currently open at this site — the raw input to
  /// the router's load signal.
  std::uint64_t active_reads() const {
    return active_reads_.load(std::memory_order_relaxed);
  }

  /// Folds the current active_reads() sample into an exponentially weighted
  /// moving average (alpha = 1/8) and returns the updated estimate in
  /// fixed-point (x1024) units. The router samples this instead of the raw
  /// gauge: the EWMA gives routing hysteresis, so one transient burst on the
  /// least-loaded fresh site no longer flips every subsequent read to
  /// another replica and back (herd oscillation).
  std::uint64_t SampleLoadEstimate();

  /// Last published EWMA load estimate, fixed-point x1024 (monitoring/tests).
  std::uint64_t load_estimate() const {
    return load_ewma_.load(std::memory_order_relaxed);
  }

  /// Number of gaps observed in the propagator-stamped record sequence
  /// (diagnostic: counts dropped/duplicated records at stream joins, e.g.
  /// restarts with a closed update queue).
  std::uint64_t stream_discontinuities() const {
    return stream_discontinuities_.load(std::memory_order_relaxed);
  }

  /// Partial replication accounting, tallied off incoming records before the
  /// refresh engines touch them: updates filtered out upstream for this sink
  /// (sum of PropCommit::filtered), updates actually received, and their
  /// payload bytes (keys + values). filtered / (filtered + received) is the
  /// bandwidth saved by partitioning.
  std::uint64_t records_filtered() const {
    return records_filtered_.load(std::memory_order_relaxed);
  }
  std::uint64_t updates_received() const {
    return updates_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t update_bytes_received() const {
    return update_bytes_received_.load(std::memory_order_relaxed);
  }
  /// Coverage-routed reads this replica served for readers homed elsewhere.
  std::uint64_t remote_reads_served() const {
    return remote_reads_served_.load(std::memory_order_relaxed);
  }

  void CountRoutedFresh() {
    ro_routed_fresh_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountBlockedOnFreshness() {
    ro_blocked_on_freshness_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnReadStart() { active_reads_.fetch_add(1, std::memory_order_relaxed); }
  void OnReadFinish() {
    active_reads_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Direct-apply instrumentation: number of store passes, total commits
  /// they covered (avg group size = commits / passes), and the largest
  /// single group. All zero under the legacy engine.
  std::uint64_t group_applies() const {
    return group_applies_.load(std::memory_order_relaxed);
  }
  std::uint64_t group_applied_commits() const {
    return group_applied_commits_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_group_apply() const {
    return max_group_apply_.load(std::memory_order_relaxed);
  }

 private:
  /// Upper bound on records the refresher drains from the update queue per
  /// lock round-trip; bounds the latency of a Stop() racing a large burst.
  static constexpr std::size_t kRefresherBatchSize = 256;

  /// Upper bound on commits the sequencer pushes through one
  /// BeginExternalCommitBatch call (one clock-mutex hold). The batch is also
  /// flushed whenever the reordered stream interleaves a start or abort, so
  /// local log order always mirrors primary log order.
  static constexpr std::size_t kSequencerBatch = 64;

  /// Legacy engine task: a begun refresh transaction plus its updates.
  struct ApplyTask {
    std::unique_ptr<txn::Transaction> txn;
    std::vector<storage::Write> updates;
    Timestamp commit_ts = kInvalidTimestamp;  // primary commit_p(T)
  };

  /// Direct-apply task: a write set whose commit timestamp is already
  /// allocated and whose commit record is already in the local log — it
  /// *must* be installed. The write set is heap-allocated because the
  /// TxnManager's installing list holds a pointer to it until
  /// FinishExternalCommit.
  struct DirectTask {
    std::unique_ptr<storage::WriteSet> writes;
    Timestamp local_commit_ts = kInvalidTimestamp;
    Timestamp primary_commit_ts = kInvalidTimestamp;
    /// Shard-occupancy bitmap of the write set (parallel pipeline only; the
    /// serial path leaves it zero). See VersionedStore::ShardFootprint.
    std::uint64_t footprint = 0;
  };

  /// Pipeline stage 1 input: a propagation record tagged with its gapless
  /// local pipeline sequence number.
  struct DecodeJob {
    std::uint64_t seq = 0;
    PropagationRecord record;
  };

  /// Pipeline stage 1 output: the record with all CPU work done — write set
  /// built, shard footprint extracted — ready for ordered allocation.
  struct DecodedRecord {
    enum class Kind { kStart, kCommit, kAbort };
    Kind kind = Kind::kStart;
    TxnId txn_id = kInvalidTxnId;
    Timestamp primary_ts = kInvalidTimestamp;  // start_ts / commit_ts
    std::unique_ptr<storage::WriteSet> writes;  // commits only
    std::uint64_t footprint = 0;                // commits only
  };

  /// A decoded commit awaiting its turn through the ordered section.
  struct PendingCommit {
    TxnId local_id = kInvalidTxnId;
    std::unique_ptr<storage::WriteSet> writes;
    Timestamp primary_ts = kInvalidTimestamp;
    std::uint64_t footprint = 0;
  };

  /// Re-sequences decode-pool output back into pipeline-sequence order. The
  /// ingest thread admits a sequence number only while it is inside a bounded
  /// window past the sequencer's position, which backpressures ingest when
  /// decoding or allocation falls behind instead of buffering without bound.
  class ReorderBuffer {
   public:
    /// Blocks until `seq` fits in the window; false once closed.
    bool Admit(std::uint64_t seq);
    void Put(std::uint64_t seq, DecodedRecord record);
    /// Pops the contiguous ready prefix, blocking until at least one record
    /// is ready. Empty result means closed and fully drained.
    std::vector<DecodedRecord> PopReady();
    void Close();
    /// Restores the initial open state (restart after Stop).
    void Reset();

   private:
    /// In-flight bound: records admitted but not yet handed to the
    /// sequencer. Large enough to keep the decode pool busy across bursts,
    /// small enough that a stalled pipeline caps memory at window x record.
    static constexpr std::uint64_t kWindow = 4096;

    std::mutex mu_;
    std::condition_variable ready_cv_;
    std::condition_variable space_cv_;
    std::map<std::uint64_t, DecodedRecord> pending_;
    std::uint64_t next_ = 0;  // next sequence number the sequencer consumes
    bool closed_ = false;
  };

  /// Hands applicators key-disjoint runs of allocated commits. Claiming is
  /// head-prefix only: a run always starts at the oldest unclaimed commit,
  /// and is claimable only while its shard footprint is disjoint from every
  /// in-flight run's (busy mask). Consequences: (a) two concurrent ApplyBatch
  /// calls never touch the same shard bit, so same-key version installs
  /// always happen in increasing timestamp order; (b) every claimed bit is
  /// owned by exactly one run, so completion clears with busy &= ~mask;
  /// (c) progress is guaranteed — the head conflicts only with runs that are
  /// actively installing and will complete.
  class ApplyScheduler {
   public:
    struct Run {
      std::vector<DirectTask> tasks;  // empty => closed and drained
      std::uint64_t mask = 0;
    };

    void Submit(DirectTask task);
    /// Blocks until the head run is claimable (or closed and drained), then
    /// claims up to `limit` consecutive head tasks whose combined footprint
    /// is disjoint from the busy mask. Tasks *within* a run may overlap each
    /// other — they install in one ordered ApplyBatch pass.
    Run ClaimRun(std::size_t limit);
    void CompleteRun(std::uint64_t mask);
    void Close();
    void Reopen();
    std::size_t depth() const;

   private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<DirectTask> pending_;
    std::uint64_t busy_ = 0;
    bool closed_ = false;
  };

  void RefresherLoop();
  void LegacyRefreshRecord(PropagationRecord& record, bool* shutdown);
  void DirectRefreshRecord(PropagationRecord& record);
  void ApplicatorLoop();
  void DirectApplicatorLoop();

  /// Parallel pipeline threads.
  void IngestLoop();
  void DecodeLoop();
  void SequencerLoop();
  void ParallelApplicatorLoop();
  DecodedRecord DecodeRecord(PropagationRecord& record) const;
  /// Resolves the local txn id for a primary commit (normal start-record path
  /// or the commit-without-start recovery); shared by both direct engines.
  TxnId ResolveCommitTxn(TxnId primary_txn_id);
  /// Pushes the accumulated commit batch through the ordered section: one
  /// translate staging pass, one BeginExternalCommitBatch, one visibility
  /// FIFO append, then submits every task to the apply scheduler.
  void FlushCommitBatch(std::vector<PendingCommit>* batch);

  /// Newest local refresh-commit timestamp whose primary timestamp is
  /// <= `primary_snapshot` — the local snapshot at which a remote read must
  /// run to observe exactly the primary prefix up to `primary_snapshot`.
  /// FailedPrecondition when that boundary was pruned away.
  Result<Timestamp> LocalBoundForPrimary(Timestamp primary_snapshot) const;

  /// Tallies one incoming record into the partial-replication counters.
  void CountIncoming(const PropagationRecord& record);

  void AdvanceSeq(Timestamp primary_commit_ts);
  /// Direct engine: pops the visibility FIFO up to the local watermark and
  /// advances seq(DBsec) to the newest covered primary commit.
  void AdvanceSeqToWatermark(Timestamp local_watermark);
  /// Group-apply counter updates shared by both direct apply paths.
  void CountGroupApply(std::size_t batch_size);

  engine::Database* db_;
  SecondaryOptions options_;
  /// True when this site runs the three-stage parallel replay pipeline
  /// (direct_apply with decode_threads > 0). Fixed at construction.
  bool parallel_engine_ = false;

  BlockingQueue<PropagationRecord> update_queue_;
  PendingQueue pending_queue_;  // legacy engine only
  BlockingQueue<ApplyTask> tasks_;
  BlockingQueue<DirectTask> direct_tasks_;  // serial direct engine only

  /// Parallel pipeline plumbing (unused by the other engines).
  BlockingQueue<DecodeJob> decode_queue_;
  ReorderBuffer reorder_;
  ApplyScheduler scheduler_;

  /// Legacy engine: refresh transactions begun on start records, keyed by
  /// primary TxnId. Touched only by the refresher thread.
  std::map<TxnId, std::unique_ptr<txn::Transaction>> refresh_txns_;
  /// Direct engines: local txn ids of externally started transactions, keyed
  /// by primary TxnId. Touched only by the refresher thread (serial) or the
  /// sequencer thread (parallel) — never both in the same configuration.
  std::map<TxnId, TxnId> direct_txns_;

  /// The snapshot being staged; see StageSnapshotRow.
  std::unique_ptr<txn::Transaction> snapshot_txn_;

  std::atomic<Timestamp> applied_seq_{0};
  mutable std::mutex seq_mu_;
  mutable std::condition_variable seq_cv_;

  /// Direct engine: refresh commits awaiting visibility, in allocation (==
  /// local timestamp == primary commit) order. Applicators pop the prefix
  /// the watermark has passed.
  mutable std::mutex visibility_mu_;
  std::deque<std::pair<Timestamp, Timestamp>> visibility_fifo_;

  /// Reader-writer lock: the commit hook and the refresher write, every
  /// secondary read translates under a shared lock (the hot read path).
  mutable std::shared_mutex translate_mu_;
  std::unordered_map<Timestamp, Timestamp> local_to_primary_;
  /// Staged translations keyed by local TxnId, published by the commit hook.
  std::unordered_map<TxnId, Timestamp> pending_translation_;
  /// (primary, local) commit-timestamp pairs of every refresh commit, in
  /// allocation order — strictly increasing in both components, so either
  /// coordinate binary-searches the other (PrimaryPrefixAtLocal /
  /// LocalBoundForPrimary). Pruning drops the prefix below the translation
  /// horizon but always keeps the newest pruned entry as a boundary
  /// sentinel, so bound lookups stay exact down to the horizon. Guarded by
  /// translate_mu_.
  std::deque<std::pair<Timestamp, Timestamp>> primary_local_order_;

  std::atomic<std::uint64_t> refreshed_count_{0};
  std::atomic<std::uint64_t> ro_routed_fresh_{0};
  std::atomic<std::uint64_t> ro_blocked_on_freshness_{0};
  std::atomic<std::uint64_t> active_reads_{0};
  /// EWMA of active_reads_, fixed-point x1024, alpha = 1/8 (see
  /// SampleLoadEstimate).
  std::atomic<std::uint64_t> load_ewma_{0};
  std::atomic<std::uint64_t> stream_discontinuities_{0};
  std::atomic<std::uint64_t> records_filtered_{0};
  std::atomic<std::uint64_t> updates_received_{0};
  std::atomic<std::uint64_t> update_bytes_received_{0};
  std::atomic<std::uint64_t> remote_reads_served_{0};
  std::atomic<std::uint64_t> group_applies_{0};
  std::atomic<std::uint64_t> group_applied_commits_{0};
  std::atomic<std::uint64_t> max_group_apply_{0};

  std::thread refresher_;
  std::vector<std::thread> decoders_;
  std::thread sequencer_;
  std::vector<std::thread> applicators_;
  bool started_ = false;
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_SECONDARY_H_
