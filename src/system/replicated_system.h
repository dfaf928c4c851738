#ifndef LAZYSI_SYSTEM_REPLICATED_SYSTEM_H_
#define LAZYSI_SYSTEM_REPLICATED_SYSTEM_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/checkpointer.h"
#include "engine/database.h"
#include "history/recorder.h"
#include "net/event_loop.h"
#include "replication/partition_map.h"
#include "replication/primary.h"
#include "replication/secondary.h"
#include "replication/tcp_replication.h"
#include "replication/transport.h"
#include "session/session.h"

namespace lazysi {
namespace system {

struct SystemConfig {
  std::size_t num_secondaries = 1;
  /// Which global guarantee client transactions get (Section 6's three
  /// algorithms).
  session::Guarantee guarantee = session::Guarantee::kStrongSessionSI;
  /// Applicator pool size at each secondary (Section 3.3).
  std::size_t applicator_threads = 4;
  /// Refresh engine at each secondary: true (default) uses the direct-apply
  /// engine (pre-allocated local commit timestamps + group installs into the
  /// store, visibility via the commit watermark); false uses the legacy
  /// transactional refresh path, kept for differential testing.
  bool direct_apply_refresh = true;
  /// Decode-pool size at each secondary's direct-apply engine. > 0 (the
  /// default) selects the parallel replay pipeline (decode pool -> batched
  /// ordered timestamp allocation -> key-disjoint concurrent group-apply);
  /// 0 selects the serial single-refresher direct path. Ignored when
  /// direct_apply_refresh is false.
  std::size_t decode_threads = 2;
  /// 0 = continuous propagation; > 0 models the paper's propagation_delay.
  std::chrono::milliseconds propagation_batch_interval{0};
  /// Per-record network latency on the primary -> secondary path (a
  /// LatencyChannel per secondary); models WAN replicas in the real system.
  std::chrono::milliseconds network_latency{0};
  /// Uniform extra network delay in [0, jitter]; FIFO order is preserved.
  std::chrono::milliseconds network_jitter{0};
  /// How long a blocked read-only transaction waits for seq(DBsec) to catch
  /// up before giving up with TimedOut.
  std::chrono::milliseconds read_block_timeout{10000};
  /// Record every committed transaction for offline SI checking.
  bool record_history = false;
  /// Fault injection on the primary -> secondary transport. Any nonzero rate
  /// routes each secondary's records through the replication stream the
  /// deployment runs (ReplicationListener -> loopback TCP ->
  /// ReplicationReceiver, the wire codec on the hot path) instead of handing
  /// them between threads directly, with these faults injected into every
  /// frame the listener writes; the stream's CRC check, seq dedup and
  /// HELLO/WELCOME resync restore Section 3.2's reliable-FIFO contract.
  replication::FaultProfile transport_faults;
  /// Fault RNG seed; secondary i draws from transport_seed + i, so a run
  /// with a fixed seed replays its exact fault schedule.
  std::uint64_t transport_seed = 42;
  /// Route each secondary's records through the replication stream even
  /// with an all-zero fault profile.
  bool transport_tcp = false;
  /// Route each read-only transaction to a round-robin secondary instead of
  /// the session's home secondary. Exposes the strong-session-SI vs PCSI
  /// difference (Section 7): under PCSI a roaming session's snapshots may
  /// regress between reads; under strong session SI they cannot.
  bool roam_reads = false;
  /// Freshness-aware read routing (takes precedence over roam_reads): each
  /// read-only transaction goes to the least-loaded live secondary whose
  /// seq(DBsec) already covers the session's seq(c), so the blocking rule of
  /// ALG-STRONG-SESSION-SI is satisfied *by placement* and the read starts
  /// immediately. If no secondary is fresh enough the read falls back to the
  /// freshest one and blocks there (counted in ro_blocked_on_freshness).
  /// Under weak SI seq(c) never gates reads, so this degrades to pure
  /// least-loaded balancing.
  bool freshness_routing = false;
  /// Background version-GC cadence: > 0 runs GarbageCollectAll on a
  /// maintenance thread every interval while the system is started. 0 (the
  /// default) disables it — tests that assert exact chain shapes or record
  /// history for offline SI checking rely on GC running only when invoked
  /// explicitly (the cadence also skips translation pruning when
  /// record_history is set, since pruning at non-quiesced points makes
  /// primary-coordinate history approximate).
  std::chrono::milliseconds gc_interval{0};
  /// Keep per-commit state-hash chains (Theorem 3.1 assertions).
  bool record_state_chain = true;
  /// Partial replication: number of keyspace partitions. 1 (the default)
  /// keeps full replication. With more partitions, each secondary receives
  /// only the write sets intersecting its assigned partitions; reads of
  /// uncovered keys are served SCAR-style by a covering replica at the
  /// transaction's snapshot timestamp.
  std::size_t num_partitions = 1;
  /// Replicas per partition (round-robin over the fleet). 0 or >= the fleet
  /// size means every secondary covers every partition (full replication).
  /// With >= 2, any single secondary failure leaves every partition covered.
  std::size_t partition_replication = 0;
  /// How keys map to partitions: hash (default) or contiguous ranges.
  replication::PartitionMap::Scheme partition_scheme =
      replication::PartitionMap::Scheme::kHash;
  /// Durable write-ahead log behind the primary's commit path. Requires
  /// data_dir; the primary restores itself from the data directory's
  /// checkpoint + log suffix at construction (fresh secondaries are then
  /// initialized from the restored state), and every commit ack waits for
  /// its log record to reach disk per fsync_mode.
  bool durable_log = false;
  /// Primary data directory: `<data_dir>/wal/*.seg` segments plus
  /// checkpoint-<lsn> and MANIFEST files. Empty = in-memory only.
  std::string data_dir;
  /// Commit durability discipline: "always" (one fdatasync per commit, the
  /// honest baseline), "group" (default; one writer thread batches all
  /// concurrently-committing transactions into one write + fdatasync),
  /// "never" (write-behind, acks do not wait for disk).
  std::string fsync_mode = "group";
  /// Group mode: how long the writer lingers after the first pending record
  /// before flushing, letting more committers pile into the batch. 0 =
  /// flush as soon as the writer wakes (pure concurrency-driven batching).
  std::chrono::microseconds group_flush_interval{0};
  /// Group mode: flush early once this many encoded bytes are pending.
  std::size_t max_group_bytes = 1 << 20;
  /// Checkpoint-and-truncate cadence; 0 = manual only (CheckpointNow via
  /// checkpointer()).
  std::chrono::milliseconds checkpoint_interval{0};
};

class ReplicatedSystem;
class ClientConnection;

/// A client transaction routed through the middleware: read-only
/// transactions run at the client's secondary, update transactions at the
/// primary (Figure 1). Obtained from ClientConnection::BeginRead/BeginUpdate.
class SystemTransaction {
 public:
  ~SystemTransaction();

  SystemTransaction(const SystemTransaction&) = delete;
  SystemTransaction& operator=(const SystemTransaction&) = delete;

  bool read_only() const { return read_only_; }
  /// Primary commit timestamp after a successful update commit.
  Timestamp commit_primary_ts() const { return commit_primary_ts_; }

  Result<storage::Value> Get(const std::string& key);
  Status Put(const std::string& key, storage::Value value);
  Status Delete(const std::string& key);
  Result<std::vector<std::pair<std::string, storage::Value>>> Scan(
      const std::string& begin, const std::string& end);

  /// Commits; on update transactions advances seq(c) to commit_p(T)
  /// (ALG-STRONG-SESSION-SI, Section 4) and may fail with WriteConflict
  /// under first-committer-wins.
  Status Commit();
  void Abort();

 private:
  friend class ClientConnection;
  SystemTransaction(ReplicatedSystem* sys,
                    std::shared_ptr<session::Session> session,
                    std::unique_ptr<txn::Transaction> txn,
                    replication::Secondary* secondary, SiteId site,
                    bool read_only, std::uint64_t first_op_seq,
                    Timestamp snapshot_primary);

  void RecordRead(const std::string& key, Timestamp local_version_ts,
                  bool found, bool own_write);
  /// Records an observation already expressed in primary coordinates (the
  /// remote-read path skips local->primary translation).
  void RecordPrimaryRead(const std::string& key, Timestamp primary_ts,
                         bool found);
  /// True when `key` must be served by another secondary: this is a
  /// partition-routed read-only transaction and the home replica does not
  /// cover the key's partition.
  bool RemoteRouted(const std::string& key) const;
  /// SCAR-style cross-partition read: serve `key` from a covering replica
  /// whose applied prefix contains snapshot_primary_; stale replicas are
  /// rejected (counted) and the next one tried rather than blocking on full
  /// freshness. When every covering replica is stale, waits on the freshest
  /// one for just the snapshot prefix (not full freshness) and retries once.
  Result<replication::Secondary::RemoteRead> RemoteReadKey(
      const std::string& key);
  /// Scan counterpart: items of `partition` within [begin, end) at
  /// snapshot_primary_, from a covering replica.
  Result<std::vector<replication::Secondary::RemoteScanItem>>
  RemoteScanPartition(std::size_t partition, const std::string& begin,
                      const std::string& end);

  ReplicatedSystem* sys_;
  std::shared_ptr<session::Session> session_;
  std::unique_ptr<txn::Transaction> txn_;
  replication::Secondary* secondary_;  // nullptr for primary transactions
  SiteId site_;
  bool read_only_;
  Timestamp commit_primary_ts_ = kInvalidTimestamp;
  std::uint64_t first_op_seq_ = 0;
  /// Read-only transactions under a partial partition map: the exact primary
  /// prefix contained in this transaction's local snapshot, computed at
  /// begin. Cross-partition reads are validated against it so every
  /// partition serves the same primary state (read atomicity across
  /// partitions).
  Timestamp snapshot_primary_ = 0;
  /// Largest primary commit timestamp provably contained in this read-only
  /// transaction's snapshot (max over observed versions). Folded into
  /// seq(c) at commit when the guarantee requires read-read monotonicity.
  Timestamp snapshot_floor_ = 0;
  std::vector<history::RecordedRead> recorded_reads_;
  bool finished_ = false;
};

/// A client's connection: bound to one secondary site, owning one session
/// (label + seq(c)). All of the client's transactions flow through here, as
/// in the paper's model where each client submits to a single secondary.
class ClientConnection {
 public:
  /// Begins a read-only transaction at the bound secondary. Under
  /// ALG-STRONG-SESSION-SI / ALG-STRONG-SI this blocks until
  /// seq(DBsec) >= seq(c); TimedOut if the secondary cannot catch up within
  /// the configured timeout, Unavailable if the secondary has failed.
  Result<std::unique_ptr<SystemTransaction>> BeginRead();

  /// Begins an update transaction, forwarded to the primary.
  Result<std::unique_ptr<SystemTransaction>> BeginUpdate();

  /// Runs `body` inside an update transaction, retrying on first-committer-
  /// wins conflicts up to `max_attempts` times. `body` returning non-OK
  /// aborts and propagates that status.
  Status ExecuteUpdate(
      const std::function<Status(SystemTransaction&)>& body,
      int max_attempts = 5);

  /// Runs `body` inside a read-only transaction.
  Status ExecuteRead(const std::function<Status(SystemTransaction&)>& body);

  session::Session* session() { return session_.get(); }
  std::size_t secondary_index() const { return secondary_index_; }

 private:
  friend class ReplicatedSystem;
  ClientConnection(ReplicatedSystem* sys,
                   std::shared_ptr<session::Session> session,
                   std::size_t secondary_index)
      : sys_(sys), session_(std::move(session)),
        secondary_index_(secondary_index) {}

  ReplicatedSystem* sys_;
  std::shared_ptr<session::Session> session_;
  std::size_t secondary_index_;
};

/// The complete lazy-master replicated system of Figure 1: one primary, N
/// secondaries, lazy update propagation, and the configured global
/// transactional guarantee.
class ReplicatedSystem {
 public:
  explicit ReplicatedSystem(SystemConfig config = SystemConfig());
  ~ReplicatedSystem();

  ReplicatedSystem(const ReplicatedSystem&) = delete;
  ReplicatedSystem& operator=(const ReplicatedSystem&) = delete;

  void Start();
  void Stop();

  /// Connects a new client, bound round-robin to a secondary.
  std::unique_ptr<ClientConnection> Connect();
  /// Connects to a specific secondary.
  std::unique_ptr<ClientConnection> ConnectTo(std::size_t secondary_index);

  engine::Database* primary_db() { return &primary_db_; }
  replication::Primary* primary() { return &primary_; }
  std::size_t num_secondaries() const { return secondaries_.size(); }
  replication::Secondary* secondary(std::size_t i);
  engine::Database* secondary_db(std::size_t i);

  const SystemConfig& config() const { return config_; }
  history::Recorder* recorder() { return &recorder_; }
  session::SessionManager* session_manager() { return &sessions_; }

  /// Point-in-time monitoring snapshot of one secondary.
  struct SecondaryStats {
    std::size_t index = 0;
    bool failed = false;
    /// seq(DBsec), in primary commit timestamps.
    Timestamp applied_seq = 0;
    /// primary latest commit ts minus applied_seq (staleness, in
    /// timestamp units; 0 when fully caught up).
    Timestamp lag = 0;
    std::uint64_t refreshed_count = 0;
    std::size_t update_queue_depth = 0;
    /// Freshness-router counters: reads placed here because seq(DBsec)
    /// already covered the session's seq(c), reads sent here as the
    /// freshest-available fallback (which then block), and read-only
    /// transactions currently open (the router's load signal).
    std::uint64_t ro_routed_fresh = 0;
    std::uint64_t ro_blocked_on_freshness = 0;
    std::uint64_t active_reads = 0;
    /// EWMA load estimate the router actually samples (fixed-point x1024;
    /// divide by 1024 for the smoothed active-read count).
    std::uint64_t load_estimate = 0;
    /// Size of the local->primary commit-timestamp translation table
    /// (bounded by GarbageCollectAll's pruning).
    std::size_t translation_count = 0;
    /// Times the ingest stream jumped backwards/forwards relative to the
    /// expected next sequence (resyncs after transport faults; replayed
    /// prefixes are deduplicated, so this counts stream repair events, not
    /// lost updates).
    std::uint64_t stream_discontinuities = 0;
    /// Partial replication: update records the propagator filtered out of
    /// this sink (not covered here), records actually received, their
    /// payload bytes, and cross-partition reads this replica served for
    /// other sites' transactions.
    std::uint64_t records_filtered = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t update_bytes_received = 0;
    std::uint64_t remote_reads_served = 0;
    /// Partitions assigned to this secondary (== num_partitions under full
    /// replication).
    std::size_t covered_partitions = 0;
    /// Direct-apply engine counters: store passes, commits they covered
    /// (avg group size = commits / passes), and the largest single group.
    /// All zero under the legacy engine.
    std::uint64_t group_applies = 0;
    std::uint64_t group_applied_commits = 0;
    std::uint64_t max_group_apply = 0;
    /// Replication-stream counters; all zero on the direct in-process path
    /// (no transport configured). Records delivered, resyncs (reconnect
    /// handshakes, each repairing a cut), frames failing their CRC, and
    /// replayed records dropped as duplicates; then the injected faults:
    /// frames lost (each cuts the connection), frames corrupted, and
    /// spontaneous disconnects.
    std::uint64_t transport_delivered = 0;
    std::uint64_t transport_resyncs = 0;
    std::uint64_t transport_crc_rejected = 0;
    std::uint64_t transport_duplicates = 0;
    std::uint64_t link_dropped = 0;
    std::uint64_t link_corrupted = 0;
    std::uint64_t link_disconnects = 0;
    /// Wire volume: BATCH frames and bytes the listener offered toward this
    /// secondary, and what its receiver actually read (the gap is what cuts
    /// lost; duplicates inflate the delivered side).
    std::uint64_t link_frames_sent = 0;
    std::uint64_t link_frames_delivered = 0;
    std::uint64_t link_bytes_sent = 0;
    std::uint64_t link_bytes_delivered = 0;
  };

  /// Point-in-time monitoring snapshot of the whole system.
  struct SystemStats {
    Timestamp primary_latest_commit_ts = 0;
    std::uint64_t primary_committed = 0;
    std::uint64_t primary_aborted = 0;
    std::uint64_t commits_propagated = 0;
    std::vector<SecondaryStats> secondaries;
    /// Partial replication: per-partition applied floors (min applied_seq
    /// over the partition's live replicas; empty under full replication),
    /// SCAR validation rejects (a covering replica was too stale for the
    /// snapshot and another was tried), and cross-partition reads routed to
    /// a remote replica.
    std::vector<Timestamp> partition_floors;
    std::uint64_t scar_stale_rejects = 0;
    std::uint64_t remote_partition_reads = 0;
    /// Durability counters (all zero without durable_log): fdatasync calls,
    /// records flushed to disk, group sizes (records per flush batch),
    /// checkpoints taken, and log bytes reclaimed by truncation.
    bool durable = false;
    std::uint64_t fsyncs = 0;
    std::uint64_t records_flushed = 0;
    double mean_group_size = 0.0;
    std::uint64_t max_group_size = 0;
    std::uint64_t checkpoint_count = 0;
    std::uint64_t log_bytes_truncated = 0;

    std::string ToString() const;
  };
  SystemStats Stats();

  const replication::PartitionMap& partition_map() const {
    return *partition_map_;
  }

  /// Per-partition applied floors: for each partition, the minimum
  /// applied_seq over its live replicas (0 when a partition currently has no
  /// live replica — nothing below it may be pruned until one recovers).
  std::vector<Timestamp> PartitionFloors();

  /// Version garbage collection across the primary and every live
  /// secondary; each site prunes at its own safe horizon (oldest active
  /// snapshot). Also prunes each secondary's local->primary translation
  /// table below its *partition floor*: the minimum per-partition applied
  /// floor (min applied_seq over each partition's live replicas) across the
  /// partitions the secondary covers. Under full replication every
  /// secondary covers every partition, so this degenerates to the fleet-wide
  /// minimum applied_seq. Every live replica of the covered partitions
  /// already serves state at least that new, so a session floor derived from
  /// a pruned entry could never block or reorder anything — and a partition
  /// with a dead replica holds its floor down until recovery, keeping the
  /// recovering site's translations intact. Returns the total number of
  /// versions reclaimed.
  /// Pruning never affects replication: the propagator ships update
  /// *records* from the log, not store versions. Pass prune_translations =
  /// false to reclaim versions only (the background cadence does this when
  /// history recording is on, because translation pruning at non-quiesced
  /// points makes primary-coordinate history approximate).
  std::size_t GarbageCollectAll(bool prune_translations = true);

  /// Number of background GC passes completed (gc_interval cadence).
  std::uint64_t gc_passes() const {
    return gc_passes_.load(std::memory_order_relaxed);
  }

  /// Durable-log plumbing (null without config.durable_log).
  wal::DurableLog* durable_log() { return durable_log_.get(); }
  engine::Checkpointer* checkpointer() { return checkpointer_.get(); }
  /// What the primary restored from its data directory at construction.
  const engine::Database::RestoreReport& restore_report() const {
    return restore_report_;
  }

  /// Blocks until every live secondary has applied all updates committed at
  /// the primary so far. Returns false on timeout.
  bool WaitForReplication(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Simulates a crash of secondary `i`: its pipeline stops and its queued
  /// updates and refresh state are lost (Section 3.4's failure model).
  Status FailSecondary(std::size_t i);

  /// Recovers secondary `i` from a fresh primary checkpoint: installs the
  /// checkpoint into a new local database, re-seeds seq(DBsec) via the
  /// dummy-transaction technique of Section 4, replays the missed log
  /// suffix, and rejoins live propagation. The primary must be quiesced (no
  /// in-flight update transactions) when this is called.
  Status RecoverSecondary(std::size_t i);

 private:
  friend class ClientConnection;
  friend class SystemTransaction;

  struct SecondarySite {
    std::unique_ptr<engine::Database> db;
    std::unique_ptr<replication::Secondary> replica;
    /// Present only when the config models network latency.
    std::unique_ptr<replication::LatencyChannel> channel;
    /// Present only in transported mode (transport_faults or
    /// transport_tcp): the secondary's own listener on loopback, attached
    /// to the propagator with the secondary's partition filter and fault
    /// schedule, and the receiver feeding the latency channel (if any) or
    /// the update queue.
    std::unique_ptr<replication::ReplicationListener> listener;
    std::unique_ptr<replication::ReplicationReceiver> receiver;
    std::atomic<bool> failed{false};
  };

  /// Looks up a live secondary site; nullptr when failed.
  SecondarySite* site(std::size_t i);

  /// Freshness-aware read placement: the least-loaded live secondary with
  /// applied_seq >= need, else the freshest live secondary (the read will
  /// block there), else nullptr when every secondary has failed. Bumps the
  /// chosen site's router counter and stores its index in *index_out.
  SecondarySite* RouteRead(Timestamp need, std::size_t* index_out);

  void GcLoop();

  bool transported() const {
    return config_.transport_faults.any() || config_.transport_tcp;
  }

  /// Builds `site`'s replication stream: a started listener carrying
  /// secondary `i`'s filter and faults drawn from `fault_seed`, and an
  /// unstarted receiver that asks for a replay from `from_lsn`.
  Status OpenStream(SecondarySite* site, std::size_t i,
                    std::uint64_t fault_seed, std::size_t from_lsn);

  /// The partition filter secondary `i`'s replication stream runs through
  /// (inactive under full replication).
  replication::SinkFilter FilterFor(std::size_t i) const {
    return replication::SinkFilter{partition_map_, i};
  }

  /// PartitionFloors() body; callers hold sites_mu_ (either mode).
  std::vector<Timestamp> PartitionFloorsLocked();

  /// Minimum LSN any propagation sink may still need for a resync (the
  /// checkpointer's log_floor): in transported mode, the min over live
  /// streams of the sync point their next resync replays from; on the
  /// direct in-process path, the propagator's position.
  std::uint64_t PropagationFloor();

  SystemConfig config_;
  std::shared_ptr<const replication::PartitionMap> partition_map_;
  engine::Database primary_db_;
  replication::Primary primary_;
  /// Present only with config.durable_log: the on-disk log the primary's
  /// commits are gated on, and the checkpoint-and-truncate driver.
  std::unique_ptr<wal::DurableLog> durable_log_;
  std::unique_ptr<engine::Checkpointer> checkpointer_;
  engine::Database::RestoreReport restore_report_;
  /// Transported mode only: the reactor every stream's listener and
  /// receiver share. Declared before secondaries_ so it outlives them.
  std::unique_ptr<net::EventLoop> loop_;
  std::shared_mutex sites_mu_;
  std::vector<std::unique_ptr<SecondarySite>> secondaries_;
  session::SessionManager sessions_;
  history::Recorder recorder_;
  std::atomic<std::size_t> next_secondary_{0};
  bool started_ = false;
  /// Cross-partition read counters (partial replication only).
  std::atomic<std::uint64_t> scar_stale_rejects_{0};
  std::atomic<std::uint64_t> remote_partition_reads_{0};

  /// Background GC cadence (gc_interval > 0).
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool gc_stop_ = false;
  std::atomic<std::uint64_t> gc_passes_{0};
  std::thread gc_thread_;
};

}  // namespace system
}  // namespace lazysi

#endif  // LAZYSI_SYSTEM_REPLICATED_SYSTEM_H_
