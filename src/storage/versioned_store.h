#ifndef LAZYSI_STORAGE_VERSIONED_STORE_H_
#define LAZYSI_STORAGE_VERSIONED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "storage/value.h"
#include "storage/write_set.h"

namespace lazysi {
namespace storage {

/// A value observed by a snapshot read, together with the commit timestamp of
/// the version it came from. The history checkers use the timestamp to decide
/// which committed state a reader saw.
struct VersionedValue {
  Value value;  // shares the stored version's buffer
  Timestamp commit_ts = kInvalidTimestamp;
};

/// Multi-version key-value store: each key maps to a chain of versions in
/// decreasing commit-timestamp order (newest first). Reads at snapshot `s`
/// return the newest version with commit_ts <= s and are therefore never
/// blocked by writers — the property the paper identifies as SI's key benefit
/// (Section 1).
///
/// Layout — lock-free snapshot reads over lock-striped writers:
///
///  - Keys are hash-partitioned across a fixed set of shards. Each shard has
///    (a) an ordered map from key to `KeyNode`, used by writers, scans and
///    counters under the shard's reader-writer lock, and (b) a fixed array
///    of atomic bucket heads forming a lock-free hash index over the same
///    `KeyNode`s. A KeyNode lives inside its map node, so a key costs one
///    allocation; the map never erases, so every KeyNode is immortal.
///  - A key's versions form a singly-linked, newest-first chain of
///    heap-allocated nodes. A node holds its value as a shared `Value`
///    handle, so the store, the write set that installed it and the log
///    record that carried it share one buffer. Writers (serialized per shard by the lock)
///    publish a new node with a release store of the chain head or of the
///    predecessor's `next`; every node is fully constructed before it is
///    published and immutable afterwards (only its `next` pointer changes,
///    and only to splice in an *older* node).
///  - `Get` and `HasCommitAfter` take no lock at all: an acquire load of the
///    bucket head finds the KeyNode, an acquire load of the chain head plus
///    acquire `next` hops finds the newest version with commit_ts <=
///    snapshot. Acquire/release pairing guarantees a reader that observes a
///    node pointer observes the node's contents; a torn prefix is impossible
///    because a chain is only ever extended by swinging exactly one pointer.
///
/// Reclamation contract (who may free what, and when):
///
///  - Shadowed tails: `PruneVersions(horizon)` cuts each chain after the
///    newest node with commit_ts <= horizon (the boundary node) and frees
///    the tail immediately (each freed node drops its reference to its
///    value; the buffer outlives it while a log record, a queued commit or
///    a reader's copy still holds a handle). This is safe without hazard pointers *provided
///    every concurrent lock-free reader runs at a snapshot >= horizon*: such
///    a reader stops at (or before) the boundary node — whose timestamp is
///    <= horizon <= its snapshot — and never loads the severed `next`.
///    The TxnManager guarantees the proviso: it registers every snapshot in
///    an active table before reading and GC horizons are computed from that
///    table (see TxnManager::MinActiveSnapshot).
///  - Historical readers below the horizon (time travel): `PruneVersions`
///    first raises the monotone `gc_floor()` with a seq_cst store, and
///    horizon computation scans the active table only afterwards; a reader
///    registers its snapshot with a seq_cst store and only then loads the
///    floor. This Dekker-style handshake means at least one side sees the
///    other: either the pruner's horizon already accounts for the reader's
///    snapshot, or the reader observes the raised floor and demotes itself
///    to `GetLocked`, which excludes pruning via the shard lock.
///  - Unlinked boundary nodes (a fully-deleted key's tombstone) may still be
///    dereferenced by readers at snapshots >= horizon, so they are never
///    freed in place: they are retired to a list reclaimed only in the
///    destructor. KeyNodes are immortal for the store's lifetime: a pruned
///    key stays in its shard's map and bucket as a ghost with a null chain,
///    which scans, ForEachVisibleInShard, KeyCount and VersionCount skip and
///    a rewrite of the key resurrects.
///  - Values: a reader copies the visible node's `Value` handle while the
///    node is protected by the rules above, so the copy holds its own
///    reference; freeing the node later never frees bytes a reader holds.
///
/// Thread safety: all operations are safe for concurrent use. `Apply` locks
/// one shard at a time and therefore does NOT make a multi-key commit visible
/// atomically by itself; the TxnManager's commit pipeline provides atomicity
/// by never issuing a snapshot >= commit_ts until the commit's installation
/// has finished (the `visible_ts` watermark).
class VersionedStore {
 public:
  static constexpr std::size_t kDefaultShardCount = 16;

  /// `shard_count` is rounded up to a power of two (minimum 1). A store with
  /// one shard reproduces the old single-global-lock layout for writers;
  /// reads are lock-free regardless.
  explicit VersionedStore(std::size_t shard_count = kDefaultShardCount);
  ~VersionedStore();

  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  /// Lock-free snapshot read. NotFound when the key has no version visible
  /// at `snapshot` (never written, written later, or deleted at the
  /// snapshot). Callers must read at snapshots protected per the reclamation
  /// contract above; unprotected historical reads go through GetLocked.
  Result<VersionedValue> Get(const std::string& key, Timestamp snapshot) const;

  /// Snapshot read under the shard's reader lock. Semantically identical to
  /// Get; used for snapshots below gc_floor() (safe against concurrent
  /// pruning without the active-table handshake) and as the contended-read
  /// benchmark baseline.
  Result<VersionedValue> GetLocked(const std::string& key,
                                   Timestamp snapshot) const;

  /// True if any committed version of `key` has commit_ts > `since`; reads
  /// only the chain head (chains are newest-first), lock-free. This is the
  /// first-committer-wins validation primitive: transaction T aborts iff
  /// some overlapping committed transaction wrote a key T also wrote
  /// (Section 2.1).
  bool HasCommitAfter(const std::string& key, Timestamp since) const;

  /// Installs all writes of one committed transaction with the given commit
  /// timestamp, locking each touched shard exactly once. Per-key commit
  /// timestamps must be increasing (enforced by the TxnManager's FCW rule);
  /// cross-shard visibility atomicity is the caller's job (see class
  /// comment).
  void Apply(const WriteSet& writes, Timestamp commit_ts);

  /// One element of a group install: a committed write set and its commit
  /// timestamp. The pointed-to write set must outlive the ApplyBatch call.
  struct TimestampedWrites {
    const WriteSet* writes = nullptr;
    Timestamp commit_ts = kInvalidTimestamp;
  };

  /// Installs a run of committed transactions in a single store pass: all
  /// writes of all commits are bucketed by shard and each touched shard lock
  /// is taken exactly once for the whole batch, instead of once per commit.
  ///
  /// `batch` must be in increasing commit-timestamp order. Unlike Apply,
  /// versions may arrive at a key *out of order across calls* — the direct-
  /// apply refresh engine installs independent runs from concurrent
  /// applicator threads, and two non-overlapping transactions that wrote the
  /// same key may land in either order — so versions are spliced in at their
  /// sorted chain position. Readers cannot observe the transient reordering:
  /// the commit pipeline's visibility watermark only passes a timestamp once
  /// every commit at or below it has fully installed.
  void ApplyBatch(const std::vector<TimestampedWrites>& batch);

  /// Key-ordered scan of all keys in [begin, end) visible at `snapshot`,
  /// produced by a k-way merge of the per-shard ordered runs.
  /// An empty `end` means "to the end of the keyspace".
  std::vector<std::pair<std::string, VersionedValue>> Scan(
      const std::string& begin, const std::string& end,
      Timestamp snapshot) const;

  /// Materializes the full latest-version state (used for recovery clones,
  /// Section 3.4, and for test assertions). Deleted keys are omitted.
  std::map<std::string, std::string> Materialize(Timestamp snapshot) const;

  /// Calls `fn(key, value)` for every key of shard `shard` (< shard_count())
  /// visible at `snapshot`, in key order, under that shard's reader lock.
  /// Visiting every shard covers the whole state once without copying it,
  /// which is how a checkpoint is streamed to disk. `value` is the stored
  /// handle: copying it shares the buffer.
  void ForEachVisibleInShard(
      std::size_t shard, Timestamp snapshot,
      const std::function<void(const std::string&, const Value&)>& fn) const;

  /// Drops all versions that are shadowed by a newer version with
  /// commit_ts <= horizon; the newest such version is kept so reads at or
  /// after `horizon` still succeed. A key left with only a deleted tombstone
  /// at or below the horizon is dropped entirely. Shards are pruned
  /// independently. Returns the number of versions dropped.
  ///
  /// Incremental: a pass visits only the keys on its shard's prune list —
  /// those a write left with a second version or a tombstone, plus those an
  /// earlier pass could not fully prune (versions above its horizon), which
  /// it re-listed. A key off the list holds one live version, which no
  /// horizon can drop, so the result equals a scan of every chain.
  ///
  /// Safety: see the reclamation contract in the class comment. Lock-free
  /// readers concurrent with this call must be at snapshots >= horizon, which
  /// holds when `horizon` <= the TxnManager's MinActiveSnapshot computed
  /// after gc_floor() was raised (Database::GarbageCollect does both; raw
  /// calls with a hand-picked horizon require external quiescence).
  std::size_t PruneVersions(Timestamp horizon);

  /// Monotone high-water mark of every horizon ever passed to PruneVersions
  /// (or RaiseGcFloor). Snapshot reads strictly below the floor must use
  /// GetLocked; the TxnManager's BeginAtSnapshot checks this after pinning.
  Timestamp gc_floor() const {
    return gc_floor_.load(std::memory_order_seq_cst);
  }

  /// Raises gc_floor() to at least `floor` without pruning. The GC driver
  /// publishes its upper bound *before* computing the exact horizon from the
  /// active-snapshot table, closing the race against a concurrent historical
  /// Begin (see the reclamation contract).
  void RaiseGcFloor(Timestamp floor);

  /// Replaces the entire contents with `state`, all versions stamped
  /// `commit_ts`. Used when installing a recovery clone at a secondary.
  /// Old chains are retired, not freed, so stray concurrent readers (there
  /// should be none during recovery) never touch freed memory; every old
  /// key becomes a ghost until the clone rewrites it.
  void InstallClone(const std::map<std::string, std::string>& state,
                    Timestamp commit_ts);

  std::size_t KeyCount() const;
  std::size_t VersionCount() const;

  std::size_t shard_count() const { return shards_.size(); }

  /// Shard index `key` hashes to; stable for the lifetime of the store. The
  /// TxnManager keys its per-shard last-commit watermarks off this mapping.
  std::size_t ShardOf(const std::string& key) const;

  /// 64-bit shard-occupancy bitmap of a write set: bit (ShardOf(key) mod 64)
  /// is set for every key the set touches. Two write sets with disjoint
  /// footprints touch disjoint shards (the converse may not hold when the
  /// store has more than 64 shards — the fold is conservative, so a false
  /// collision only costs parallelism, never correctness). The secondary's
  /// key-disjoint apply scheduler runs non-overlapping runs concurrently
  /// based on these masks.
  std::uint64_t ShardFootprint(const WriteSet& writes) const;

 private:
  /// One version of one key. Immutable after publication except `next`,
  /// which only ever changes to splice in an older node (ApplyBatch) or to
  /// sever a pruned tail.
  struct VersionNode {
    Timestamp commit_ts;
    bool deleted;
    Value value;
    std::atomic<VersionNode*> next{nullptr};  // next-older version
  };

  /// Immortal per-key anchor, embedded in its shard's map node: lives in
  /// the map and in exactly one bucket chain from first write until the
  /// store is destroyed. `head` is the newest version (nullptr when the key
  /// is fully pruned — a ghost awaiting resurrection).
  struct KeyNode {
    const std::string* key = nullptr;  // the map node's key
    std::uint64_t hash = 0;
    std::atomic<VersionNode*> head{nullptr};
    std::atomic<KeyNode*> bucket_next{nullptr};
    bool listed = false;  // on its shard's prune_list (under the shard's mu)
  };

  /// Buckets per shard for the lock-free reader index (power of two).
  static constexpr std::size_t kBucketsPerShard = 512;

  struct Shard {
    mutable std::shared_mutex mu;
    /// Every key ever written to this shard, ghosts included; writers,
    /// scans and counters only (under `mu`). Never erased from.
    std::map<std::string, KeyNode> chains;
    /// Keys in `chains` with a non-null head (under `mu`).
    std::size_t live = 0;
    /// Lock-free reader index over the KeyNodes in `chains`. Written only
    /// under `mu`, read without it.
    std::vector<std::atomic<KeyNode*>> buckets =
        std::vector<std::atomic<KeyNode*>>(kBucketsPerShard);
    /// Unlinked version nodes that a concurrent reader may still hold;
    /// reclaimed in the destructor (under `mu`).
    std::vector<VersionNode*> retired;
    /// Keys whose chain may hold versions a prune can drop (see
    /// PruneVersions); each appears once, marked by KeyNode::listed.
    std::vector<KeyNode*> prune_list;
  };

  std::size_t BucketOf(std::uint64_t hash) const {
    return (hash >> 16) & (kBucketsPerShard - 1);
  }

  /// Lock-free KeyNode lookup via the bucket index; nullptr when the key was
  /// never written.
  const KeyNode* FindKeyNode(const Shard& shard, std::uint64_t hash,
                             const std::string& key) const;

  /// Writer-side lookup-or-insert; caller holds the shard's unique lock.
  /// A ghost is returned as is (its null head marks it).
  KeyNode* FindOrCreateKeyNode(Shard& shard, std::uint64_t hash,
                               const std::string& key);

  /// Splices `{commit_ts, value, deleted}` into the (newest-first) chain at
  /// its sorted position; drops exact-timestamp duplicates (replayed
  /// writes). Returns false for a dropped duplicate. Caller holds the
  /// shard's unique lock.
  bool InsertVersionSorted(KeyNode* node, Timestamp commit_ts,
                           const Value& value, bool deleted);

  /// Lists `node` for the next prune after a write gave its chain a second
  /// version or a tombstone. Caller holds the shard's unique lock.
  static void ListForPrune(Shard& shard, KeyNode* node);

  /// Prunes one listed chain at `horizon` and re-lists it if versions above
  /// the horizon remain prunable later. Returns the versions dropped.
  /// Caller holds the shard's unique lock and has unlisted `node`.
  static std::size_t PruneChain(Shard& shard, KeyNode* node,
                                Timestamp horizon);

  /// Newest version with commit_ts <= snapshot, starting from an
  /// acquire-loaded head; nullptr if none.
  static const VersionNode* VisibleVersion(const VersionNode* head,
                                           Timestamp snapshot);

  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;  // shards_.size() - 1, size is a power of two
  std::atomic<Timestamp> gc_floor_{0};
};

/// Partition index of `key` under hash partitioning: a stable 64-bit hash
/// reduced modulo `num_partitions`. Uses a seed distinct from ShardOf's so
/// partition placement stays decorrelated from intra-store shard placement
/// (a partition's keys still spread across all store shards). Lives next to
/// ShardFootprint because both are key-placement primitives shared by the
/// store and the replication layer.
std::size_t HashPartitionOfKey(std::string_view key,
                               std::size_t num_partitions);

/// Partition index of `key` under range partitioning: the key's first eight
/// bytes, read big-endian (shorter keys zero-padded), scaled proportionally
/// over the 2^64 prefix space — partitions are contiguous key ranges of
/// equal prefix width.
std::size_t RangePartitionOfKey(std::string_view key,
                                std::size_t num_partitions);

}  // namespace storage
}  // namespace lazysi

#endif  // LAZYSI_STORAGE_VERSIONED_STORE_H_
