#ifndef LAZYSI_REPLICATION_PARTITION_MAP_H_
#define LAZYSI_REPLICATION_PARTITION_MAP_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/versioned_store.h"

namespace lazysi {
namespace replication {

/// Static assignment of the keyspace to the secondary fleet: keys hash (or
/// range) into `num_partitions` partitions, and each partition is replicated
/// on `replication_factor` secondaries chosen round-robin
/// (replicas(p) = {(p + j) mod S : j < R}). Round-robin keeps per-secondary
/// coverage balanced (every secondary covers ceil(P*R/S) or floor(P*R/S)
/// partitions) and, with R >= 2, guarantees any single secondary failure
/// leaves every partition with a live replica.
///
/// The map is immutable after construction and shared (via shared_ptr) by
/// the system, the propagator's per-sink filters, and the router, so all
/// layers agree on placement without synchronization.
///
/// A replication_factor of 0 (the default) or >= the fleet size means full
/// replication: every secondary covers every partition and `partial()` is
/// false, which makes every filter a no-op and degrades routing, GC floors,
/// and reads to the pre-partitioning behavior.
class PartitionMap {
 public:
  enum class Scheme {
    kHash,   // storage::HashPartitionOfKey
    kRange,  // storage::RangePartitionOfKey (contiguous key ranges)
  };

  struct Config {
    std::size_t num_partitions = 1;
    std::size_t replication_factor = 0;  // 0 or >= fleet size => full
    Scheme scheme = Scheme::kHash;
  };

  PartitionMap(Config config, std::size_t num_secondaries);

  std::size_t num_partitions() const { return num_partitions_; }
  std::size_t num_secondaries() const { return num_secondaries_; }
  std::size_t replication_factor() const { return replication_factor_; }
  Scheme scheme() const { return scheme_; }

  /// True when at least one secondary does not replicate the whole keyspace.
  bool partial() const { return partial_; }

  std::size_t PartitionOf(const std::string& key) const;

  /// Secondary indices replicating `partition`, ascending.
  const std::vector<std::size_t>& Replicas(std::size_t partition) const {
    return replicas_[partition];
  }

  /// Partition indices covered by `secondary`, ascending.
  const std::vector<std::size_t>& Coverage(std::size_t secondary) const {
    return coverage_[secondary];
  }

  bool Covers(std::size_t secondary, std::size_t partition) const {
    return covers_[secondary][partition];
  }

  bool CoversKey(std::size_t secondary, const std::string& key) const {
    return covers_[secondary][PartitionOf(key)];
  }

  /// Fraction of partitions `secondary` covers, in (0, 1].
  double CoverageFraction(std::size_t secondary) const {
    return static_cast<double>(coverage_[secondary].size()) /
           static_cast<double>(num_partitions_);
  }

 private:
  std::size_t num_partitions_;
  std::size_t num_secondaries_;
  std::size_t replication_factor_;  // effective (clamped to fleet size)
  Scheme scheme_;
  bool partial_;
  std::vector<std::vector<std::size_t>> replicas_;  // [partition] -> secondaries
  std::vector<std::vector<std::size_t>> coverage_;  // [secondary] -> partitions
  std::vector<std::vector<bool>> covers_;           // [secondary][partition]
};

/// Coverage filter a propagation sink registers with the Propagator. An
/// inactive filter (no map, or a map that is not partial, or a secondary
/// that covers everything) passes records through untouched. An active one
/// drops the updates of keys outside the secondary's partitions from each
/// PropCommit, recording how many were dropped in PropCommit::filtered —
/// the record itself (and its stream seq) is always delivered, so the
/// sink's seq/ack stream, resync, and the visibility watermark are
/// oblivious to filtering.
struct SinkFilter {
  std::shared_ptr<const PartitionMap> map;
  std::size_t secondary_index = 0;

  bool active() const {
    return map != nullptr && map->partial() &&
           map->Coverage(secondary_index).size() < map->num_partitions();
  }

  bool CoversKey(const std::string& key) const {
    return map->CoversKey(secondary_index, key);
  }

  /// CoversKey as a key predicate; empty when the filter passes every key.
  std::function<bool(const std::string&)> KeyPredicate() const {
    if (!active()) return nullptr;
    return [filter = *this](const std::string& key) {
      return filter.CoversKey(key);
    };
  }
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_PARTITION_MAP_H_
