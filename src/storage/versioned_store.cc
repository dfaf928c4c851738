#include "storage/versioned_store.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <queue>

#include "common/hash.h"

namespace lazysi {
namespace storage {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  if (n <= 1) return 1;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

VersionedStore::VersionedStore(std::size_t shard_count)
    : shards_(RoundUpPow2(shard_count)), shard_mask_(shards_.size() - 1) {}

VersionedStore::~VersionedStore() {
  for (Shard& shard : shards_) {
    // Every linked version node is reachable from its KeyNode's head; the
    // KeyNodes themselves go with the map. Unlinked version nodes sit in the
    // retired list.
    for (auto& [key, node] : shard.chains) {
      VersionNode* v = node.head.load(std::memory_order_relaxed);
      while (v != nullptr) {
        VersionNode* next = v->next.load(std::memory_order_relaxed);
        delete v;
        v = next;
      }
    }
    for (VersionNode* v : shard.retired) delete v;
  }
}

std::size_t VersionedStore::ShardOf(const std::string& key) const {
  return static_cast<std::size_t>(Fnv1a64(key)) & shard_mask_;
}

std::uint64_t VersionedStore::ShardFootprint(const WriteSet& writes) const {
  std::uint64_t mask = 0;
  for (const auto& [key, w] : writes.entries()) {
    mask |= std::uint64_t{1} << (ShardOf(key) & 63);
  }
  return mask;
}

const VersionedStore::VersionNode* VersionedStore::VisibleVersion(
    const VersionNode* head, Timestamp snapshot) {
  // Newest-first walk: the first node at or below the snapshot is the
  // visible one. Acquire loads pair with the writers' release publications,
  // so a node pointer observed here always refers to a fully constructed,
  // immutable node.
  const VersionNode* v = head;
  while (v != nullptr && v->commit_ts > snapshot) {
    v = v->next.load(std::memory_order_acquire);
  }
  return v;
}

const VersionedStore::KeyNode* VersionedStore::FindKeyNode(
    const Shard& shard, std::uint64_t hash, const std::string& key) const {
  const KeyNode* k =
      shard.buckets[BucketOf(hash)].load(std::memory_order_acquire);
  while (k != nullptr && (k->hash != hash || *k->key != key)) {
    k = k->bucket_next.load(std::memory_order_acquire);
  }
  return k;
}

Result<VersionedValue> VersionedStore::Get(const std::string& key,
                                           Timestamp snapshot) const {
  const std::uint64_t hash = Fnv1a64(key);
  const Shard& shard = shards_[static_cast<std::size_t>(hash) & shard_mask_];
  const KeyNode* k = FindKeyNode(shard, hash, key);
  if (k == nullptr) return Status::NotFound();
  const VersionNode* v =
      VisibleVersion(k->head.load(std::memory_order_acquire), snapshot);
  if (v == nullptr || v->deleted) return Status::NotFound();
  return VersionedValue{v->value, v->commit_ts};
}

Result<VersionedValue> VersionedStore::GetLocked(const std::string& key,
                                                 Timestamp snapshot) const {
  const std::uint64_t hash = Fnv1a64(key);
  const Shard& shard = shards_[static_cast<std::size_t>(hash) & shard_mask_];
  std::shared_lock lock(shard.mu);
  const KeyNode* k = FindKeyNode(shard, hash, key);
  if (k == nullptr) return Status::NotFound();
  const VersionNode* v =
      VisibleVersion(k->head.load(std::memory_order_acquire), snapshot);
  if (v == nullptr || v->deleted) return Status::NotFound();
  return VersionedValue{v->value, v->commit_ts};
}

bool VersionedStore::HasCommitAfter(const std::string& key,
                                    Timestamp since) const {
  const std::uint64_t hash = Fnv1a64(key);
  const Shard& shard = shards_[static_cast<std::size_t>(hash) & shard_mask_];
  const KeyNode* k = FindKeyNode(shard, hash, key);
  if (k == nullptr) return false;
  // The head is always the newest version (sorted splices keep it so).
  const VersionNode* head = k->head.load(std::memory_order_acquire);
  return head != nullptr && head->commit_ts > since;
}

VersionedStore::KeyNode* VersionedStore::FindOrCreateKeyNode(
    Shard& shard, std::uint64_t hash, const std::string& key) {
  // A fully pruned key is still here as a ghost (null head): the caller's
  // write resurrects it, so no reader can ever find two nodes for one key.
  auto [it, inserted] = shard.chains.try_emplace(key);
  KeyNode* node = &it->second;
  if (!inserted) return node;
  node->key = &it->first;
  node->hash = hash;
  std::atomic<KeyNode*>& bucket = shard.buckets[BucketOf(hash)];
  node->bucket_next.store(bucket.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  // Release: a reader that sees the new bucket head sees the node's key,
  // hash and bucket_next.
  bucket.store(node, std::memory_order_release);
  return node;
}

bool VersionedStore::InsertVersionSorted(KeyNode* node, Timestamp commit_ts,
                                         const Value& value, bool deleted) {
  VersionNode* head = node->head.load(std::memory_order_relaxed);
  if (head == nullptr || head->commit_ts < commit_ts) {
    VersionNode* v = new VersionNode{commit_ts, deleted, value};
    v->next.store(head, std::memory_order_relaxed);
    node->head.store(v, std::memory_order_release);
    return true;
  }
  if (head->commit_ts == commit_ts) return false;  // replayed duplicate
  // A later commit's version landed first (concurrent applicator runs);
  // splice at the sorted position. Readers racing the splice see the chain
  // with or without the new node — both are consistent, and the visibility
  // watermark keeps the node below any issued snapshot until its commit's
  // whole batch is installed.
  VersionNode* prev = head;
  for (;;) {
    VersionNode* next = prev->next.load(std::memory_order_relaxed);
    if (next == nullptr || next->commit_ts < commit_ts) {
      VersionNode* v = new VersionNode{commit_ts, deleted, value};
      v->next.store(next, std::memory_order_relaxed);
      prev->next.store(v, std::memory_order_release);
      return true;
    }
    if (next->commit_ts == commit_ts) return false;  // replayed duplicate
    prev = next;
  }
}

void VersionedStore::ListForPrune(Shard& shard, KeyNode* node) {
  if (node->listed) return;
  node->listed = true;
  shard.prune_list.push_back(node);
}

void VersionedStore::Apply(const WriteSet& writes, Timestamp commit_ts) {
  // Bucket the writes by shard so each shard lock is taken exactly once.
  // The scratch vector is thread-local to keep the hot auto-commit path
  // allocation-free after warm-up.
  thread_local std::vector<std::pair<std::size_t, const Write*>> scratch;
  scratch.clear();
  for (const auto& [key, w] : writes.entries()) {
    scratch.emplace_back(ShardOf(key), &w);
  }
  std::stable_sort(scratch.begin(), scratch.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t i = 0;
  while (i < scratch.size()) {
    const std::size_t s = scratch[i].first;
    Shard& shard = shards_[s];
    std::unique_lock lock(shard.mu);
    for (; i < scratch.size() && scratch[i].first == s; ++i) {
      const Write& w = *scratch[i].second;
      KeyNode* node = FindOrCreateKeyNode(shard, Fnv1a64(w.key), w.key);
      VersionNode* head = node->head.load(std::memory_order_relaxed);
      assert(head == nullptr || head->commit_ts < commit_ts);
      VersionNode* v = new VersionNode{commit_ts, w.deleted, w.value};
      v->next.store(head, std::memory_order_relaxed);
      // Release-publish: readers that see the new head see a complete node.
      node->head.store(v, std::memory_order_release);
      if (head == nullptr) ++shard.live;
      if (head != nullptr || w.deleted) ListForPrune(shard, node);
    }
  }
}

void VersionedStore::ApplyBatch(const std::vector<TimestampedWrites>& batch) {
  // Bucket (shard, write, ts) triples across the whole run, then lock each
  // touched shard once. Scratch order within a shard preserves batch order
  // (stable sort), i.e. increasing commit timestamps, so the common case is
  // a cheap head prepend.
  struct Slot {
    std::size_t shard;
    const Write* write;
    Timestamp commit_ts;
  };
  thread_local std::vector<Slot> scratch;
  scratch.clear();
  for (const TimestampedWrites& tw : batch) {
    for (const auto& [key, w] : tw.writes->entries()) {
      scratch.push_back(Slot{ShardOf(key), &w, tw.commit_ts});
    }
  }
  std::stable_sort(scratch.begin(), scratch.end(),
                   [](const Slot& a, const Slot& b) { return a.shard < b.shard; });
  std::size_t i = 0;
  while (i < scratch.size()) {
    const std::size_t s = scratch[i].shard;
    Shard& shard = shards_[s];
    std::unique_lock lock(shard.mu);
    for (; i < scratch.size() && scratch[i].shard == s; ++i) {
      const Write& w = *scratch[i].write;
      KeyNode* node = FindOrCreateKeyNode(shard, Fnv1a64(w.key), w.key);
      const bool had_versions =
          node->head.load(std::memory_order_relaxed) != nullptr;
      if (!InsertVersionSorted(node, scratch[i].commit_ts, w.value,
                               w.deleted)) {
        continue;
      }
      if (!had_versions) ++shard.live;
      if (had_versions || w.deleted) ListForPrune(shard, node);
    }
  }
}

std::vector<std::pair<std::string, VersionedValue>> VersionedStore::Scan(
    const std::string& begin, const std::string& end,
    Timestamp snapshot) const {
  // Collect the ordered run of each shard, then k-way merge. Keys are unique
  // across shards (each key hashes to exactly one), so the merge needs no
  // duplicate handling. Cross-shard consistency comes from SI itself: all
  // commits <= snapshot are fully installed before the snapshot is issued.
  using Entry = std::pair<std::string, VersionedValue>;
  std::vector<std::vector<Entry>> runs;
  runs.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::vector<Entry> run;
    std::shared_lock lock(shard.mu);
    auto it = shard.chains.lower_bound(begin);
    for (; it != shard.chains.end(); ++it) {
      if (!end.empty() && it->first >= end) break;
      const VersionNode* v = VisibleVersion(
          it->second.head.load(std::memory_order_acquire), snapshot);
      if (v != nullptr && !v->deleted) {
        run.emplace_back(it->first, VersionedValue{v->value, v->commit_ts});
      }
    }
    if (!run.empty()) runs.push_back(std::move(run));
  }

  struct Cursor {
    std::size_t run;
    std::size_t pos;
  };
  auto later = [&runs](const Cursor& a, const Cursor& b) {
    return runs[a.run][a.pos].first > runs[b.run][b.pos].first;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  std::size_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    heap.push(Cursor{r, 0});
    total += runs[r].size();
  }
  std::vector<Entry> out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    out.push_back(std::move(runs[c.run][c.pos]));
    if (++c.pos < runs[c.run].size()) heap.push(c);
  }
  return out;
}

std::map<std::string, std::string> VersionedStore::Materialize(
    Timestamp snapshot) const {
  std::map<std::string, std::string> out;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    ForEachVisibleInShard(
        shard, snapshot,
        [&out](const std::string& key, const Value& value) {
          out.emplace(key, value.ToString());
        });
  }
  return out;
}

void VersionedStore::ForEachVisibleInShard(
    std::size_t shard, Timestamp snapshot,
    const std::function<void(const std::string&, const Value&)>& fn) const {
  const Shard& s = shards_[shard];
  std::shared_lock lock(s.mu);
  for (const auto& [key, node] : s.chains) {
    const VersionNode* v =
        VisibleVersion(node.head.load(std::memory_order_acquire), snapshot);
    if (v != nullptr && !v->deleted) fn(key, v->value);
  }
}

void VersionedStore::RaiseGcFloor(Timestamp floor) {
  Timestamp cur = gc_floor_.load(std::memory_order_seq_cst);
  while (floor > cur && !gc_floor_.compare_exchange_weak(
                            cur, floor, std::memory_order_seq_cst)) {
  }
}

std::size_t VersionedStore::PruneChain(Shard& shard, KeyNode* node,
                                       Timestamp horizon) {
  VersionNode* head = node->head.load(std::memory_order_relaxed);
  if (head == nullptr) return 0;
  // Find the boundary: the newest version with commit_ts <= horizon.
  // Everything after it is shadowed for every reader at or above the
  // horizon and can be freed on the spot (see reclamation contract).
  VersionNode* boundary = head;
  while (boundary != nullptr && boundary->commit_ts > horizon) {
    boundary = boundary->next.load(std::memory_order_relaxed);
  }
  std::size_t dropped = 0;
  if (boundary != nullptr) {
    VersionNode* tail = boundary->next.load(std::memory_order_relaxed);
    if (tail != nullptr) {
      boundary->next.store(nullptr, std::memory_order_release);
      while (tail != nullptr) {
        VersionNode* next = tail->next.load(std::memory_order_relaxed);
        delete tail;
        tail = next;
        ++dropped;
      }
    }
    // A chain reduced to a single deleted tombstone at or below the
    // horizon: the key no longer exists for any permissible snapshot.
    // Unlink the chain, but retire the tombstone (a reader at snapshot >=
    // horizon may be holding it) and keep the KeyNode as a ghost.
    if (boundary == head && boundary->deleted) {
      node->head.store(nullptr, std::memory_order_release);
      shard.retired.push_back(boundary);
      --shard.live;
      return dropped + 1;
    }
  }
  // Versions above the horizon still shadow older ones, or a tombstone
  // still waits to fall below it: a later pass with a higher horizon may
  // drop them.
  if (head->next.load(std::memory_order_relaxed) != nullptr || head->deleted) {
    ListForPrune(shard, node);
  }
  return dropped;
}

std::size_t VersionedStore::PruneVersions(Timestamp horizon) {
  // Publish the floor before touching any chain: a historical Begin that
  // misses this store is guaranteed to have been seen by the horizon
  // computation, and one that ran later sees the floor and reads under the
  // shard lock instead (the Dekker handshake of the class comment).
  RaiseGcFloor(horizon);
  std::size_t dropped = 0;
  std::vector<KeyNode*> visit;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    visit.swap(shard.prune_list);
    for (KeyNode* node : visit) {
      node->listed = false;
      dropped += PruneChain(shard, node, horizon);
    }
    visit.clear();
  }
  return dropped;
}

void VersionedStore::InstallClone(const std::map<std::string, std::string>& state,
                                  Timestamp commit_ts) {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    for (auto& [key, node] : shard.chains) {
      // Retire the whole old chain, leaving a ghost; recovery runs without
      // concurrent readers, but deferring reclamation keeps even a stray
      // one safe.
      VersionNode* v = node.head.load(std::memory_order_relaxed);
      node.head.store(nullptr, std::memory_order_release);
      while (v != nullptr) {
        shard.retired.push_back(v);
        v = v->next.load(std::memory_order_relaxed);
      }
    }
    shard.live = 0;
    // The clone's chains hold one live version each: nothing to prune.
    for (KeyNode* node : shard.prune_list) node->listed = false;
    shard.prune_list.clear();
  }
  for (const auto& [key, value] : state) {
    const std::uint64_t hash = Fnv1a64(key);
    Shard& shard = shards_[static_cast<std::size_t>(hash) & shard_mask_];
    std::unique_lock lock(shard.mu);
    KeyNode* node = FindOrCreateKeyNode(shard, hash, key);
    VersionNode* v = new VersionNode{commit_ts, /*deleted=*/false, value};
    v->next.store(nullptr, std::memory_order_relaxed);
    node->head.store(v, std::memory_order_release);
    ++shard.live;
  }
}

std::size_t VersionedStore::KeyCount() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    n += shard.live;
  }
  return n;
}

std::size_t VersionedStore::VersionCount() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, node] : shard.chains) {
      const VersionNode* v = node.head.load(std::memory_order_acquire);
      while (v != nullptr) {
        ++n;
        v = v->next.load(std::memory_order_relaxed);
      }
    }
  }
  return n;
}

std::size_t HashPartitionOfKey(std::string_view key,
                               std::size_t num_partitions) {
  if (num_partitions <= 1) return 0;
  // Seed differs from ShardOf's default offset basis so a partition's keys
  // are not confined to a subset of store shards.
  constexpr std::uint64_t kPartitionSeed = 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(Fnv1a64(key, kPartitionSeed) %
                                  num_partitions);
}

std::size_t RangePartitionOfKey(std::string_view key,
                                std::size_t num_partitions) {
  if (num_partitions <= 1) return 0;
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t byte =
        i < key.size() ? static_cast<unsigned char>(key[i]) : 0;
    prefix = (prefix << 8) | byte;
  }
  // Proportional scaling: partition = floor(prefix * P / 2^64). Unlike
  // modulo this keeps each partition a contiguous prefix range.
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(prefix) * num_partitions) >> 64);
}

}  // namespace storage
}  // namespace lazysi
