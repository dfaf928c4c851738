#include "storage/versioned_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"

namespace lazysi {
namespace storage {
namespace {

WriteSet MakePut(const std::string& key, const std::string& value) {
  WriteSet ws;
  ws.Put(key, value);
  return ws;
}

TEST(VersionedStoreTest, GetMissingKey) {
  VersionedStore store;
  EXPECT_TRUE(store.Get("nope", 100).status().IsNotFound());
}

TEST(VersionedStoreTest, SnapshotSelectsVersion) {
  VersionedStore store;
  store.Apply(MakePut("k", "v1"), 10);
  store.Apply(MakePut("k", "v2"), 20);
  store.Apply(MakePut("k", "v3"), 30);

  EXPECT_TRUE(store.Get("k", 5).status().IsNotFound());
  EXPECT_EQ(store.Get("k", 10)->value, "v1");
  EXPECT_EQ(store.Get("k", 15)->value, "v1");
  EXPECT_EQ(store.Get("k", 20)->value, "v2");
  EXPECT_EQ(store.Get("k", 29)->value, "v2");
  EXPECT_EQ(store.Get("k", 1000)->value, "v3");
  EXPECT_EQ(store.Get("k", 1000)->commit_ts, 30u);
}

TEST(VersionedStoreTest, DeleteVisibility) {
  VersionedStore store;
  store.Apply(MakePut("k", "v1"), 10);
  WriteSet del;
  del.Delete("k");
  store.Apply(del, 20);
  store.Apply(MakePut("k", "v3"), 30);

  EXPECT_EQ(store.Get("k", 15)->value, "v1");
  EXPECT_TRUE(store.Get("k", 25).status().IsNotFound());
  EXPECT_EQ(store.Get("k", 35)->value, "v3");
}

TEST(VersionedStoreTest, HasCommitAfter) {
  VersionedStore store;
  store.Apply(MakePut("k", "v1"), 10);
  EXPECT_TRUE(store.HasCommitAfter("k", 5));
  EXPECT_FALSE(store.HasCommitAfter("k", 10));
  EXPECT_FALSE(store.HasCommitAfter("k", 15));
  EXPECT_FALSE(store.HasCommitAfter("other", 0));
}

TEST(VersionedStoreTest, ApplyMultipleKeysAtomically) {
  VersionedStore store;
  WriteSet ws;
  ws.Put("a", "1");
  ws.Put("b", "2");
  store.Apply(ws, 10);
  EXPECT_EQ(store.Get("a", 10)->value, "1");
  EXPECT_EQ(store.Get("b", 10)->value, "2");
  EXPECT_EQ(store.Get("a", 10)->commit_ts, store.Get("b", 10)->commit_ts);
}

TEST(VersionedStoreTest, ScanRangeAtSnapshot) {
  VersionedStore store;
  store.Apply(MakePut("a", "1"), 10);
  store.Apply(MakePut("b", "2"), 20);
  store.Apply(MakePut("c", "3"), 30);

  auto all = store.Scan("", "", 30);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[2].first, "c");

  auto old_snapshot = store.Scan("", "", 15);
  ASSERT_EQ(old_snapshot.size(), 1u);
  EXPECT_EQ(old_snapshot[0].first, "a");

  auto range = store.Scan("b", "c", 30);
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].first, "b");
}

TEST(VersionedStoreTest, ScanSkipsDeleted) {
  VersionedStore store;
  store.Apply(MakePut("a", "1"), 10);
  WriteSet del;
  del.Delete("a");
  store.Apply(del, 20);
  EXPECT_EQ(store.Scan("", "", 30).size(), 0u);
  EXPECT_EQ(store.Scan("", "", 15).size(), 1u);
}

TEST(VersionedStoreTest, MaterializeSnapshot) {
  VersionedStore store;
  store.Apply(MakePut("a", "1"), 10);
  store.Apply(MakePut("b", "2"), 20);
  auto state = store.Materialize(15);
  EXPECT_EQ(state.size(), 1u);
  EXPECT_EQ(state["a"], "1");
  state = store.Materialize(25);
  EXPECT_EQ(state.size(), 2u);
}

TEST(VersionedStoreTest, PruneVersionsKeepsVisible) {
  VersionedStore store;
  store.Apply(MakePut("k", "v1"), 10);
  store.Apply(MakePut("k", "v2"), 20);
  store.Apply(MakePut("k", "v3"), 30);
  const std::size_t dropped = store.PruneVersions(25);
  EXPECT_EQ(dropped, 1u);  // v1 shadowed by v2 at horizon 25
  EXPECT_EQ(store.Get("k", 25)->value, "v2");
  EXPECT_EQ(store.Get("k", 35)->value, "v3");
}

TEST(VersionedStoreTest, PruneDropsDeletedKeys) {
  VersionedStore store;
  store.Apply(MakePut("k", "v1"), 10);
  WriteSet del;
  del.Delete("k");
  store.Apply(del, 20);
  store.PruneVersions(30);
  EXPECT_EQ(store.KeyCount(), 0u);
}

TEST(VersionedStoreTest, InstallClone) {
  VersionedStore store;
  std::map<std::string, std::string> state{{"a", "1"}, {"b", "2"}};
  store.InstallClone(state, 5);
  EXPECT_EQ(store.Get("a", 5)->value, "1");
  EXPECT_TRUE(store.Get("a", 4).status().IsNotFound());
  EXPECT_EQ(store.KeyCount(), 2u);
}

TEST(VersionedStoreTest, ConcurrentReadersWithWriter) {
  VersionedStore store;
  store.Apply(MakePut("k", "v0"), 1);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (Timestamp ts = 2; ts < 2000; ++ts) {
      store.Apply(MakePut("k", "v" + std::to_string(ts)), ts);
    }
    stop = true;
  });
  // Readers at a fixed snapshot always see the same value (reads are never
  // blocked and never see partial state).
  std::thread reader([&] {
    while (!stop) {
      auto v = store.Get("k", 1);
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(v->value, "v0");
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(store.Get("k", 1999)->value, "v1999");
}

TEST(VersionedStoreShardTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(VersionedStore(0).shard_count(), 1u);
  EXPECT_EQ(VersionedStore(1).shard_count(), 1u);
  EXPECT_EQ(VersionedStore(3).shard_count(), 4u);
  EXPECT_EQ(VersionedStore(16).shard_count(), 16u);
  EXPECT_EQ(VersionedStore(17).shard_count(), 32u);
}

TEST(VersionedStoreShardTest, ShardOfIsStableAndInRange) {
  VersionedStore store(8);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::size_t shard = store.ShardOf(key);
    EXPECT_LT(shard, store.shard_count());
    EXPECT_EQ(store.ShardOf(key), shard);
  }
  // A single-shard store maps everything to shard 0.
  VersionedStore single(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(single.ShardOf("key" + std::to_string(i)), 0u);
  }
}

// The same operations must behave identically whatever the shard count;
// sharding is a locking layout, not a semantic change.
class VersionedStoreShardSweepTest
    : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, VersionedStoreShardSweepTest,
                         ::testing::Values(1u, 2u, 16u));

TEST_P(VersionedStoreShardSweepTest, ScanMergesShardsInKeyOrder) {
  VersionedStore store(GetParam());
  // Insertion order deliberately scrambled relative to key order.
  for (int i : {7, 2, 9, 0, 5, 1, 8, 3, 6, 4}) {
    store.Apply(MakePut("k" + std::to_string(i), "v" + std::to_string(i)),
                10 + static_cast<Timestamp>(i));
  }
  auto all = store.Scan("", "", 100);
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(all[i].first, "k" + std::to_string(i));
    EXPECT_EQ(all[i].second.value, "v" + std::to_string(i));
  }
  auto range = store.Scan("k3", "k7", 100);
  ASSERT_EQ(range.size(), 4u);
  EXPECT_EQ(range.front().first, "k3");
  EXPECT_EQ(range.back().first, "k6");
}

TEST_P(VersionedStoreShardSweepTest, MaterializeAndCountsSpanShards) {
  VersionedStore store(GetParam());
  for (int i = 0; i < 32; ++i) {
    store.Apply(MakePut("k" + std::to_string(i), "a"), 10);
    store.Apply(MakePut("k" + std::to_string(i), "b"), 20);
  }
  EXPECT_EQ(store.KeyCount(), 32u);
  EXPECT_EQ(store.VersionCount(), 64u);
  auto state = store.Materialize(15);
  ASSERT_EQ(state.size(), 32u);
  for (const auto& [key, value] : state) EXPECT_EQ(value, "a");
}

TEST_P(VersionedStoreShardSweepTest, PruneCountsAcrossShards) {
  VersionedStore store(GetParam());
  for (int i = 0; i < 32; ++i) {
    const std::string key = "k" + std::to_string(i);
    store.Apply(MakePut(key, "a"), 10);
    store.Apply(MakePut(key, "b"), 20);
    store.Apply(MakePut(key, "c"), 30);
  }
  // At horizon 25, "a" is shadowed by "b" for every key; "b" stays visible.
  EXPECT_EQ(store.PruneVersions(25), 32u);
  EXPECT_EQ(store.VersionCount(), 64u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(store.Get("k" + std::to_string(i), 25)->value, "b");
  }
}

// --- Incremental pruning -----------------------------------------------

WriteSet MakeDelete(const std::string& key) {
  WriteSet ws;
  ws.Delete(key);
  return ws;
}

TEST(VersionedStorePruneTest, RewrittenKeyIsPrunedOnTheNextPass) {
  VersionedStore store;
  store.Apply(MakePut("a", "a1"), 10);
  store.Apply(MakePut("b", "b1"), 11);
  // Single live versions: nothing to drop.
  EXPECT_EQ(store.PruneVersions(15), 0u);
  EXPECT_EQ(store.VersionCount(), 2u);
  store.Apply(MakePut("a", "a2"), 20);
  EXPECT_EQ(store.VersionCount(), 3u);
  EXPECT_EQ(store.PruneVersions(25), 1u);
  EXPECT_EQ(store.VersionCount(), 2u);
  EXPECT_EQ(store.Get("a", 25)->value, "a2");
  EXPECT_EQ(store.Get("b", 25)->value, "b1");
}

TEST(VersionedStorePruneTest, TombstoneOnlyKeyIsDropped) {
  VersionedStore store;
  // A delete of a key that never existed leaves a lone tombstone; one that
  // follows a pass which already pruned the key's history leaves the same.
  store.Apply(MakePut("k", "v1"), 10);
  store.Apply(MakePut("k", "v2"), 20);
  EXPECT_EQ(store.PruneVersions(20), 1u);
  store.Apply(MakeDelete("never"), 22);
  store.Apply(MakeDelete("k"), 30);
  EXPECT_EQ(store.KeyCount(), 2u);
  // Tombstone above the horizon: kept and re-listed, not dropped.
  EXPECT_EQ(store.PruneVersions(25), 1u);  // "never"'s tombstone
  EXPECT_EQ(store.KeyCount(), 1u);
  EXPECT_EQ(store.PruneVersions(30), 2u);  // v2 and k's tombstone
  EXPECT_EQ(store.KeyCount(), 0u);
  EXPECT_EQ(store.VersionCount(), 0u);
  // The ghost resurrects on rewrite.
  store.Apply(MakePut("k", "v3"), 40);
  EXPECT_EQ(store.Get("k", 40)->value, "v3");
  EXPECT_EQ(store.KeyCount(), 1u);
}

// A site skips the pass itself when nothing moved (see the reclaim tests);
// here, repeated passes with no write in between are idempotent, and keys a
// low horizon kept stay listed until the horizon passes them.
TEST(VersionedStorePruneTest, PassWithNoWritesSinceTheLastDropsNothingNew) {
  VersionedStore store;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    store.Apply(MakePut(key, "old"), 10);
    store.Apply(MakePut(key, "new"), 20);
  }
  // A horizon below the rewrites (a pinned reader) keeps every version.
  EXPECT_EQ(store.PruneVersions(15), 0u);
  EXPECT_EQ(store.PruneVersions(15), 0u);
  EXPECT_EQ(store.PruneVersions(12), 0u);
  EXPECT_EQ(store.VersionCount(), 100u);
  EXPECT_EQ(store.Get("k0", 15)->value, "old");
  // The horizon advances past the rewrites: the kept keys are pruned.
  EXPECT_EQ(store.PruneVersions(20), 50u);
  EXPECT_EQ(store.VersionCount(), 50u);
  EXPECT_EQ(store.PruneVersions(20), 0u);
  EXPECT_EQ(store.PruneVersions(30), 0u);
  EXPECT_EQ(store.VersionCount(), 50u);
}

/// The pruning semantics before the prune list existed, over a plain model
/// of every chain: visit every key, cut after the newest version at or
/// below the horizon, drop keys left with a lone tombstone there.
class FullScanModel {
 public:
  struct Version {
    Timestamp ts;
    bool deleted;
    std::string value;
  };

  void Install(const std::string& key, Timestamp ts, bool deleted,
               const std::string& value) {
    auto& chain = chains_[key];  // newest first
    auto it = std::find_if(chain.begin(), chain.end(),
                           [ts](const Version& v) { return v.ts <= ts; });
    if (it != chain.end() && it->ts == ts) return;  // replayed duplicate
    chain.insert(it, Version{ts, deleted, value});
  }

  std::size_t Prune(Timestamp horizon) {
    std::size_t dropped = 0;
    for (auto it = chains_.begin(); it != chains_.end();) {
      auto& chain = it->second;
      auto boundary = std::find_if(
          chain.begin(), chain.end(),
          [horizon](const Version& v) { return v.ts <= horizon; });
      if (boundary != chain.end()) {
        dropped += static_cast<std::size_t>(chain.end() - boundary) - 1;
        chain.erase(boundary + 1, chain.end());
        if (chain.size() == 1 && chain.front().deleted) {
          ++dropped;
          it = chains_.erase(it);
          continue;
        }
      }
      ++it;
    }
    return dropped;
  }

  std::size_t VersionCount() const {
    std::size_t n = 0;
    for (const auto& [key, chain] : chains_) n += chain.size();
    return n;
  }
  std::size_t KeyCount() const { return chains_.size(); }

  /// What a snapshot read at `snapshot` returns: (found, version ts, value).
  std::tuple<bool, Timestamp, std::string> Read(const std::string& key,
                                                Timestamp snapshot) const {
    auto it = chains_.find(key);
    if (it == chains_.end()) return {false, 0, ""};
    for (const Version& v : it->second) {
      if (v.ts <= snapshot) {
        if (v.deleted) return {false, 0, ""};
        return {true, v.ts, v.value};
      }
    }
    return {false, 0, ""};
  }

 private:
  std::map<std::string, std::vector<Version>> chains_;
};

class VersionedStorePruneDiffTest
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, VersionedStorePruneDiffTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(VersionedStorePruneDiffTest, MatchesFullScanOnRandomHistories) {
  Rng rng(GetParam());
  constexpr int kKeys = 12;
  VersionedStore store(/*shard_count=*/rng.Next(2) == 0 ? 1 : 4);
  FullScanModel model;
  Timestamp ts = 0;
  Timestamp last_horizon = 0;
  auto random_writes = [&](Timestamp commit_ts) {
    WriteSet ws;
    const int n = 1 + static_cast<int>(rng.Next(3));
    for (int i = 0; i < n; ++i) {
      const std::string key = "k" + std::to_string(rng.Next(kKeys));
      if (rng.Next(5) == 0) {
        ws.Delete(key);
      } else {
        ws.Put(key, "v" + std::to_string(commit_ts));
      }
    }
    return ws;
  };
  auto install = [&](const WriteSet& ws, Timestamp commit_ts, bool batch) {
    if (batch) {
      store.ApplyBatch({{&ws, commit_ts}});
    } else {
      store.Apply(ws, commit_ts);
    }
    for (const auto& [key, w] : ws.entries()) {
      model.Install(key, commit_ts, w.deleted, w.value.ToString());
    }
  };
  auto prune_and_compare = [&](Timestamp horizon, int step) {
    last_horizon = std::max(last_horizon, horizon);
    ASSERT_EQ(store.PruneVersions(horizon), model.Prune(horizon))
        << "step " << step << " horizon " << horizon;
    ASSERT_EQ(store.VersionCount(), model.VersionCount()) << "step " << step;
    ASSERT_EQ(store.KeyCount(), model.KeyCount()) << "step " << step;
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      for (Timestamp snap = 0; snap <= ts + 1; ++snap) {
        auto got = store.GetLocked(key, snap);
        auto [found, want_ts, want_value] = model.Read(key, snap);
        ASSERT_EQ(got.ok(), found) << key << " @" << snap << " step " << step;
        if (found) {
          ASSERT_EQ(got->commit_ts, want_ts) << key << " @" << snap;
          ASSERT_EQ(got->value, want_value) << key << " @" << snap;
        }
      }
    }
  };
  for (int step = 0; step < 400 && !HasFatalFailure(); ++step) {
    const std::uint64_t op = rng.Next(10);
    if (op < 5) {
      const Timestamp commit_ts = ++ts;
      install(random_writes(commit_ts), commit_ts, /*batch=*/false);
    } else if (op < 7) {
      // Two commits installed by separate ApplyBatch calls, the later one
      // first — the direct-apply engine's concurrent applicator runs. Half
      // the time a pass runs in between at a horizon the early commit falls
      // under: a database's visibility watermark rules that out, but the
      // store must still match the full scan exactly.
      const Timestamp early = ++ts;
      const Timestamp late = ++ts;
      const WriteSet early_ws = random_writes(early);
      install(random_writes(late), late, /*batch=*/true);
      if (rng.Next(2) == 0) prune_and_compare(early + rng.Next(2), step);
      install(early_ws, early, /*batch=*/true);
    } else {
      // Mostly advancing horizons, sometimes a repeat or a step back.
      const std::uint64_t kind = rng.Next(4);
      const Timestamp horizon =
          kind == 0 ? last_horizon
          : kind == 1 ? static_cast<Timestamp>(rng.Next(last_horizon + 1))
                      : last_horizon + rng.Next(ts - last_horizon + 2);
      prune_and_compare(horizon, step);
    }
  }
}

TEST(VersionedStorePruneTest, ConcurrentReadersDuringPruneAreClean) {
  // Writer installs ts = 1, 2, ... each on key (ts % kKeys), every 7th a
  // delete, and publishes `visible` after each install. Readers publish
  // their snapshot in a slot before reading at it; slots only grow, so the
  // pruner's horizon (the minimum slot it loads) never exceeds a snapshot
  // any reader is still reading at — the contract TxnManager provides.
  constexpr Timestamp kKeys = 8;
  constexpr Timestamp kLast = 6000;
  constexpr int kReaders = 2;
  VersionedStore store(4);
  std::atomic<Timestamp> visible{0};
  std::atomic<Timestamp> slots[kReaders] = {};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (Timestamp t = 1; t <= kLast; ++t) {
      const std::string key = "k" + std::to_string(t % kKeys);
      store.Apply(
          t % 7 == 0 ? MakeDelete(key) : MakePut(key, std::to_string(t)), t);
      visible.store(t, std::memory_order_seq_cst);
    }
    done = true;
  });
  std::thread pruner([&] {
    while (!done) {
      Timestamp horizon = visible.load(std::memory_order_seq_cst);
      for (auto& slot : slots) {
        horizon = std::min(horizon, slot.load(std::memory_order_seq_cst));
      }
      store.PruneVersions(horizon);
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done) {
        const Timestamp snap = visible.load(std::memory_order_seq_cst);
        slots[r].store(snap, std::memory_order_seq_cst);
        for (Timestamp k = 0; k < kKeys; ++k) {
          // Newest ts <= snap on this key, if any.
          if (snap < std::max<Timestamp>(k, 1)) continue;
          const Timestamp t = snap - (snap - k) % kKeys;
          auto got = store.Get("k" + std::to_string(k), snap);
          const bool want = t >= 1 && t % 7 != 0;
          if (got.ok() != want ||
              (want && got->value != std::to_string(t))) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  pruner.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  store.PruneVersions(kLast);
  EXPECT_EQ(store.VersionCount(), store.KeyCount());
}

}  // namespace
}  // namespace storage
}  // namespace lazysi
