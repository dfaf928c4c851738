#include "engine/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint_rows.h"
#include "engine/recovery.h"

namespace lazysi {
namespace engine {
namespace {

TEST(DatabaseTest, AutoCommitPutGet) {
  Database db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  EXPECT_EQ(db.Get("k").value(), "v");
  ASSERT_TRUE(db.Delete("k").ok());
  EXPECT_TRUE(db.Get("k").status().IsNotFound());
}

TEST(DatabaseTest, LogReceivesLifecycleRecords) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  ASSERT_TRUE(t->Put("b", "2").ok());
  ASSERT_TRUE(t->Commit().ok());

  // Expect START, UPDATE, UPDATE, COMMIT.
  ASSERT_EQ(db.log()->Size(), 4u);
  EXPECT_EQ(db.log()->At(0)->type, wal::LogRecordType::kStart);
  EXPECT_EQ(db.log()->At(1)->type, wal::LogRecordType::kUpdate);
  EXPECT_EQ(db.log()->At(2)->type, wal::LogRecordType::kUpdate);
  EXPECT_EQ(db.log()->At(3)->type, wal::LogRecordType::kCommit);
  EXPECT_EQ(db.log()->At(0)->timestamp, t->start_ts());
  EXPECT_EQ(db.log()->At(3)->timestamp, t->commit_ts());
}

TEST(DatabaseTest, ReadOnlyTxnsNotLogged) {
  Database db;
  auto t = db.Begin(/*read_only=*/true);
  (void)t->Get("x");
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.log()->Size(), 0u);
}

TEST(DatabaseTest, AbortLogged) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  t->Abort();
  ASSERT_EQ(db.log()->Size(), 3u);  // START, UPDATE, ABORT
  EXPECT_EQ(db.log()->At(2)->type, wal::LogRecordType::kAbort);
}

TEST(DatabaseTest, LogOrderMatchesTimestampOrder) {
  Database db;
  // Interleave two transactions; start/commit records must appear in the
  // log in increasing timestamp order (the propagator's key assumption).
  auto t1 = db.Begin();
  auto t2 = db.Begin();
  ASSERT_TRUE(t2->Put("b", "2").ok());
  ASSERT_TRUE(t2->Commit().ok());
  ASSERT_TRUE(t1->Put("a", "1").ok());
  ASSERT_TRUE(t1->Commit().ok());

  Timestamp last_ts = 0;
  for (std::size_t lsn = 0; lsn < db.log()->Size(); ++lsn) {
    auto r = db.log()->At(lsn);
    if (r->type == wal::LogRecordType::kStart ||
        r->type == wal::LogRecordType::kCommit) {
      EXPECT_GT(r->timestamp, last_ts);
      last_ts = r->timestamp;
    }
  }
}

TEST(DatabaseTest, StateChainAdvancesPerCommit) {
  Database db;
  const auto h0 = db.StateHash();
  ASSERT_TRUE(db.Put("a", "1").ok());
  const auto h1 = db.StateHash();
  ASSERT_TRUE(db.Put("a", "2").ok());
  const auto h2 = db.StateHash();
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, h2);
  ASSERT_EQ(db.StateChainHistory().size(), 2u);
  EXPECT_EQ(db.StateChainHistory()[1].hash, h2);
}

TEST(DatabaseTest, IdenticalWorkloadsProduceIdenticalChains) {
  Database a, b;
  for (Database* db : {&a, &b}) {
    ASSERT_TRUE(db->Put("x", "1").ok());
    ASSERT_TRUE(db->Put("y", "2").ok());
    auto t = db->Begin();
    ASSERT_TRUE(t->Put("x", "3").ok());
    ASSERT_TRUE(t->Delete("y").ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_EQ(a.StateHash(), b.StateHash());
  ASSERT_EQ(a.StateChainHistory().size(), b.StateChainHistory().size());
  for (std::size_t i = 0; i < a.StateChainHistory().size(); ++i) {
    EXPECT_EQ(a.StateChainHistory()[i].hash, b.StateChainHistory()[i].hash);
  }
}

TEST(DatabaseTest, StateChainDisabledByOption) {
  DatabaseOptions options;
  options.record_state_chain = false;
  Database db(options);
  ASSERT_TRUE(db.Put("a", "1").ok());
  EXPECT_TRUE(db.StateChainHistory().empty());
  EXPECT_NE(db.StateHash(), 0u);  // the running hash still advances
}

TEST(DatabaseTest, GarbageCollectRespectsActiveSnapshots) {
  Database db;
  ASSERT_TRUE(db.Put("k", "v1").ok());
  auto pinned = db.Begin(/*read_only=*/true);  // pins v1
  ASSERT_TRUE(db.Put("k", "v2").ok());
  ASSERT_TRUE(db.Put("k", "v3").ok());

  // The reader's snapshot caps the horizon at v1: nothing below it is
  // shadowed, so nothing is reclaimed while the reader lives.
  EXPECT_EQ(db.GarbageCollect(), 0u);
  EXPECT_EQ(pinned->Get("k").value(), "v1");
  ASSERT_TRUE(pinned->Commit().ok());

  // Horizon advances once the reader finishes: v1 and v2 both go.
  EXPECT_EQ(db.GarbageCollect(), 2u);
  EXPECT_EQ(db.Get("k").value(), "v3");
  EXPECT_EQ(db.store()->VersionCount(), 1u);
}

TEST(DatabaseTest, GarbageCollectIdleDropsAllShadowed) {
  Database db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Put("k", std::to_string(i)).ok());
  }
  EXPECT_EQ(db.store()->VersionCount(), 10u);
  EXPECT_EQ(db.GarbageCollect(), 9u);
  EXPECT_EQ(db.Get("k").value(), "9");
}

TEST(DatabaseTest, TimeTravelReaderPinsHorizon) {
  Database db;
  ASSERT_TRUE(db.Put("k", "v1").ok());
  const Timestamp ts1 = db.LatestCommitTs();
  ASSERT_TRUE(db.Put("k", "v2").ok());
  auto historical = db.BeginAtSnapshot(ts1);
  ASSERT_TRUE(historical.ok());
  db.GarbageCollect();
  EXPECT_EQ((*historical)->Get("k").value(), "v1");  // still there
}

// A checkpoint streamed to disk while a writer commits and GC prunes: the
// pin must keep GC off its snapshot while the file is written, so every
// file holds exactly the state at its as_of.
TEST(DatabaseTest, StreamedCheckpointMatchesItsSnapshotUnderConcurrentGc) {
  constexpr int kKeys = 2048;
  constexpr int kCommits = 30000;
  const std::string path =
      ::testing::TempDir() + "lazysi_streamed_checkpoint_gc_test.ckpt";
  Database db;
  struct Commit {
    Timestamp ts;
    std::string key;
    std::optional<std::string> value;  // nullopt: deleted
  };
  std::vector<Commit> history;  // commit order; one writer
  history.reserve(kCommits);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kCommits; ++i) {
      const std::string key = "k" + std::to_string(i % kKeys);
      auto t = db.Begin();
      std::optional<std::string> value;
      if (i % 7 == 3) {
        EXPECT_TRUE(t->Delete(key).ok());
      } else {
        value = std::to_string(i);
        EXPECT_TRUE(t->Put(key, *value).ok());
      }
      EXPECT_TRUE(t->Commit().ok());
      history.push_back(Commit{t->commit_ts(), key, value});
    }
    done = true;
  });
  std::thread gc([&] {
    while (!done) db.GarbageCollect();
  });
  std::vector<CheckpointRows> checkpoints;
  bool written = true;
  while (!done && written) {
    Database::CheckpointPin pin = db.PinCheckpoint();
    written = SaveCheckpoint(&db, pin, path).ok();
    pin.txn.reset();
    auto loaded = ReadCheckpointRows(path);
    written = written && loaded.ok() && loaded->as_of == pin.as_of;
    if (written) checkpoints.push_back(std::move(*loaded));
  }
  writer.join();
  gc.join();
  std::remove(path.c_str());
  ASSERT_TRUE(written);
  ASSERT_FALSE(checkpoints.empty());

  std::map<std::string, storage::Value> model;
  std::size_t next = 0;
  for (const CheckpointRows& cp : checkpoints) {
    for (; next < history.size() && history[next].ts <= cp.as_of; ++next) {
      const Commit& c = history[next];
      if (c.value) {
        model[c.key] = *c.value;
      } else {
        model.erase(c.key);
      }
    }
    ASSERT_EQ(cp.rows, model) << "checkpoint as_of " << cp.as_of;
  }
}

TEST(DatabaseTest, ContentHashDependsOnStateNotOnHowItWasBuilt) {
  // Same final state, reached through different write orders, overwrites,
  // a delete, transaction groupings and shard layouts.
  Database a;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(a.Put("k7", "first").ok());
  ASSERT_TRUE(a.Put("k7", "v7").ok());
  ASSERT_TRUE(a.Put("gone", "x").ok());
  ASSERT_TRUE(a.Delete("gone").ok());

  DatabaseOptions one_shard;
  one_shard.store_shards = 1;
  Database b(one_shard);
  auto t = b.Begin();
  for (int i = 199; i >= 0; --i) {
    ASSERT_TRUE(t->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(t->Commit().ok());

  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_NE(a.ContentHash(), Database().ContentHash());

  // One byte of one value differs.
  ASSERT_TRUE(b.Put("k123", "v124").ok());
  EXPECT_NE(a.ContentHash(), b.ContentHash());
  ASSERT_TRUE(b.Put("k123", "v123").ok());
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  // A value moved to another key is a different state too.
  ASSERT_TRUE(b.Put("k1", "v2").ok());
  ASSERT_TRUE(b.Put("k2", "v1").ok());
  EXPECT_NE(a.ContentHash(), b.ContentHash());
}

TEST(DatabaseTest, LatestCommitTsAdvances) {
  Database db;
  EXPECT_EQ(db.LatestCommitTs(), 0u);
  ASSERT_TRUE(db.Put("a", "1").ok());
  const Timestamp first = db.LatestCommitTs();
  EXPECT_GT(first, 0u);
  ASSERT_TRUE(db.Put("b", "2").ok());
  EXPECT_GT(db.LatestCommitTs(), first);
}

}  // namespace
}  // namespace engine
}  // namespace lazysi
