#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/random.h"
#include "wal/log_file.h"

namespace lazysi {
namespace engine {
namespace {

class DurableRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    checkpoint_path_ = ::testing::TempDir() + "lazysi_recovery_test.ckpt";
    log_path_ = ::testing::TempDir() + "lazysi_recovery_test.log";
    std::remove(checkpoint_path_.c_str());
    std::remove(log_path_.c_str());
  }
  void TearDown() override {
    std::remove(checkpoint_path_.c_str());
    std::remove(log_path_.c_str());
  }
  std::string checkpoint_path_;
  std::string log_path_;
};

TEST_F(DurableRecoveryTest, CheckpointFileRoundTrip) {
  Database db;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  const auto cp = db.TakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(cp, checkpoint_path_).ok());

  auto loaded = LoadCheckpoint(checkpoint_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->as_of, cp.as_of);
  EXPECT_EQ(loaded->lsn, cp.lsn);
  EXPECT_EQ(loaded->state, cp.state);
}

// The streamed writer reads the pinned snapshot shard by shard: commits
// after the pin stay out of the file, and a file larger than one write
// chunk still round-trips through the checksum.
TEST_F(DurableRecoveryTest, StreamedCheckpointHoldsItsPinnedSnapshot) {
  Database db;
  const std::string value(200, 'v');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db.Delete("k7").ok());
  ASSERT_TRUE(db.Put("k8", "overwritten").ok());
  const auto expected = db.TakeCheckpoint();

  Database::CheckpointPin pin = db.PinCheckpoint();
  ASSERT_TRUE(db.Put("k9", "after the pin").ok());
  ASSERT_TRUE(db.Delete("k10").ok());
  ASSERT_TRUE(db.Put("new", "after the pin").ok());
  db.GarbageCollect();
  ASSERT_TRUE(SaveCheckpoint(&db, pin, checkpoint_path_).ok());
  pin.txn.reset();

  auto loaded = LoadCheckpoint(checkpoint_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->as_of, expected.as_of);
  EXPECT_EQ(loaded->lsn, expected.lsn);
  EXPECT_EQ(loaded->state, expected.state);
  EXPECT_EQ(loaded->state.size(), 999u);
}

TEST_F(DurableRecoveryTest, LoadRejectsCorruptCheckpoint) {
  Database db;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(SaveCheckpoint(db.TakeCheckpoint(), checkpoint_path_).ok());
  std::FILE* f = std::fopen(checkpoint_path_.c_str(), "r+b");
  std::fseek(f, 10, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);
  EXPECT_FALSE(LoadCheckpoint(checkpoint_path_).ok());
}

TEST_F(DurableRecoveryTest, ReplayRestoresExactState) {
  Database original;
  Rng rng(404);
  // Phase 1: workload, then a quiesced checkpoint.
  for (int i = 0; i < 50; ++i) {
    auto t = original.Begin();
    ASSERT_TRUE(t->Put("k" + std::to_string(rng.Next(20)),
                       std::to_string(i)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  const auto cp = original.TakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(cp, checkpoint_path_).ok());

  // Phase 2: more workload — puts, deletes, multi-key txns, aborts.
  for (int i = 0; i < 50; ++i) {
    auto t = original.Begin();
    const std::string key = "k" + std::to_string(rng.Next(20));
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(t->Delete(key).ok());
    } else {
      ASSERT_TRUE(t->Put(key, "p2-" + std::to_string(i)).ok());
      ASSERT_TRUE(t->Put("extra/" + std::to_string(i % 7), "x").ok());
    }
    if (rng.Bernoulli(0.1)) {
      t->Abort();
    } else {
      ASSERT_TRUE(t->Commit().ok());
    }
  }
  ASSERT_TRUE(wal::LogFile::Write(*original.log(), log_path_, cp.lsn).ok());

  // "Crash" and restore: checkpoint + log suffix replay.
  Database restored;
  auto loaded = LoadCheckpoint(checkpoint_path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(restored.InstallCheckpoint(*loaded).ok());
  auto records = wal::LogFile::Read(log_path_);
  ASSERT_TRUE(records.ok());
  auto applied = ReplayLog(&restored, *records);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(*applied, 0u);

  EXPECT_EQ(restored.store()->Materialize(restored.LatestCommitTs()),
            original.store()->Materialize(original.LatestCommitTs()));
}

TEST_F(DurableRecoveryTest, GroupApplyReplayMatchesLegacy) {
  // Differential check of the two replay engines: the group-apply path
  // (externally-ordered commits + ApplyBatch store passes) must restore the
  // same state-hash chain and materialized state as the legacy
  // one-transaction-per-commit path.
  Database original;
  Rng rng(1717);
  for (int i = 0; i < 120; ++i) {
    auto t = original.Begin();
    const std::string key = "k" + std::to_string(rng.Next(25));
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(t->Delete(key).ok());
    } else {
      ASSERT_TRUE(t->Put(key, "v" + std::to_string(i)).ok());
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(t->Put("multi/" + std::to_string(i % 9), "m").ok());
      }
    }
    if (rng.Bernoulli(0.15)) {
      t->Abort();
    } else {
      ASSERT_TRUE(t->Commit().ok());
    }
    if (i % 10 == 0) {
      // Interleaved disjoint-key transactions committed in reverse begin
      // order: their start/commit records interleave in the log, exercising
      // the group engine's out-of-order chain splicing.
      auto a = original.Begin();
      auto b = original.Begin();
      ASSERT_TRUE(a->Put("pair/a" + std::to_string(i), "pa").ok());
      ASSERT_TRUE(b->Put("pair/b" + std::to_string(i), "pb").ok());
      ASSERT_TRUE(b->Commit().ok());
      ASSERT_TRUE(a->Commit().ok());
    }
  }
  ASSERT_TRUE(wal::LogFile::Write(*original.log(), log_path_).ok());
  auto records = wal::LogFile::Read(log_path_);
  ASSERT_TRUE(records.ok());

  Database legacy;
  auto n_legacy = ReplayLog(&legacy, *records);
  ASSERT_TRUE(n_legacy.ok()) << n_legacy.status();

  Database grouped;
  ReplayOptions opts;
  opts.group_apply = true;
  opts.group_limit = 8;
  auto n_grouped = ReplayLog(&grouped, *records, opts);
  ASSERT_TRUE(n_grouped.ok()) << n_grouped.status();

  EXPECT_EQ(*n_legacy, *n_grouped);
  // Same write sets installed in the same commit order -> identical chains
  // (the executable form of Theorem 3.1) and identical state.
  EXPECT_EQ(legacy.StateHash(), grouped.StateHash());
  EXPECT_EQ(grouped.store()->Materialize(grouped.LatestCommitTs()),
            legacy.store()->Materialize(legacy.LatestCommitTs()));
  EXPECT_EQ(grouped.store()->Materialize(grouped.LatestCommitTs()),
            original.store()->Materialize(original.LatestCommitTs()));
}

TEST_F(DurableRecoveryTest, GroupApplyRejectsNonQuiescedSegment) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  const std::size_t mid = db.log()->Size();
  ASSERT_TRUE(t->Commit().ok());
  ASSERT_TRUE(wal::LogFile::Write(*db.log(), log_path_, mid).ok());
  auto records = wal::LogFile::Read(log_path_);
  ASSERT_TRUE(records.ok());
  Database restored;
  ReplayOptions opts;
  opts.group_apply = true;
  auto applied = ReplayLog(&restored, *records, opts);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurableRecoveryTest, ReplayRejectsNonQuiescedSegment) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  const std::size_t mid = db.log()->Size();  // start+update already logged
  ASSERT_TRUE(t->Commit().ok());
  ASSERT_TRUE(wal::LogFile::Write(*db.log(), log_path_, mid).ok());
  auto records = wal::LogFile::Read(log_path_);
  ASSERT_TRUE(records.ok());
  Database restored;
  auto applied = ReplayLog(&restored, *records);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurableRecoveryTest, ReplaySkipsAbortedTransactions) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("gone", "x").ok());
  t->Abort();
  ASSERT_TRUE(db.Put("kept", "y").ok());
  ASSERT_TRUE(wal::LogFile::Write(*db.log(), log_path_).ok());
  auto records = wal::LogFile::Read(log_path_);
  ASSERT_TRUE(records.ok());
  Database restored;
  auto applied = ReplayLog(&restored, *records);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_TRUE(restored.Get("gone").status().IsNotFound());
  EXPECT_EQ(restored.Get("kept").value(), "y");
}

TEST(TimeTravelTest, ReadsHistoricalSnapshots) {
  Database db;
  ASSERT_TRUE(db.Put("k", "v1").ok());
  const Timestamp ts1 = db.LatestCommitTs();
  ASSERT_TRUE(db.Put("k", "v2").ok());
  const Timestamp ts2 = db.LatestCommitTs();
  ASSERT_TRUE(db.Delete("k").ok());

  auto at1 = db.BeginAtSnapshot(ts1);
  ASSERT_TRUE(at1.ok());
  EXPECT_EQ((*at1)->Get("k").value(), "v1");
  auto at2 = db.BeginAtSnapshot(ts2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ((*at2)->Get("k").value(), "v2");
  auto now = db.Begin(/*read_only=*/true);
  EXPECT_TRUE(now->Get("k").status().IsNotFound());
}

TEST(TimeTravelTest, FutureSnapshotRejected) {
  Database db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  auto bad = db.BeginAtSnapshot(db.LatestCommitTs() + 1000);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(TimeTravelTest, PrunedVersionsGone) {
  Database db;
  ASSERT_TRUE(db.Put("k", "v1").ok());
  const Timestamp ts1 = db.LatestCommitTs();
  ASSERT_TRUE(db.Put("k", "v2").ok());
  const Timestamp ts2 = db.LatestCommitTs();
  db.store()->PruneVersions(ts2);
  // The old version is gone; a time-travel read below the horizon misses.
  auto at1 = db.BeginAtSnapshot(ts1);
  ASSERT_TRUE(at1.ok());
  EXPECT_TRUE((*at1)->Get("k").status().IsNotFound());
  // Current reads unaffected.
  EXPECT_EQ(db.Get("k").value(), "v2");
}

}  // namespace
}  // namespace engine
}  // namespace lazysi
