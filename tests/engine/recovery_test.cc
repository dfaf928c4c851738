#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "checkpoint_rows.h"
#include "common/codec.h"
#include "common/hash.h"
#include "common/random.h"
#include "engine/checkpointer.h"

namespace lazysi {
namespace engine {
namespace {

/// The records of `db`'s logical log from `from_lsn` on.
std::vector<wal::LogRecord> LogRecords(Database* db,
                                       std::size_t from_lsn = 0) {
  std::vector<wal::LogRecord> records;
  db->log()->Visit(from_lsn, db->log()->Size(),
                   [&records](const wal::LogRecord& r) {
                     records.push_back(r);
                   });
  return records;
}

std::map<std::string, storage::Value> StateOf(Database* db) {
  std::map<std::string, storage::Value> state;
  for (const auto& [key, value] :
       db->store()->Materialize(db->LatestCommitTs())) {
    state.emplace(key, storage::Value(value));
  }
  return state;
}

class DurableRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    checkpoint_path_ = ::testing::TempDir() + "lazysi_recovery_test.ckpt";
    std::remove(checkpoint_path_.c_str());
  }
  void TearDown() override { std::remove(checkpoint_path_.c_str()); }
  std::string checkpoint_path_;
};

TEST_F(DurableRecoveryTest, CheckpointFileRoundTrip) {
  Database db;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  Database::CheckpointPin pin = db.PinCheckpoint();
  EXPECT_EQ(pin.lsn, db.log()->Size());
  EXPECT_EQ(pin.as_of, db.LatestCommitTs());
  ASSERT_TRUE(SaveCheckpoint(&db, pin, checkpoint_path_).ok());

  auto loaded = ReadCheckpointRows(checkpoint_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->as_of, pin.as_of);
  EXPECT_EQ(loaded->lsn, pin.lsn);
  EXPECT_EQ(loaded->rows, StateOf(&db));
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
  const auto expected = StateOf(&db);

  Database::CheckpointPin pin = db.PinCheckpoint();
  ASSERT_TRUE(db.Put("k9", "after the pin").ok());
  ASSERT_TRUE(db.Delete("k10").ok());
  ASSERT_TRUE(db.Put("new", "after the pin").ok());
  db.GarbageCollect();
  ASSERT_TRUE(SaveCheckpoint(&db, pin, checkpoint_path_).ok());
  const Database::CheckpointPin saved{pin.as_of, pin.lsn, nullptr};
  pin.txn.reset();

  auto loaded = ReadCheckpointRows(checkpoint_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->as_of, saved.as_of);
  EXPECT_EQ(loaded->lsn, saved.lsn);
  EXPECT_EQ(loaded->rows, expected);
  EXPECT_EQ(loaded->rows.size(), 999u);
}

// A checkpoint that fails any check — a flipped byte, a file cut short, an
// older format — fails OpenDataDir before a single row is installed: a site
// that goes on without durability must not keep a partial state.
TEST_F(DurableRecoveryTest, LoadRejectsCorruptCheckpoint) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "lazysi_corrupt_ckpt";
  fs::remove_all(dir);
  fs::path checkpoint;
  {
    Database db;
    auto state = OpenDataDir(&db, dir.string(), wal::DurableLog::Options());
    ASSERT_TRUE(state.ok()) << state.status();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(db.Put("k" + std::to_string(i), std::string(1024, 'v')).ok());
    }
    Checkpointer::Options copts;
    copts.data_dir = dir.string();
    Checkpointer checkpointer(&db, state->durable.get(), copts);
    ASSERT_TRUE(checkpointer.CheckpointNow().ok());
    state->durable->Close();
    checkpoint =
        dir / ("checkpoint-" + std::to_string(checkpointer.last_checkpoint_lsn()));
  }
  std::string pristine;
  {
    std::ifstream in(checkpoint, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(pristine.size(), 400u * 1024);
  {
    // The intact file restores.
    Database db;
    auto state = OpenDataDir(&db, dir.string(), wal::DurableLog::Options());
    ASSERT_TRUE(state.ok()) << state.status();
    EXPECT_NE(db.ContentHash(), 0u);
    state->durable->Close();
  }

  std::string flipped_header = pristine;
  flipped_header[10] ^= 'X';
  std::string flipped_middle = pristine;
  flipped_middle[pristine.size() / 2] ^= 0x01;
  const std::string cut = pristine.substr(0, pristine.size() / 2);
  // The same state in the previous format: magic "LZSICKP1", then as_of,
  // lsn, a row count and the rows, then an FNV-1a 64 of that payload.
  std::string old_format = "LZSICKP1";
  {
    std::string payload;
    codec::PutVarint(&payload, 1);
    codec::PutVarint(&payload, 1);
    codec::PutVarint(&payload, 1);
    codec::PutString(&payload, "k0");
    codec::PutString(&payload, "v");
    old_format += payload;
    const std::uint64_t hash = Fnv1a64(payload);
    for (int i = 0; i < 8; ++i) {
      old_format.push_back(static_cast<char>((hash >> (8 * i)) & 0xff));
    }
  }
  const std::pair<const char*, const std::string*> damaged[] = {
      {"flipped header byte", &flipped_header},
      {"flipped byte mid-file", &flipped_middle},
      {"cut mid-chunk", &cut},
      {"old format", &old_format}};
  for (const auto& [name, file] : damaged) {
    SCOPED_TRACE(name);
    {
      std::ofstream out(checkpoint, std::ios::binary | std::ios::trunc);
      out << *file;
    }
    Database db;
    const Timestamp latest = db.LatestCommitTs();
    auto state = OpenDataDir(&db, dir.string(), wal::DurableLog::Options());
    EXPECT_FALSE(state.ok());
    EXPECT_EQ(db.ContentHash(), 0u);
    EXPECT_EQ(db.LatestCommitTs(), latest);
  }
  fs::remove_all(dir);
}

TEST_F(DurableRecoveryTest, ReplayRestoresExactState) {
  Database original;
  Rng rng(404);
  // Phase 1: workload, then a checkpoint.
  for (int i = 0; i < 50; ++i) {
    auto t = original.Begin();
    ASSERT_TRUE(t->Put("k" + std::to_string(rng.Next(20)),
                       std::to_string(i)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  Database::CheckpointPin pin = original.PinCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(&original, pin, checkpoint_path_).ok());
  const std::size_t checkpoint_lsn = pin.lsn;
  pin.txn.reset();

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

  // "Crash" and restore: install the checkpoint, then replay the log
  // suffix after it.
  Database restored;
  auto checkpoint = CheckpointReader::Open(checkpoint_path_);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  ASSERT_TRUE(restored
                  .RestoreFromDurable(checkpoint->get(), {}, checkpoint_lsn,
                                      nullptr)
                  .ok());
  auto applied =
      ReplayLog(&restored, LogRecords(&original, checkpoint_lsn));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(*applied, 0u);

  EXPECT_EQ(restored.store()->Materialize(restored.LatestCommitTs()),
            original.store()->Materialize(original.LatestCommitTs()));
}

TEST_F(DurableRecoveryTest, ReplayRejectsNonQuiescedSegment) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  const std::size_t mid = db.log()->Size();  // start+update already logged
  ASSERT_TRUE(t->Commit().ok());
  Database restored;
  auto applied = ReplayLog(&restored, LogRecords(&db, mid));
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurableRecoveryTest, ReplaySkipsAbortedTransactions) {
  Database db;
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("gone", "x").ok());
  t->Abort();
  ASSERT_TRUE(db.Put("kept", "y").ok());
  Database restored;
  auto applied = ReplayLog(&restored, LogRecords(&db));
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
