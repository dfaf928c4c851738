#include "txn/transaction.h"

#include <gtest/gtest.h>

#include "storage/versioned_store.h"
#include "txn/txn_manager.h"

namespace lazysi {
namespace txn {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void Seed(const std::string& key, const std::string& value) {
    auto t = manager_.Begin();
    ASSERT_TRUE(t->Put(key, value).ok());
    ASSERT_TRUE(t->Commit().ok());
  }

  storage::VersionedStore store_;
  TxnManager manager_{&store_};
};

TEST_F(TransactionTest, SeesOwnUpdates) {
  // SI requires a transaction to see its own updates even though they are
  // newer than its snapshot (Section 2.1).
  Seed("a", "old");
  auto t = manager_.Begin();
  EXPECT_EQ(t->Get("a").value(), "old");
  ASSERT_TRUE(t->Put("a", "new").ok());
  EXPECT_EQ(t->Get("a").value(), "new");
}

TEST_F(TransactionTest, SeesOwnDelete) {
  Seed("a", "v");
  auto t = manager_.Begin();
  ASSERT_TRUE(t->Delete("a").ok());
  EXPECT_TRUE(t->Get("a").status().IsNotFound());
}

TEST_F(TransactionTest, ReadOnlyRejectsWrites) {
  auto t = manager_.Begin(/*read_only=*/true);
  EXPECT_FALSE(t->Put("a", "1").ok());
  EXPECT_FALSE(t->Delete("a").ok());
}

TEST_F(TransactionTest, OperationsAfterCommitFail) {
  auto t = manager_.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_FALSE(t->Put("b", "2").ok());
  EXPECT_FALSE(t->Get("a").ok());
  EXPECT_TRUE(t->Commit().ok());  // idempotent
}

TEST_F(TransactionTest, OperationsAfterAbortFail) {
  auto t = manager_.Begin();
  t->Abort();
  EXPECT_FALSE(t->Put("a", "1").ok());
  EXPECT_TRUE(t->Commit().IsAborted());
}

TEST_F(TransactionTest, ScanSnapshotWithOwnWritesOverlay) {
  Seed("a", "1");
  Seed("b", "2");
  Seed("c", "3");
  auto t = manager_.Begin();
  ASSERT_TRUE(t->Put("b", "B").ok());
  ASSERT_TRUE(t->Delete("c").ok());
  ASSERT_TRUE(t->Put("d", "D").ok());
  auto rows = t->Scan("", "");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::pair<std::string, storage::Value>{"a", "1"}));
  EXPECT_EQ((*rows)[1], (std::pair<std::string, storage::Value>{"b", "B"}));
  EXPECT_EQ((*rows)[2], (std::pair<std::string, storage::Value>{"d", "D"}));
}

TEST_F(TransactionTest, ScanRangeBounds) {
  Seed("k1", "1");
  Seed("k2", "2");
  Seed("k3", "3");
  auto t = manager_.Begin(true);
  auto rows = t->Scan("k2", "k3");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].first, "k2");
}

TEST_F(TransactionTest, ScanIgnoresConcurrentCommits) {
  Seed("a", "1");
  auto t = manager_.Begin(true);
  Seed("b", "2");  // committed after t's snapshot
  auto rows = t->Scan("", "");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(TransactionTest, ReadObservationsRecorded) {
  Seed("a", "1");
  auto t = manager_.Begin();
  (void)t->Get("a");
  (void)t->Get("missing");
  ASSERT_TRUE(t->Put("own", "x").ok());
  (void)t->Get("own");
  ASSERT_EQ(t->reads().size(), 3u);
  EXPECT_TRUE(t->reads()[0].found);
  EXPECT_NE(t->reads()[0].version_commit_ts, kInvalidTimestamp);
  EXPECT_FALSE(t->reads()[1].found);
  EXPECT_TRUE(t->reads()[2].from_own_write);
}

TEST_F(TransactionTest, MultipleWritesSameKeyLastWins) {
  auto t = manager_.Begin();
  ASSERT_TRUE(t->Put("k", "1").ok());
  ASSERT_TRUE(t->Put("k", "2").ok());
  ASSERT_TRUE(t->Put("k", "3").ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(manager_.Begin(true)->Get("k").value(), "3");
}

}  // namespace
}  // namespace txn
}  // namespace lazysi
