// Executable versions of the SQL phenomena from the paper's appendix
// (P0-P5): the engine's local strong SI must preclude P0-P4 and admit P5
// (write skew), exactly as Section 2.1 states.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace lazysi {
namespace {

class PhenomenaTest : public ::testing::Test {
 protected:
  engine::Database db_;
};

TEST_F(PhenomenaTest, P0DirtyWritePrevented) {
  // T1 modifies x; T2 modifies x before T1 commits. Under FCW the second
  // committer aborts, and uncommitted writes are never visible, so no state
  // ever interleaves the two.
  ASSERT_TRUE(db_.Put("x", "0").ok());
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  ASSERT_TRUE(t1->Put("x", "t1").ok());
  ASSERT_TRUE(t2->Put("x", "t2").ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().IsWriteConflict());
  EXPECT_EQ(db_.Get("x").value(), "t1");
}

TEST_F(PhenomenaTest, P1DirtyReadPrevented) {
  // T2 must never observe T1's uncommitted modification.
  ASSERT_TRUE(db_.Put("x", "committed").ok());
  auto t1 = db_.Begin();
  ASSERT_TRUE(t1->Put("x", "uncommitted").ok());
  auto t2 = db_.Begin(/*read_only=*/true);
  EXPECT_EQ(t2->Get("x").value(), "committed");
  t1->Abort();
  EXPECT_EQ(db_.Get("x").value(), "committed");
}

TEST_F(PhenomenaTest, P2FuzzyReadPrevented) {
  // T1 reads x; T2 modifies x and commits; T1 rereads and must see the same
  // value (snapshot reads are repeatable).
  ASSERT_TRUE(db_.Put("x", "v1").ok());
  auto t1 = db_.Begin(/*read_only=*/true);
  EXPECT_EQ(t1->Get("x").value(), "v1");
  ASSERT_TRUE(db_.Put("x", "v2").ok());
  EXPECT_EQ(t1->Get("x").value(), "v1");
}

TEST_F(PhenomenaTest, P3PhantomPrevented) {
  // T1 scans a predicate range; T2 inserts a matching row and commits; T1's
  // re-scan returns the same rows.
  ASSERT_TRUE(db_.Put("acct/1", "100").ok());
  auto t1 = db_.Begin(/*read_only=*/true);
  auto before = t1->Scan("acct/", "acct0");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 1u);
  ASSERT_TRUE(db_.Put("acct/2", "200").ok());
  auto after = t1->Scan("acct/", "acct0");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
  // A fresh transaction does see the phantom row.
  auto t2 = db_.Begin(/*read_only=*/true);
  EXPECT_EQ(t2->Scan("acct/", "acct0")->size(), 2u);
}

TEST_F(PhenomenaTest, P4LostUpdatePrevented) {
  // T1 reads x; T2 updates x and commits; T1 updates x based on its earlier
  // read and tries to commit — FCW aborts T1, so T2's update survives.
  ASSERT_TRUE(db_.Put("x", "10").ok());
  auto t1 = db_.Begin();
  EXPECT_EQ(t1->Get("x").value(), "10");
  {
    auto t2 = db_.Begin();
    ASSERT_TRUE(t2->Put("x", "20").ok());
    ASSERT_TRUE(t2->Commit().ok());
  }
  ASSERT_TRUE(t1->Put("x", "11").ok());  // 10 + 1 from the stale read
  EXPECT_TRUE(t1->Commit().IsWriteConflict());
  EXPECT_EQ(db_.Get("x").value(), "20");  // T2's update not lost
}

TEST_F(PhenomenaTest, P5WriteSkewAdmitted) {
  // The constraint x + y >= 0 can be violated under SI: both transactions
  // check it against the same snapshot, write disjoint keys and commit.
  // This is what makes SI weaker than serializability.
  ASSERT_TRUE(db_.Put("x", "50").ok());
  ASSERT_TRUE(db_.Put("y", "50").ok());
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  // Each verifies x + y - 100 >= 0 on its snapshot, then withdraws 100 from
  // a different account.
  const int sum1 = std::stoi(t1->Get("x").value().ToString()) +
                   std::stoi(t1->Get("y").value().ToString());
  const int sum2 = std::stoi(t2->Get("x").value().ToString()) +
                   std::stoi(t2->Get("y").value().ToString());
  ASSERT_GE(sum1 - 100, 0);
  ASSERT_GE(sum2 - 100, 0);
  ASSERT_TRUE(t1->Put("x", "-50").ok());
  ASSERT_TRUE(t2->Put("y", "-50").ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());  // SI admits the anomaly
  const int final_sum = std::stoi(db_.Get("x").value().ToString()) +
                        std::stoi(db_.Get("y").value().ToString());
  EXPECT_LT(final_sum, 0);  // constraint violated: write skew happened
}

}  // namespace
}  // namespace lazysi
