// Section 3.4's design rationale, made executable: if the propagated-record
// queue lived *inside* the database, concurrent refresh transactions would
// contend on the queue's pages and first-committer-wins would abort all but
// one — collapsing the refresh pipeline to a sequential process. Keeping the
// queue outside the database (common::BlockingQueue) avoids that entirely.

#include <gtest/gtest.h>

#include "common/queue.h"
#include "engine/database.h"
#include "replication/messages.h"

namespace lazysi {
namespace replication {
namespace {

TEST(QueuePlacementTest, InDatabaseQueueCausesFcwAborts) {
  // Model an in-database FIFO queue the obvious way: a "tail" cursor key
  // that every enqueue must read and bump. Two concurrent transactions
  // enqueueing have a write-write conflict on the cursor.
  engine::Database db;
  ASSERT_TRUE(db.Put("queue/tail", "0").ok());

  auto enqueue_a = db.Begin();
  auto enqueue_b = db.Begin();
  for (auto* t : {enqueue_a.get(), enqueue_b.get()}) {
    auto tail = t->Get("queue/tail");
    ASSERT_TRUE(tail.ok());
    const int slot = std::stoi(tail->ToString());
    ASSERT_TRUE(t->Put("queue/item/" + std::to_string(slot), "record").ok());
    ASSERT_TRUE(t->Put("queue/tail", std::to_string(slot + 1)).ok());
  }
  EXPECT_TRUE(enqueue_a->Commit().ok());
  // The second concurrent enqueuer aborts under FCW: progress degrades to
  // one enqueue at a time — exactly what Section 3.4 warns about.
  EXPECT_TRUE(enqueue_b->Commit().IsWriteConflict());
}

TEST(QueuePlacementTest, ExternalQueueHasNoSuchContention) {
  // The external queue admits fully concurrent producers with no aborts.
  BlockingQueue<PropagationRecord> queue;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE(queue.Push(PropStart{
            static_cast<TxnId>(p * 1000 + i), static_cast<Timestamp>(i)}));
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(queue.size(), 1000u);
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
