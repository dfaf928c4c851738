#include "system/replicated_system.h"

#include <gtest/gtest.h>

#include <thread>

#include "history/completeness.h"

namespace lazysi {
namespace system {
namespace {

SystemConfig Config(session::Guarantee g, std::size_t secondaries = 2) {
  SystemConfig c;
  c.num_secondaries = secondaries;
  c.guarantee = g;
  c.record_history = true;
  return c;
}

TEST(ReplicatedSystemTest, UpdateRoutedToPrimaryReadToSecondary) {
  ReplicatedSystem sys(Config(session::Guarantee::kStrongSessionSI));
  sys.Start();
  auto client = sys.ConnectTo(0);

  auto upd = client->BeginUpdate();
  ASSERT_TRUE(upd.ok());
  ASSERT_TRUE((*upd)->Put("k", "v").ok());
  ASSERT_TRUE((*upd)->Commit().ok());
  EXPECT_EQ(sys.primary_db()->Get("k").value(), "v");

  auto read = client->BeginRead();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)->Get("k").value(), "v");  // read-your-writes
  ASSERT_TRUE((*read)->Commit().ok());
  sys.Stop();
}

TEST(ReplicatedSystemTest, ReadOnlyTxnRejectsWrites) {
  ReplicatedSystem sys(Config(session::Guarantee::kWeakSI));
  sys.Start();
  auto client = sys.Connect();
  auto read = client->BeginRead();
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE((*read)->Put("k", "v").ok());
  EXPECT_FALSE((*read)->Delete("k").ok());
  sys.Stop();
}

TEST(ReplicatedSystemTest, SessionSeqAdvancesOnUpdateCommit) {
  ReplicatedSystem sys(Config(session::Guarantee::kStrongSessionSI));
  sys.Start();
  auto client = sys.Connect();
  EXPECT_EQ(client->session()->seq(), 0u);
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("k", "v");
                  })
                  .ok());
  EXPECT_EQ(client->session()->seq(), sys.primary_db()->LatestCommitTs());
  sys.Stop();
}

TEST(ReplicatedSystemTest, ExecuteUpdateRetriesConflicts) {
  ReplicatedSystem sys(Config(session::Guarantee::kWeakSI));
  sys.Start();
  ASSERT_TRUE(sys.ConnectTo(0)
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("counter", "0");
                  })
                  .ok());
  // Concurrent read-modify-write increments from many clients; FCW retries
  // inside ExecuteUpdate must make them all land.
  constexpr int kClients = 4;
  constexpr int kIncrements = 25;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = sys.Connect();
      for (int i = 0; i < kIncrements; ++i) {
        Status s = client->ExecuteUpdate(
            [](SystemTransaction& t) -> Status {
              auto v = t.Get("counter");
              if (!v.ok()) return v.status();
              return t.Put("counter", std::to_string(std::stoi(v->ToString()) + 1));
            },
            /*max_attempts=*/100);
        ASSERT_TRUE(s.ok()) << s;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sys.primary_db()->Get("counter").value(),
            std::to_string(kClients * kIncrements));
  sys.Stop();
}

TEST(ReplicatedSystemTest, WaitForReplicationSyncsAllSecondaries) {
  ReplicatedSystem sys(Config(session::Guarantee::kWeakSI, 3));
  sys.Start();
  auto client = sys.Connect();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("k" + std::to_string(i), "v");
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  for (std::size_t s = 0; s < sys.num_secondaries(); ++s) {
    EXPECT_EQ(sys.secondary_db(s)->store()->KeyCount(), 50u);
    // Theorem 3.1 executable form: identical state chains.
    auto report = history::CheckCompleteness(
        sys.primary_db()->StateChainHistory(),
        sys.secondary_db(s)->StateChainHistory());
    EXPECT_TRUE(report.ok) << report.violation;
  }
  sys.Stop();
}

TEST(ReplicatedSystemTest, ScanThroughSystemTransaction) {
  ReplicatedSystem sys(Config(session::Guarantee::kStrongSessionSI));
  sys.Start();
  auto client = sys.ConnectTo(0);
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) -> Status {
                    LAZYSI_RETURN_NOT_OK(t.Put("a/1", "1"));
                    LAZYSI_RETURN_NOT_OK(t.Put("a/2", "2"));
                    return t.Put("b/1", "3");
                  })
                  .ok());
  auto read = client->BeginRead();
  ASSERT_TRUE(read.ok());
  auto rows = (*read)->Scan("a/", "a0");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  sys.Stop();
}

TEST(ReplicatedSystemTest, ConnectRoundRobins) {
  ReplicatedSystem sys(Config(session::Guarantee::kWeakSI, 3));
  sys.Start();
  auto c0 = sys.Connect();
  auto c1 = sys.Connect();
  auto c2 = sys.Connect();
  auto c3 = sys.Connect();
  EXPECT_NE(c0->secondary_index(), c1->secondary_index());
  EXPECT_EQ(c0->secondary_index(), c3->secondary_index());
  sys.Stop();
}

TEST(ReplicatedSystemTest, HistoryRecorded) {
  ReplicatedSystem sys(Config(session::Guarantee::kStrongSessionSI));
  sys.Start();
  auto client = sys.Connect();
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("k", "v");
                  })
                  .ok());
  ASSERT_TRUE(sys.WaitForReplication());
  ASSERT_TRUE(client
                  ->ExecuteRead([](SystemTransaction& t) {
                    return t.Get("k").status();
                  })
                  .ok());
  auto records = sys.recorder()->Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].read_only);
  EXPECT_EQ(records[0].writes.size(), 1u);
  EXPECT_TRUE(records[1].read_only);
  ASSERT_EQ(records[1].reads.size(), 1u);
  // The read's observed version is expressed in primary timestamps.
  EXPECT_EQ(records[1].reads[0].version_primary_ts,
            records[0].commit_primary_ts);
  sys.Stop();
}

TEST(ReplicatedSystemTest, StrongSessionBlocksUntilCaughtUp) {
  // With a slow (batched) propagator, a read right after an update must
  // block until the update is applied — and then see it.
  SystemConfig config = Config(session::Guarantee::kStrongSessionSI, 1);
  config.propagation_batch_interval = std::chrono::milliseconds(100);
  config.read_block_timeout = std::chrono::milliseconds(10000);
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.Connect();
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("fresh", "yes");
                  })
                  .ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto read = client->BeginRead();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)->Get("fresh").value(), "yes");
  // It genuinely waited for the propagation cycle.
  EXPECT_GT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            20);
  sys.Stop();
}

TEST(ReplicatedSystemTest, WeakSIDoesNotBlock) {
  SystemConfig config = Config(session::Guarantee::kWeakSI, 1);
  config.propagation_batch_interval = std::chrono::milliseconds(200);
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.Connect();
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("fresh", "yes");
                  })
                  .ok());
  auto read = client->BeginRead();
  ASSERT_TRUE(read.ok());
  // Immediately readable — and typically stale (transaction inversion).
  EXPECT_TRUE((*read)->Get("fresh").status().IsNotFound());
  sys.Stop();
}

}  // namespace
}  // namespace system
}  // namespace lazysi
