#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "system/replicated_system.h"

namespace lazysi {
namespace system {
namespace {

TEST(SystemStatsTest, TracksCommitsAndLag) {
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = session::Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();

  auto before = sys.Stats();
  EXPECT_EQ(before.primary_committed, 0u);
  ASSERT_EQ(before.secondaries.size(), 2u);
  EXPECT_EQ(before.secondaries[0].lag, 0u);

  auto client = sys.Connect();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("k" + std::to_string(i), "v");
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  auto after = sys.Stats();
  EXPECT_EQ(after.primary_committed, 10u);
  EXPECT_EQ(after.primary_latest_commit_ts, sys.primary_db()->LatestCommitTs());
  for (const auto& sec : after.secondaries) {
    EXPECT_FALSE(sec.failed);
    EXPECT_EQ(sec.lag, 0u);
    EXPECT_EQ(sec.refreshed_count, 10u);
    EXPECT_EQ(sec.applied_seq, after.primary_latest_commit_ts);
  }
  sys.Stop();
}

TEST(SystemStatsTest, FailedSecondaryMarked) {
  SystemConfig config;
  config.num_secondaries = 2;
  ReplicatedSystem sys(config);
  sys.Start();
  ASSERT_TRUE(sys.FailSecondary(1).ok());
  auto stats = sys.Stats();
  EXPECT_FALSE(stats.secondaries[0].failed);
  EXPECT_TRUE(stats.secondaries[1].failed);
  EXPECT_NE(stats.ToString().find("FAILED"), std::string::npos);
  sys.Stop();
}

TEST(SystemStatsTest, WireVolumeCountersSurfaceOverChaosTransport) {
  // The replication stream counts frames/bytes at both ends of the
  // delivery pipeline; the stats layer must surface them per secondary and
  // render them in ToString so wire volume is observable without a
  // debugger.
  SystemConfig config;
  config.num_secondaries = 2;
  config.transport_faults.drop_probability = 0.05;
  ReplicatedSystem sys(config);
  sys.Start();

  auto client = sys.Connect();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("k" + std::to_string(i), "v");
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());

  const auto stats = sys.Stats();
  for (const auto& sec : stats.secondaries) {
    EXPECT_GT(sec.link_frames_sent, 0u) << "secondary " << sec.index;
    EXPECT_GT(sec.link_frames_delivered, 0u) << "secondary " << sec.index;
    EXPECT_GT(sec.link_bytes_sent, 0u) << "secondary " << sec.index;
    EXPECT_GT(sec.link_bytes_delivered, 0u) << "secondary " << sec.index;
    // Dropped frames' bytes never arrive: delivered <= sent unless
    // duplication outweighs loss (duplication is off here).
    EXPECT_LE(sec.link_bytes_delivered, sec.link_bytes_sent);
  }
  EXPECT_NE(stats.ToString().find("wire[frames="), std::string::npos);
  sys.Stop();
}

TEST(SystemGcTest, ReclaimsAcrossAllSites) {
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = session::Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.Connect();
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("hot", std::to_string(round));
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  // Each of the 3 sites holds 5 versions of "hot"; GC keeps 1 per site.
  EXPECT_EQ(sys.GarbageCollectAll(), 3u * 4u);
  EXPECT_EQ(sys.primary_db()->store()->VersionCount(), 1u);
  // Replication continues to work after pruning.
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("hot", "after-gc");
                  })
                  .ok());
  ASSERT_TRUE(sys.WaitForReplication());
  EXPECT_EQ(sys.secondary_db(0)->Get("hot").value(), "after-gc");
  sys.Stop();
}

TEST(SystemStatsTest, RouterCountsFreshPlacements) {
  SystemConfig config;
  config.num_secondaries = 3;
  config.guarantee = session::Guarantee::kStrongSessionSI;
  config.freshness_routing = true;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.Connect();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("k" + std::to_string(i), "v");
                    })
                    .ok());
    // Every secondary catches up before the read, so a fresh replica always
    // exists and the router must never fall back to block-on-freshest.
    ASSERT_TRUE(sys.WaitForReplication());
    ASSERT_TRUE(client
                    ->ExecuteRead([&](SystemTransaction& t) {
                      return t.Get("k" + std::to_string(i)).status();
                    })
                    .ok());
  }
  auto stats = sys.Stats();
  std::uint64_t fresh = 0, blocked = 0;
  for (const auto& sec : stats.secondaries) {
    fresh += sec.ro_routed_fresh;
    blocked += sec.ro_blocked_on_freshness;
    EXPECT_EQ(sec.active_reads, 0u);  // all reads finished
  }
  EXPECT_EQ(fresh, 5u);
  EXPECT_EQ(blocked, 0u);
  EXPECT_NE(stats.ToString().find("router[fresh="), std::string::npos);
  sys.Stop();
}

TEST(SystemStatsTest, RouterFallsBackToFreshestWhenNoneFresh) {
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = session::Guarantee::kStrongSessionSI;
  config.freshness_routing = true;
  // Slow, batched propagation: right after an update commits, no secondary
  // covers the session's seq(c) yet, so the read must take the
  // block-on-freshest fallback (and still see its own write, per the
  // session guarantee).
  config.propagation_batch_interval = std::chrono::milliseconds(60);
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.Connect();
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("announcement", std::to_string(round));
                    })
                    .ok());
    const std::string want = std::to_string(round);
    ASSERT_TRUE(client
                    ->ExecuteRead([&](SystemTransaction& t) {
                      auto v = t.Get("announcement");
                      if (!v.ok()) return v.status();
                      return v.value() == want
                                 ? Status::OK()
                                 : Status::Internal("stale read");
                    })
                    .ok());
  }
  auto stats = sys.Stats();
  std::uint64_t blocked = 0;
  for (const auto& sec : stats.secondaries) {
    blocked += sec.ro_blocked_on_freshness;
  }
  EXPECT_GT(blocked, 0u);
  sys.Stop();
}

TEST(SystemGcTest, BackgroundCadenceReclaims) {
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = session::Guarantee::kWeakSI;
  config.gc_interval = std::chrono::milliseconds(5);
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.Connect();
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(client
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("hot", std::to_string(round));
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  // The maintenance thread prunes without any explicit GarbageCollectAll
  // call; poll until the shadowed versions are gone at both sites.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         (sys.primary_db()->store()->VersionCount() > 1 ||
          sys.secondary_db(0)->store()->VersionCount() > 1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(sys.gc_passes(), 0u);
  EXPECT_EQ(sys.primary_db()->store()->VersionCount(), 1u);
  EXPECT_EQ(sys.secondary_db(0)->store()->VersionCount(), 1u);
  // Replication and reads still work after background pruning.
  ASSERT_TRUE(client
                  ->ExecuteUpdate([](SystemTransaction& t) {
                    return t.Put("hot", "after-gc");
                  })
                  .ok());
  ASSERT_TRUE(sys.WaitForReplication());
  EXPECT_EQ(sys.secondary_db(0)->Get("hot").value(), "after-gc");
  sys.Stop();
}

TEST(SystemStatsTest, DurabilityCountersTrackTheLog) {
  const std::string dir = testing::TempDir() + "lazysi_durable_stats";
  std::filesystem::remove_all(dir);
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = session::Guarantee::kWeakSI;
  config.durable_log = true;
  config.data_dir = dir;
  config.fsync_mode = "group";
  config.checkpoint_interval = std::chrono::milliseconds(20);

  std::uint64_t hash = 0;
  {
    ReplicatedSystem sys(config);
    ASSERT_NE(sys.durable_log(), nullptr);
    ASSERT_NE(sys.checkpointer(), nullptr);
    sys.Start();
    auto client = sys.Connect();
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(client
                      ->ExecuteUpdate([&](SystemTransaction& t) {
                        return t.Put("k" + std::to_string(i), "v");
                      })
                      .ok());
    }
    ASSERT_TRUE(sys.WaitForReplication());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline &&
           sys.checkpointer()->checkpoint_count() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    auto stats = sys.Stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_GT(stats.fsyncs, 0u);
    EXPECT_GT(stats.records_flushed, 0u);
    EXPECT_GT(stats.mean_group_size, 0.0);
    EXPECT_GE(stats.max_group_size, 1u);
    EXPECT_GT(stats.checkpoint_count, 0u);
    EXPECT_NE(stats.ToString().find("durability: fsyncs="), std::string::npos);
    hash = sys.primary_db()->ContentHash();
    EXPECT_NE(hash, 0u);
    sys.Stop();
  }

  // Restart from the same data directory: the primary restores its state
  // and every secondary bootstraps from a checkpoint of the restored image.
  {
    ReplicatedSystem sys(config);
    ASSERT_NE(sys.durable_log(), nullptr);
    EXPECT_NE(sys.restore_report().restored_visible, kInvalidTimestamp);
    sys.Start();
    EXPECT_EQ(sys.primary_db()->ContentHash(), hash);
    ASSERT_TRUE(sys.WaitForReplication());
    EXPECT_EQ(sys.secondary_db(0)->ContentHash(), hash);
    // The restored system keeps committing and replicating.
    auto client = sys.Connect();
    ASSERT_TRUE(client
                    ->ExecuteUpdate([](SystemTransaction& t) {
                      return t.Put("post-restart", "yes");
                    })
                    .ok());
    ASSERT_TRUE(sys.WaitForReplication());
    EXPECT_EQ(sys.secondary_db(0)->Get("post-restart").value(), "yes");
    sys.Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(SystemStatsTest, ToStringMentionsAllSites) {
  SystemConfig config;
  config.num_secondaries = 3;
  ReplicatedSystem sys(config);
  sys.Start();
  const std::string s = sys.Stats().ToString();
  EXPECT_NE(s.find("primary:"), std::string::npos);
  EXPECT_NE(s.find("secondary 0"), std::string::npos);
  EXPECT_NE(s.find("secondary 2"), std::string::npos);
  sys.Stop();
}

}  // namespace
}  // namespace system
}  // namespace lazysi
