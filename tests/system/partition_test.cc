// Partial replication end-to-end: the keyspace partitioned across the
// secondary fleet (PartitionMap), per-sink write-set filtering on the
// propagation stream, SCAR-style cross-partition reads validated at the
// transaction's primary snapshot, per-partition applied floors feeding GC,
// and failure/recovery with partition-filtered checkpoints.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/random.h"
#include "history/si_checker.h"
#include "system/replicated_system.h"

namespace lazysi {
namespace system {
namespace {

SystemConfig PartitionedConfig(std::size_t secondaries,
                               std::size_t partitions,
                               std::size_t replication) {
  SystemConfig config;
  config.num_secondaries = secondaries;
  config.num_partitions = partitions;
  config.partition_replication = replication;
  return config;
}

std::map<std::string, std::string> Restrict(
    const std::map<std::string, std::string>& state,
    const replication::PartitionMap& map, std::size_t secondary) {
  std::map<std::string, std::string> out;
  for (const auto& entry : state) {
    if (map.CoversKey(secondary, entry.first)) out.insert(entry);
  }
  return out;
}

TEST(PartitionSystemTest, SecondariesHoldExactlyTheirPartitions) {
  SystemConfig config = PartitionedConfig(4, 4, 2);
  ReplicatedSystem sys(config);
  sys.Start();
  auto conn = sys.ConnectTo(0);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("k" + std::to_string(i),
                                   std::to_string(i));
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  const auto stats = sys.Stats();
  sys.Stop();

  const auto& map = sys.partition_map();
  EXPECT_TRUE(map.partial());
  const auto primary_state = sys.primary_db()->store()->Materialize(
      sys.primary_db()->LatestCommitTs());
  ASSERT_EQ(primary_state.size(), 60u);
  std::size_t fleet_updates = 0, fleet_filtered = 0;
  for (std::size_t s = 0; s < sys.num_secondaries(); ++s) {
    // Each secondary materializes exactly the covered restriction of the
    // primary state: covered keys present and equal, uncovered keys absent.
    EXPECT_EQ(sys.secondary_db(s)->store()->Materialize(
                  sys.secondary_db(s)->LatestCommitTs()),
              Restrict(primary_state, map, s))
        << "secondary " << s;
    EXPECT_EQ(stats.secondaries[s].covered_partitions, 2u);
    EXPECT_GT(stats.secondaries[s].records_filtered, 0u);
    fleet_updates += stats.secondaries[s].updates_received;
    fleet_filtered += stats.secondaries[s].records_filtered;
  }
  // 2-way replication of every update across the fleet: received updates
  // total commits x 2, and received + filtered = commits x fleet size.
  EXPECT_EQ(fleet_updates, 60u * 2);
  EXPECT_EQ(fleet_updates + fleet_filtered, 60u * sys.num_secondaries());
}

TEST(PartitionSystemTest, CrossPartitionGetAndScan) {
  SystemConfig config = PartitionedConfig(4, 4, 2);
  ReplicatedSystem sys(config);
  sys.Start();
  auto writer = sys.ConnectTo(0);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i);
    expected[key] = std::to_string(i * 7);
    ASSERT_TRUE(writer
                    ->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put(key, expected[key]);
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());

  const auto& map = sys.partition_map();
  for (std::size_t s = 0; s < sys.num_secondaries(); ++s) {
    auto conn = sys.ConnectTo(s);
    // Point reads of every key — roughly half are served remotely.
    ASSERT_TRUE(conn->ExecuteRead([&](SystemTransaction& t) -> Status {
                      for (const auto& entry : expected) {
                        auto v = t.Get(entry.first);
                        EXPECT_TRUE(v.ok()) << entry.first << ": "
                                            << v.status().ToString();
                        if (v.ok()) {
                          EXPECT_EQ(*v, entry.second);
                        }
                      }
                      return Status::OK();
                    })
                    .ok());
    // A partition-spanning scan merges local and remote slices, sorted.
    ASSERT_TRUE(conn->ExecuteRead([&](SystemTransaction& t) -> Status {
                      auto rows = t.Scan("", "zzzz");
                      EXPECT_TRUE(rows.ok());
                      if (rows.ok()) {
                        std::map<std::string, std::string> got(rows->begin(),
                                                               rows->end());
                        EXPECT_EQ(got, expected);
                        EXPECT_TRUE(std::is_sorted(rows->begin(),
                                                   rows->end()));
                      }
                      return Status::OK();
                    })
                    .ok());
  }
  const auto stats = sys.Stats();
  sys.Stop();
  EXPECT_GT(stats.remote_partition_reads, 0u);
  std::uint64_t served = 0;
  for (const auto& sec : stats.secondaries) served += sec.remote_reads_served;
  EXPECT_GT(served, 0u);
  (void)map;
}

TEST(PartitionSystemTest, StaleCoveringReplicaRejectedThenServed) {
  // Deterministic SCAR rejection: WAN latency holds fresh commits away from
  // every secondary for 300ms, then secondary 0 recovers from a checkpoint
  // taken *after* those commits — its snapshot is ahead of partition 1's
  // only replica, so the cross-partition read must reject the stale replica,
  // wait for just the snapshot prefix, and then serve the right value.
  SystemConfig config = PartitionedConfig(2, 2, 1);
  config.guarantee = session::Guarantee::kWeakSI;  // reads never block at home
  config.network_latency = std::chrono::milliseconds(300);
  ReplicatedSystem sys(config);
  sys.Start();

  const auto& map = sys.partition_map();
  // A key on partition 1 (covered only by secondary 1).
  std::string remote_key;
  for (int i = 0; i < 64 && remote_key.empty(); ++i) {
    const std::string key = "rk" + std::to_string(i);
    if (map.PartitionOf(key) == 1) remote_key = key;
  }
  ASSERT_FALSE(remote_key.empty());
  ASSERT_EQ(map.Replicas(1), std::vector<std::size_t>{1});

  auto conn = sys.ConnectTo(0);
  ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                    return t.Put(remote_key, "old");
                  })
                  .ok());
  ASSERT_TRUE(sys.WaitForReplication(std::chrono::milliseconds(20000)));

  ASSERT_TRUE(sys.FailSecondary(0).ok());
  ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                    return t.Put(remote_key, "new");
                  })
                  .ok());
  // Quiesced (the update already committed); the checkpoint includes "new".
  ASSERT_TRUE(sys.RecoverSecondary(0).ok());

  std::string got;
  ASSERT_TRUE(conn->ExecuteRead([&](SystemTransaction& t) -> Status {
                    auto v = t.Get(remote_key);
                    LAZYSI_RETURN_NOT_OK(v.status());
                    got = *v;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(got, "new");
  const auto stats = sys.Stats();
  sys.Stop();
  // The covering replica was provably behind the reader's snapshot when the
  // read started; the SCAR validation must have fired at least once.
  EXPECT_GT(stats.scar_stale_rejects, 0u);
  EXPECT_GT(stats.remote_partition_reads, 0u);
}

TEST(PartitionSystemTest, SingleKillLeavesEveryPartitionServable) {
  SystemConfig config = PartitionedConfig(4, 4, 2);
  ReplicatedSystem sys(config);
  sys.Start();
  auto conn = sys.ConnectTo(0);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i);
    expected[key] = std::to_string(i);
    ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put(key, expected[key]);
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  ASSERT_TRUE(sys.FailSecondary(2).ok());

  // With 2-way replication, killing one secondary leaves every partition
  // with a live replica: every key stays readable from any surviving home.
  for (std::size_t s : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    auto reader = sys.ConnectTo(s);
    ASSERT_TRUE(reader
                    ->ExecuteRead([&](SystemTransaction& t) -> Status {
                      for (const auto& entry : expected) {
                        auto v = t.Get(entry.first);
                        EXPECT_TRUE(v.ok())
                            << "home " << s << " key " << entry.first << ": "
                            << v.status().ToString();
                        if (v.ok()) {
                          EXPECT_EQ(*v, entry.second);
                        }
                      }
                      return Status::OK();
                    })
                    .ok());
  }

  // More updates while one replica of partitions {1,2} is down, then
  // recover; the recovered site reinstalls only its covered partitions and
  // catches up.
  for (int i = 40; i < 60; ++i) {
    const std::string key = "k" + std::to_string(i);
    expected[key] = std::to_string(i);
    ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put(key, expected[key]);
                    })
                    .ok());
  }
  Status s = Status::OK();
  for (int attempt = 0; attempt < 20; ++attempt) {
    s = sys.RecoverSecondary(2);
    if (s.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_TRUE(sys.WaitForReplication());
  sys.Stop();

  const auto& map = sys.partition_map();
  const auto primary_state = sys.primary_db()->store()->Materialize(
      sys.primary_db()->LatestCommitTs());
  for (std::size_t i = 0; i < sys.num_secondaries(); ++i) {
    EXPECT_EQ(sys.secondary_db(i)->store()->Materialize(
                  sys.secondary_db(i)->LatestCommitTs()),
              Restrict(primary_state, map, i))
        << "secondary " << i;
  }
}

TEST(PartitionSystemTest, PerPartitionFloorsGateTranslationPruning) {
  SystemConfig config = PartitionedConfig(4, 4, 2);
  ReplicatedSystem sys(config);
  sys.Start();
  auto conn = sys.ConnectTo(0);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put("k" + std::to_string(i), "v");
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());

  // All replicas live and caught up: every floor equals the primary's
  // latest commit, and GC prunes translations down to a constant residue.
  const Timestamp latest = sys.primary_db()->LatestCommitTs();
  for (Timestamp floor : sys.PartitionFloors()) EXPECT_EQ(floor, latest);
  sys.GarbageCollectAll();
  auto stats = sys.Stats();
  for (const auto& sec : stats.secondaries) {
    EXPECT_LE(sec.translation_count, 2u) << "secondary " << sec.index;
  }

  // Kill secondary 3: partitions {2,3} lose one replica each but keep one;
  // their floors drop to the surviving replica's applied_seq (still == the
  // fleet tip here), and a partition with NO live replica would pin its
  // floor at 0. Simulate that by also killing secondary 2 (partition 2's
  // other replica).
  ASSERT_TRUE(sys.FailSecondary(3).ok());
  ASSERT_TRUE(sys.FailSecondary(2).ok());
  const auto floors = sys.PartitionFloors();
  ASSERT_EQ(floors.size(), 4u);
  EXPECT_EQ(floors[0], latest);  // replicas {0,1} both live
  EXPECT_EQ(floors[1], latest);  // replicas {1,2} -> 1 live
  EXPECT_EQ(floors[2], 0u);      // replicas {2,3} both dead: floor pinned
  EXPECT_EQ(floors[3], latest);  // replicas {3,0} -> 0 live
  // GC must still run safely with dead partitions in the map.
  sys.GarbageCollectAll();
  sys.Stop();
}

TEST(PartitionSystemTest, DifferentialAgainstFullReplication) {
  // The same deterministic workload against a fully replicated fleet and a
  // 4x2-way partitioned fleet: primary states agree, every partitioned
  // secondary equals the full-replication state restricted to its coverage,
  // and reads give identical answers wherever they are served.
  SystemConfig full_config = PartitionedConfig(4, 1, 0);
  full_config.record_history = true;
  SystemConfig part_config = PartitionedConfig(4, 4, 2);
  part_config.record_history = true;
  ReplicatedSystem full(full_config);
  ReplicatedSystem part(part_config);
  full.Start();
  part.Start();

  Rng rng(20060912);
  auto full_conn = full.ConnectTo(0);
  auto part_conn = part.ConnectTo(0);
  for (int i = 0; i < 120; ++i) {
    const std::string key = "k" + std::to_string(rng.Next(24));
    const bool del = rng.Bernoulli(0.1);
    const std::string value = "v" + std::to_string(i);
    for (auto* conn : {full_conn.get(), part_conn.get()}) {
      ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                        return del ? t.Delete(key) : t.Put(key, value);
                      })
                      .ok());
    }
  }
  ASSERT_TRUE(full.WaitForReplication());
  ASSERT_TRUE(part.WaitForReplication());

  const auto full_state = full.primary_db()->store()->Materialize(
      full.primary_db()->LatestCommitTs());
  const auto part_state = part.primary_db()->store()->Materialize(
      part.primary_db()->LatestCommitTs());
  EXPECT_EQ(full_state, part_state);
  for (std::size_t s = 0; s < part.num_secondaries(); ++s) {
    EXPECT_EQ(part.secondary_db(s)->store()->Materialize(
                  part.secondary_db(s)->LatestCommitTs()),
              Restrict(full_state, part.partition_map(), s))
        << "secondary " << s;
  }

  // Reads answered identically at every home, wherever each key is served.
  for (std::size_t s = 0; s < 4; ++s) {
    auto fc = full.ConnectTo(s);
    auto pc = part.ConnectTo(s);
    for (int i = 0; i < 24; ++i) {
      const std::string key = "k" + std::to_string(i);
      std::optional<std::string> fv, pv;
      ASSERT_TRUE(fc->ExecuteRead([&](SystemTransaction& t) -> Status {
                        auto v = t.Get(key);
                        if (v.ok()) fv = *v;
                        return Status::OK();
                      })
                      .ok());
      ASSERT_TRUE(pc->ExecuteRead([&](SystemTransaction& t) -> Status {
                        auto v = t.Get(key);
                        if (v.ok()) pv = *v;
                        return Status::OK();
                      })
                      .ok());
      EXPECT_EQ(fv, pv) << "home " << s << " key " << key;
    }
  }
  full.Stop();
  part.Stop();

  // Both histories are weak SI; the partitioned one recorded its remote
  // reads in the same primary coordinates as local ones.
  history::SIChecker part_checker(part.recorder()->Snapshot());
  auto weak = part_checker.CheckWeakSI();
  EXPECT_TRUE(weak.ok) << weak.violation;
}

TEST(PartitionSystemTest, ConcurrentCrossPartitionHistoryIsStrongSessionSI) {
  // Concurrent sessions spanning partitions under the strong-session
  // guarantee, remote reads and all; the recorded history must still check.
  SystemConfig config = PartitionedConfig(4, 4, 2);
  config.guarantee = session::Guarantee::kStrongSessionSI;
  config.record_history = true;
  config.read_block_timeout = std::chrono::milliseconds(20000);
  ReplicatedSystem sys(config);
  sys.Start();

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(777 * (c + 1));
      auto conn = sys.ConnectTo(static_cast<std::size_t>(c));
      for (int i = 0; i < 40; ++i) {
        if (rng.Bernoulli(0.45)) {
          Status s = conn->ExecuteUpdate(
              [&](SystemTransaction& t) -> Status {
                const std::string key = "k" + std::to_string(rng.Next(16));
                auto v = t.Get(key);
                const int cur = v.ok() ? std::stoi(v->ToString()) : 0;
                return t.Put(key, std::to_string(cur + 1));
              },
              /*max_attempts=*/50);
          ASSERT_TRUE(s.ok()) << s;
        } else {
          Status s = conn->ExecuteRead([&](SystemTransaction& t) -> Status {
            for (int o = 0; o < 3; ++o) {
              (void)t.Get("k" + std::to_string(rng.Next(16)));
            }
            return Status::OK();
          });
          ASSERT_TRUE(s.ok()) << s;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(sys.WaitForReplication(std::chrono::milliseconds(20000)));
  const auto stats = sys.Stats();
  sys.Stop();

  EXPECT_GT(stats.remote_partition_reads, 0u);
  history::SIChecker checker(sys.recorder()->Snapshot());
  ASSERT_GT(checker.num_records(), 0u);
  auto weak = checker.CheckWeakSI();
  ASSERT_TRUE(weak.ok) << weak.violation;
  auto session = checker.CheckStrongSessionSI();
  ASSERT_TRUE(session.ok) << session.violation;
  EXPECT_EQ(checker.CountSessionInversions(), 0u);
}

TEST(PartitionSystemTest, RangeSchemeAndCoverageAwareRouting) {
  SystemConfig config = PartitionedConfig(4, 4, 2);
  config.partition_scheme = replication::PartitionMap::Scheme::kRange;
  config.freshness_routing = true;
  ReplicatedSystem sys(config);
  sys.Start();
  auto conn = sys.ConnectTo(0);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 48; ++i) {
    // Keys spread over the byte range so range partitions all get data.
    const std::string key(1, static_cast<char>(5 + i * 5));
    expected[key] = std::to_string(i);
    ASSERT_TRUE(conn->ExecuteUpdate([&](SystemTransaction& t) {
                      return t.Put(key, expected[key]);
                    })
                    .ok());
  }
  ASSERT_TRUE(sys.WaitForReplication());
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(conn->ExecuteRead([&](SystemTransaction& t) -> Status {
                      auto rows = t.Scan("", std::string(2, '\xff'));
                      EXPECT_TRUE(rows.ok());
                      if (rows.ok()) {
                        std::map<std::string, std::string> got(rows->begin(),
                                                               rows->end());
                        EXPECT_EQ(got, expected);
                      }
                      return Status::OK();
                    })
                    .ok());
  }
  sys.Stop();
}

}  // namespace
}  // namespace system
}  // namespace lazysi
