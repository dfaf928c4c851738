// Chaos stress: the full replicated system running over a replication
// stream that actively violates Section 3.2's assumptions (drops,
// duplicates, corruption, disconnects, all from a fixed seed), with
// concurrent client sessions on top. The stream's repair machinery — CRC
// rejection, seq dedup, HELLO/WELCOME resync — must make the faults
// invisible: zero records lost or misordered (state-hash chains and
// materialized states equal at every site), the recorded history still
// weak SI and strong session SI — while the fault counters prove the chaos
// actually happened and was repaired on the wire.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/random.h"
#include "history/completeness.h"
#include "history/si_checker.h"
#include "system/replicated_system.h"

namespace lazysi {
namespace system {
namespace {

/// One replay-engine configuration: the legacy transactional engine, the
/// serial direct-apply engine, or the parallel replay pipeline at several
/// decode/apply widths — so the chaos transport composes with every engine.
struct ChaosEngineParam {
  const char* name;
  bool direct_apply;
  std::size_t decode_threads;
  std::size_t applicator_threads;
  /// Partial replication shape; 2 secondaries / 1 partition = full.
  std::size_t secondaries = 2;
  std::size_t num_partitions = 1;
  std::size_t partition_replication = 0;
};

const ChaosEngineParam kChaosEngines[] = {
    {"LegacyRefresh", false, 0, 4},
    {"DirectSerial", true, 0, 4},
    {"Parallel1", true, 1, 1},
    {"Parallel2", true, 2, 2},
    {"Parallel4", true, 4, 4},
    // The chaos transport composed with partition filtering: every sink
    // sees a different filtered stream, each repaired independently.
    {"Parallel2Partitioned", true, 2, 2, 4, 4, 2},
    {"LegacyPartitioned", false, 0, 4, 4, 4, 2},
};

class ChaosEngineTest : public ::testing::TestWithParam<ChaosEngineParam> {
 protected:
  void ApplyEngine(SystemConfig* config) const {
    config->direct_apply_refresh = GetParam().direct_apply;
    config->decode_threads = GetParam().decode_threads;
    config->applicator_threads = GetParam().applicator_threads;
    config->num_secondaries = GetParam().secondaries;
    config->num_partitions = GetParam().num_partitions;
    config->partition_replication = GetParam().partition_replication;
  }
};

std::map<std::string, std::string> RestrictToCovered(
    const std::map<std::string, std::string>& state,
    const replication::PartitionMap& map, std::size_t secondary) {
  std::map<std::string, std::string> out;
  for (const auto& entry : state) {
    if (map.CoversKey(secondary, entry.first)) out.insert(entry);
  }
  return out;
}

TEST_P(ChaosEngineTest, FaultyTransportIsInvisibleToClients) {
  SystemConfig config;
  config.guarantee = session::Guarantee::kStrongSessionSI;
  config.record_history = true;
  ApplyEngine(&config);
  config.read_block_timeout = std::chrono::milliseconds(30000);
  config.transport_faults.drop_probability = 0.10;
  config.transport_faults.duplicate_probability = 0.05;
  config.transport_faults.corrupt_probability = 0.05;
  config.transport_faults.disconnect_probability = 0.001;
  config.transport_seed = 20060912;  // VLDB'06: fixed fault schedule
  ReplicatedSystem sys(config);
  sys.Start();

  constexpr int kClients = 4;
  constexpr int kTxnsPerClient = 60;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(31 * (c + 1));
      auto conn = sys.Connect();
      for (int i = 0; i < kTxnsPerClient; ++i) {
        if (rng.Bernoulli(0.5)) {
          // Mostly counter increments, with occasional deletes and voluntary
          // aborts so the replay engines see the full record mix (deleted
          // versions, abort records) across the faulty wire.
          if (rng.Bernoulli(0.05)) {
            auto txn = conn->BeginUpdate();
            ASSERT_TRUE(txn.ok()) << txn.status();
            ASSERT_TRUE(
                (*txn)->Put("k" + std::to_string(rng.Next(10)), "doomed")
                    .ok());
            (*txn)->Abort();
            continue;
          }
          const bool del = rng.Bernoulli(0.1);
          Status s = conn->ExecuteUpdate(
              [&](SystemTransaction& t) -> Status {
                const std::string key = "k" + std::to_string(rng.Next(10));
                if (del) return t.Delete(key);
                auto v = t.Get(key);
                const int cur = v.ok() ? std::stoi(v->ToString()) : 0;
                return t.Put(key, std::to_string(cur + 1));
              },
              /*max_attempts=*/50);
          ASSERT_TRUE(s.ok()) << s;
        } else {
          Status s = conn->ExecuteRead([&](SystemTransaction& t) -> Status {
            (void)t.Get("k" + std::to_string(rng.Next(10)));
            return Status::OK();
          });
          ASSERT_TRUE(s.ok()) << s;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(sys.WaitForReplication(std::chrono::milliseconds(60000)));
  const auto stats = sys.Stats();
  sys.Stop();

  // 1. Nothing lost, nothing misordered, nothing applied twice: every
  // secondary's materialized state agrees with the primary on the keyspace
  // it replicates. Under full replication the state-hash chains must also
  // extend the primary's commit-for-commit; a partial replica's chain
  // hashes filtered write sets, so there the covered-restriction equality
  // carries the whole claim.
  const auto& map = sys.partition_map();
  const auto primary_state = sys.primary_db()->store()->Materialize(
      sys.primary_db()->LatestCommitTs());
  for (std::size_t s = 0; s < sys.num_secondaries(); ++s) {
    EXPECT_EQ(sys.secondary_db(s)->store()->Materialize(
                  sys.secondary_db(s)->LatestCommitTs()),
              RestrictToCovered(primary_state, map, s))
        << "secondary " << s;
    if (!map.partial()) {
      auto report = history::CheckCompleteness(
          sys.primary_db()->StateChainHistory(),
          sys.secondary_db(s)->StateChainHistory());
      ASSERT_TRUE(report.ok) << "secondary " << s << ": " << report.violation;
      EXPECT_EQ(sys.secondary_db(s)->StateHash(),
                sys.primary_db()->StateHash())
          << "secondary " << s;
    }
  }

  // 2. The guarantees survived: weak SI globally (Theorem 3.2) and strong
  // session SI for every session (Theorem 4.1), over the faulty wire.
  history::SIChecker checker(sys.recorder()->Snapshot());
  ASSERT_GT(checker.num_records(), 0u);
  auto weak = checker.CheckWeakSI();
  ASSERT_TRUE(weak.ok) << weak.violation;
  auto strong_session = checker.CheckStrongSessionSI();
  ASSERT_TRUE(strong_session.ok) << strong_session.violation;
  EXPECT_EQ(checker.CountSessionInversions(), 0u);

  // 3. The chaos was real and the stream had to work for this: frames were
  // dropped and corrupted, each cut was repaired by a resync replay.
  std::uint64_t drops = 0, corrupts = 0, resyncs = 0, delivered = 0;
  for (const auto& sec : stats.secondaries) {
    drops += sec.link_dropped;
    corrupts += sec.link_corrupted;
    resyncs += sec.transport_resyncs;
    delivered += sec.transport_delivered;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(corrupts, 0u);
  EXPECT_GT(resyncs, 0u);
  EXPECT_GT(delivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ChaosEngineTest, ::testing::ValuesIn(kChaosEngines),
    [](const ::testing::TestParamInfo<ChaosEngineParam>& info) {
      return std::string(info.param.name);
    });

TEST(ChaosTest, DisconnectHeavyProfileResyncsThroughLog) {
  // A profile aggressive enough to force repeated disconnects; every resync
  // goes through Propagator::AttachSinkAt and must land the secondary on a
  // consistent prefix, never a torn one.
  SystemConfig config;
  config.num_secondaries = 1;
  config.transport_faults.drop_probability = 0.05;
  config.transport_faults.disconnect_probability = 0.01;
  config.transport_seed = 7;
  ReplicatedSystem sys(config);
  sys.Start();

  auto conn = sys.ConnectTo(0);
  for (int i = 0; i < 300; ++i) {
    Status s = conn->ExecuteUpdate(
        [&](SystemTransaction& t) -> Status {
          return t.Put("k" + std::to_string(i % 17), std::to_string(i));
        },
        /*max_attempts=*/50);
    ASSERT_TRUE(s.ok()) << s;
  }
  ASSERT_TRUE(sys.WaitForReplication(std::chrono::milliseconds(60000)));
  const auto stats = sys.Stats();
  sys.Stop();

  EXPECT_EQ(sys.secondary_db(0)->StateHash(), sys.primary_db()->StateHash());
  auto report = history::CheckCompleteness(
      sys.primary_db()->StateChainHistory(),
      sys.secondary_db(0)->StateChainHistory());
  EXPECT_TRUE(report.ok) << report.violation;
  ASSERT_EQ(stats.secondaries.size(), 1u);
  EXPECT_GT(stats.secondaries[0].link_disconnects, 0u);
  EXPECT_GT(stats.secondaries[0].transport_resyncs, 0u);
}

TEST_P(ChaosEngineTest, FailAndRecoverUnderChaosTransport) {
  // Section 3.4's crash/recovery cycle composed with the chaos transport:
  // the recovered secondary rejoins through a fresh stream whose receiver
  // asks for the replay from the checkpoint, then catches up across the
  // faulty wire.
  SystemConfig config;
  ApplyEngine(&config);
  config.transport_faults.drop_probability = 0.08;
  config.transport_faults.duplicate_probability = 0.04;
  config.transport_faults.corrupt_probability = 0.04;
  config.transport_seed = 99;
  ReplicatedSystem sys(config);
  sys.Start();

  auto conn = sys.ConnectTo(1);
  auto burst = [&](int base) {
    for (int i = 0; i < 40; ++i) {
      Status s = conn->ExecuteUpdate(
          [&](SystemTransaction& t) -> Status {
            return t.Put("k" + std::to_string((base + i) % 23),
                         std::to_string(base + i));
          },
          /*max_attempts=*/50);
      ASSERT_TRUE(s.ok()) << s;
    }
  };

  burst(0);
  ASSERT_TRUE(sys.FailSecondary(0).ok());
  burst(100);
  // Recovery needs a quiescent instant at the primary; no updates in flight.
  Status s;
  for (int attempt = 0; attempt < 20; ++attempt) {
    s = sys.RecoverSecondary(0);
    if (s.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(s.ok()) << s;
  burst(200);

  ASSERT_TRUE(sys.WaitForReplication(std::chrono::milliseconds(60000)));
  sys.Stop();
  // The recovered site's hash chain is re-rooted at the checkpoint install,
  // so compare materialized states (recovery_test does the same); partial
  // replicas compare against their covered restriction.
  const auto primary_state = sys.primary_db()->store()->Materialize(
      sys.primary_db()->LatestCommitTs());
  for (std::size_t i = 0; i < sys.num_secondaries(); ++i) {
    EXPECT_EQ(sys.secondary_db(i)->store()->Materialize(
                  sys.secondary_db(i)->LatestCommitTs()),
              RestrictToCovered(primary_state, sys.partition_map(), i))
        << "secondary " << i;
  }
}

}  // namespace
}  // namespace system
}  // namespace lazysi
