// The site server's periodic reclaim pass, against in-process site servers:
// a secondary keeps no logical log and a bounded translation table, an
// in-memory primary keeps its log only back to what its secondaries need,
// every site prunes the versions no open snapshot can see, an open reader
// pins what it still needs, a durable primary's log stays the
// checkpointer's alone to truncate, and no site keeps a state-chain history.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>

#include "system/remote_client.h"
#include "system/site_server.h"

namespace lazysi {
namespace system {
namespace {

using namespace std::chrono_literals;

constexpr int kKeys = 64;

SiteServer::Options PrimaryOptions() {
  SiteServer::Options o;
  o.role = SiteServer::Role::kPrimary;
  return o;
}

SiteServer::Options SecondaryOptions(std::uint16_t primary_repl_port) {
  SiteServer::Options o;
  o.role = SiteServer::Role::kSecondary;
  o.site_id = 1;
  o.primary_repl_port = primary_repl_port;
  return o;
}

std::string Key(int i) { return "row-" + std::to_string(1000 + i); }
std::string Value(int round, int i, std::size_t pad = 200) {
  return "r" + std::to_string(round) + "-" + std::to_string(i) +
         std::string(pad, 'x');
}

/// Overwrites every key once, one transaction per 8 keys; returns the
/// session's seq(c) afterwards.
Timestamp OverwriteRound(RemoteSite* primary, RemoteSession* session,
                         int round, std::size_t pad = 200) {
  for (int i = 0; i < kKeys; i += 8) {
    EXPECT_TRUE(session->Begin(primary, /*read_only=*/false).ok());
    for (int k = i; k < i + 8; ++k) {
      EXPECT_TRUE(primary->Put(Key(k), Value(round, k, pad)).ok());
    }
    EXPECT_TRUE(session->Commit(primary).ok());
  }
  return session->seq();
}

/// Polls `done` for up to 5 s (many reclaim passes).
bool Eventually(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return done();
}

std::size_t RetainedLog(SiteServer* site) {
  // Base first: Size() only grows and never falls below any earlier base.
  const std::size_t base = site->db()->log()->base_lsn();
  return site->db()->log()->Size() - base;
}

TEST(ReclaimTest, SecondaryLogAndVersionsStayBoundedUnderOverwrites) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  SiteServer secondary(SecondaryOptions(primary.repl_port()));
  ASSERT_TRUE(secondary.Start().ok());

  RemoteSite writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.client_port()).ok());
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", secondary.client_port()).ok());
  RemoteSession session;

  std::size_t appended = 0;  // secondary log records, dropped or retained
  for (int round = 0; round < 10; ++round) {
    const Timestamp seq = OverwriteRound(&writer, &session, round);
    ASSERT_TRUE(replica.WaitSeq(seq).ok());
    // One round appends (start + 8 updates + commit) x 8 records to the
    // secondary's log. Once a pass has run, none of it is retained, and
    // each key is down to its newest version at both sites.
    EXPECT_TRUE(Eventually([&] {
      return RetainedLog(&secondary) == 0 &&
             secondary.db()->store()->VersionCount() == kKeys &&
             primary.db()->store()->VersionCount() == kKeys;
    })) << "round " << round << ": secondary retains "
        << RetainedLog(&secondary) << " log records, "
        << secondary.db()->store()->VersionCount() << " versions; primary "
        << primary.db()->store()->VersionCount() << " versions";
    appended = secondary.db()->log()->Size();
  }

  // Counters are published as a pass ends, just after the frees above.
  EXPECT_TRUE(Eventually([&] {
    return secondary.reclaim_stats().log_records_dropped == appended &&
           secondary.reclaim_stats().versions_pruned == 9u * kKeys &&
           primary.reclaim_stats().versions_pruned == 9u * kKeys;
  }));
  const SiteServer::ReclaimStats sec = secondary.reclaim_stats();
  EXPECT_GT(sec.passes, 0u);
  EXPECT_GT(sec.trims, 0u);
  EXPECT_GT(sec.pass_p50_us, 0.0);
  EXPECT_GE(sec.pass_max_us, sec.pass_p50_us);
  // The in-memory primary keeps its log only back to the sync point at or
  // below the secondary's last ack (one per 64 propagation records, i.e. 32
  // transactions of 10 log records each).
  EXPECT_TRUE(Eventually([&] {
    return primary.db()->log()->base_lsn() > 0 &&
           primary.reclaim_stats().log_records_dropped ==
               primary.db()->log()->base_lsn() &&
           RetainedLog(&primary) <= 320u;
  })) << "primary retains " << RetainedLog(&primary) << " of "
      << primary.db()->log()->Size() << " log records";

  // An idle site skips its passes (after at most one more that saw a
  // commit land mid-pass).
  std::this_thread::sleep_for(3 * SiteServer::kReclaimInterval);
  const std::uint64_t passes = secondary.reclaim_stats().passes;
  std::this_thread::sleep_for(5 * SiteServer::kReclaimInterval);
  EXPECT_EQ(secondary.reclaim_stats().passes, passes);
}

TEST(ReclaimTest, OpenReaderPinsItsSnapshotAcrossPasses) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  SiteServer secondary(SecondaryOptions(primary.repl_port()));
  ASSERT_TRUE(secondary.Start().ok());

  RemoteSite writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.client_port()).ok());
  RemoteSite reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", secondary.client_port()).ok());
  RemoteSession session;

  OverwriteRound(&writer, &session, 0);
  ASSERT_TRUE(session.Begin(&reader, /*read_only=*/true).ok());
  RemoteSite probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", secondary.client_port()).ok());
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(probe.WaitSeq(OverwriteRound(&writer, &session, round)).ok());
    // A pass that ran after the round's last commit emptied the log; the
    // reader's snapshot still holds every key's round-0 version alive, and
    // no newer version is pruned below it.
    ASSERT_TRUE(Eventually([&] { return RetainedLog(&secondary) == 0; }));
    EXPECT_EQ(secondary.db()->store()->VersionCount(),
              static_cast<std::size_t>((round + 1) * kKeys));
    for (int i = 0; i < kKeys; ++i) {
      auto value = reader.Get(Key(i));
      ASSERT_TRUE(value.ok()) << Key(i) << ": " << value.status();
      EXPECT_EQ(*value, Value(0, i));
    }
  }

  // Nothing commits and the reader holds its snapshot: the site skips its
  // passes.
  std::this_thread::sleep_for(3 * SiteServer::kReclaimInterval);
  const std::uint64_t passes = secondary.reclaim_stats().passes;
  std::this_thread::sleep_for(5 * SiteServer::kReclaimInterval);
  EXPECT_EQ(secondary.reclaim_stats().passes, passes);
  EXPECT_EQ(secondary.db()->store()->VersionCount(), 4u * kKeys);
  ASSERT_TRUE(reader.Commit().ok());

  // Released: the oldest active snapshot moves, so the next pass drops the
  // pinned versions without waiting for another commit.
  EXPECT_TRUE(Eventually(
      [&] { return secondary.db()->store()->VersionCount() == kKeys; }))
      << secondary.db()->store()->VersionCount();
  EXPECT_GT(secondary.reclaim_stats().passes, passes);
}

TEST(ReclaimTest, SecondaryTranslationsStayBoundedAndReadersKeepTheirPrefix) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  SiteServer secondary(SecondaryOptions(primary.repl_port()));
  ASSERT_TRUE(secondary.Start().ok());
  replication::Secondary* replica_site = secondary.secondary();
  ASSERT_NE(replica_site, nullptr);

  RemoteSite writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.client_port()).ok());
  RemoteSite probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", secondary.client_port()).ok());
  RemoteSession session;

  // A reader opened after round 0: passes over the later rounds must keep
  // its snapshot's primary prefix resolvable.
  const Timestamp round0 = OverwriteRound(&writer, &session, 0);
  ASSERT_TRUE(probe.WaitSeq(round0).ok());
  auto reader = secondary.db()->Begin(/*read_only=*/true);
  const Timestamp prefix =
      replica_site->PrimaryPrefixAtLocal(reader->snapshot_ts());
  EXPECT_EQ(prefix, round0);
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(probe.WaitSeq(OverwriteRound(&writer, &session, round)).ok());
    ASSERT_TRUE(Eventually([&] { return RetainedLog(&secondary) == 0; }));
    EXPECT_EQ(replica_site->PrimaryPrefixAtLocal(reader->snapshot_ts()),
              prefix);
  }
  ASSERT_TRUE(reader->Commit().ok());

  // Ten rounds of eight refresh commits each: without pruning the table
  // would hold one entry per commit.
  for (int round = 4; round < 14; ++round) {
    const Timestamp seq = OverwriteRound(&writer, &session, round);
    ASSERT_TRUE(probe.WaitSeq(seq).ok());
    EXPECT_TRUE(
        Eventually([&] { return replica_site->translation_count() <= 8u; }))
        << "round " << round << ": " << replica_site->translation_count()
        << " translations";
  }
  // A reader opened now still gets the exact prefix it reads.
  auto begin = session.Begin(&probe, /*read_only=*/true);
  ASSERT_TRUE(begin.ok()) << begin.status();
  EXPECT_EQ(*begin, session.seq());
  EXPECT_TRUE(probe.Commit().ok());
}

TEST(ReclaimTest, ServersKeepNoStateChainHistory) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  SiteServer secondary(SecondaryOptions(primary.repl_port()));
  ASSERT_TRUE(secondary.Start().ok());

  RemoteSite writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.client_port()).ok());
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", secondary.client_port()).ok());
  RemoteSession session;

  // Forty rounds of eight update commits each.
  for (int round = 0; round < 40; ++round) {
    const Timestamp seq = OverwriteRound(&writer, &session, round);
    if (round % 10 == 9) {
      ASSERT_TRUE(replica.WaitSeq(seq).ok());
    }
  }
  EXPECT_TRUE(primary.db()->StateChainHistory().empty());
  EXPECT_TRUE(secondary.db()->StateChainHistory().empty());
  // The running chain still advances, identically at both sites.
  EXPECT_NE(primary.db()->StateHash(), 0u);
  EXPECT_EQ(secondary.db()->StateHash(), primary.db()->StateHash());
}

TEST(ReclaimTest, DurablePrimaryLogIsTruncatedOnlyByItsCheckpointer) {
  const std::string data_dir = testing::TempDir() + "lazysi_reclaim_" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(data_dir);
  SiteServer::Options options = PrimaryOptions();
  options.data_dir = data_dir;
  options.fsync_mode = "never";
  SiteServer primary(options);
  ASSERT_TRUE(primary.Start().ok());
  SiteServer secondary(SecondaryOptions(primary.repl_port()));
  ASSERT_TRUE(secondary.Start().ok());

  RemoteSite writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.client_port()).ok());
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", secondary.client_port()).ok());
  RemoteSession session;

  // 16 KiB values: ten rounds fill more than one 4 MiB log segment, so a
  // checkpoint taken once the secondary's acks (one per 64 records) pass
  // the segment truncates the log to a nonzero base.
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(
        replica.WaitSeq(OverwriteRound(&writer, &session, round, 16 << 10))
            .ok());
  }
  ASSERT_TRUE(Eventually([&] {
    return primary.checkpointer()->CheckpointNow().ok() &&
           primary.durable_log()->base_lsn() > 0;
  }));
  // One more round after the last checkpoint: its old versions are gone
  // only once a pass has run since.
  ASSERT_TRUE(replica.WaitSeq(OverwriteRound(&writer, &session, 10)).ok());
  ASSERT_TRUE(Eventually(
      [&] { return primary.db()->store()->VersionCount() == kKeys; }));

  // Passes pruned versions at the primary but left its log where the last
  // checkpoint put it: in memory and on disk alike.
  EXPECT_EQ(primary.db()->log()->base_lsn(),
            primary.durable_log()->base_lsn());
  EXPECT_GT(RetainedLog(&primary), 0u);
  EXPECT_EQ(primary.reclaim_stats().log_records_dropped, 0u);

  secondary.Stop();
  primary.Stop();
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace system
}  // namespace lazysi
