#include "replication/tcp_replication.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "net/event_loop.h"
#include "replication/primary.h"
#include "replication/secondary.h"
#include "replication/wire.h"

namespace lazysi {
namespace replication {
namespace {

using namespace std::chrono_literals;

/// Primary DB + propagator + TCP listener, plus helpers to run updates.
struct PrimaryProc {
  engine::Database db;
  Primary primary{&db};
  ReplicationListener listener;

  explicit PrimaryProc(ReplicationListener::Options options = {})
      : listener(&primary, std::move(options)) {
    EXPECT_TRUE(listener.Start().ok());
    primary.Start();
  }
  ~PrimaryProc() {
    primary.Stop();
    listener.Stop();
  }

  Timestamp PutN(int n, const std::string& tag) {
    Timestamp last = 0;
    for (int i = 0; i < n; ++i) {
      auto t = db.Begin();
      EXPECT_TRUE(t->Put("key-" + std::to_string(i), tag).ok());
      EXPECT_TRUE(t->Commit().ok());
      last = t->commit_ts();
    }
    return last;
  }

  /// Truncates the log as an in-memory SiteServer primary's reclaim pass
  /// does; returns the new log base.
  std::size_t Truncate() {
    primary.propagator()->TruncateLogBelow(
        static_cast<std::size_t>(listener.MinAckFloor()));
    return db.log()->base_lsn();
  }

  /// Commits `n` rows "row-<i>" of `value_bytes` bytes each, `per_txn` rows
  /// per transaction; returns the last commit timestamp.
  Timestamp PutRows(int n, std::size_t value_bytes, int per_txn = 50) {
    Timestamp last = 0;
    for (int i = 0; i < n; i += per_txn) {
      auto t = db.Begin();
      for (int k = i; k < std::min(n, i + per_txn); ++k) {
        EXPECT_TRUE(t->Put("row-" + std::to_string(k),
                           std::to_string(k) + std::string(value_bytes, 'v'))
                        .ok());
      }
      EXPECT_TRUE(t->Commit().ok());
      last = t->commit_ts();
    }
    return last;
  }
};

/// Secondary DB + refresh machinery + TCP stream client.
struct SecondaryProc {
  engine::Database db;
  Secondary secondary{&db};
  ReplicationReceiver receiver;

  explicit SecondaryProc(std::uint16_t primary_port)
      : db(engine::DatabaseOptions{1, "tcp-sec"}),
        secondary(&db),
        receiver(&secondary, [primary_port] {
          ReplicationReceiver::Options o;
          o.primary_port = primary_port;
          o.ack_interval = 4;
          o.reconnect_backoff = 1ms;
          o.reconnect_backoff_max = 20ms;
          return o;
        }()) {
    secondary.Start();
    receiver.Start();
  }
  ~SecondaryProc() {
    receiver.Stop();
    secondary.Stop();
  }
};

TEST(TcpReplicationTest, StreamsRecordsEndToEnd) {
  PrimaryProc primary;
  SecondaryProc secondary(primary.listener.port());

  const Timestamp last = primary.PutN(40, "v1");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));
  EXPECT_EQ(secondary.db.StateHash(), primary.db.StateHash());

  const auto rs = secondary.receiver.stats();
  EXPECT_GT(rs.records_delivered, 0u);
  EXPECT_EQ(rs.reconnects, 0u);
  EXPECT_EQ(rs.crc_rejected, 0u);
  const auto ls = primary.listener.stats();
  EXPECT_EQ(ls.connections_accepted, 1u);
  EXPECT_GT(ls.records_streamed, 0u);
}

TEST(TcpReplicationTest, AcksAdvanceTheTruncationFloor) {
  // The receiver acks every ack_interval records; the listener turns the
  // acked position into the log-truncation floor, which must leave the
  // origin once the secondary has applied a sync point past it.
  PrimaryProc primary;
  SecondaryProc secondary(primary.listener.port());
  const Timestamp last = primary.PutN(40, "v");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (primary.listener.MinAckFloor() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no ack ever advanced the floor";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_LE(primary.listener.MinAckFloor(),
            primary.primary.propagator()->position());
}

TEST(TcpReplicationTest, ReceiverResyncsAfterConnectionCut) {
  PrimaryProc primary;
  SecondaryProc secondary(primary.listener.port());

  Timestamp last = primary.PutN(25, "v1");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));

  // Sever the stream mid-flight; the receiver must reconnect, re-HELLO with
  // its current position, and dedup whatever the sync-point replay overlaps.
  secondary.receiver.CutConnection();
  last = primary.PutN(25, "v2");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));
  EXPECT_EQ(secondary.db.StateHash(), primary.db.StateHash());

  const auto rs = secondary.receiver.stats();
  EXPECT_GE(rs.reconnects, 1u);
  EXPECT_EQ(primary.listener.stats().connections_accepted,
            1u + rs.reconnects);
}

TEST(TcpReplicationTest, FreshReceiverReplaysFullLog) {
  PrimaryProc primary;
  const Timestamp mid = primary.PutN(30, "v1");
  {
    SecondaryProc first(primary.listener.port());
    ASSERT_TRUE(first.secondary.WaitForSeq(mid, 5000ms));
  }  // first secondary torn down entirely — the kill -9 analogue in-process

  const Timestamp last = primary.PutN(30, "v2");
  // A brand-new secondary HELLOs with expected_seq = 0 and must receive the
  // whole log (AttachSinkAt(0)), not just the live tail.
  SecondaryProc fresh(primary.listener.port());
  ASSERT_TRUE(fresh.secondary.WaitForSeq(last, 5000ms));
  EXPECT_EQ(fresh.db.StateHash(), primary.db.StateHash());
  EXPECT_EQ(fresh.receiver.stats().duplicates_dropped, 0u);
}

TEST(TcpReplicationTest, FreshReceiverFromCheckpointStartsAtWelcomeBase) {
  // Section 3.4 recovery over the stream: a secondary installs a checkpoint
  // and asks for the replay from its LSN. The first record it receives is
  // numbered from that LSN on, not 0; the receiver must adopt WELCOME's
  // base instead of taking that record for a gap and redialing forever.
  PrimaryProc primary;
  primary.PutN(30, "v1");
  const auto checkpoint = primary.db.TakeCheckpoint();
  ASSERT_GT(checkpoint.lsn, 0u);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (primary.primary.propagator()->position() < checkpoint.lsn) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  const Timestamp last = primary.PutN(30, "v2");

  engine::Database db(engine::DatabaseOptions{1, "recovered"});
  auto installed = db.InstallCheckpoint(checkpoint);
  ASSERT_TRUE(installed.ok()) << installed.status();
  Secondary secondary(&db);
  secondary.InitializeSeq(checkpoint.as_of, *installed);
  secondary.Start();
  ReplicationReceiver::Options o;
  o.primary_port = primary.listener.port();
  o.from_lsn = checkpoint.lsn;
  ReplicationReceiver receiver(secondary.update_queue(), o);
  receiver.Start();

  ASSERT_TRUE(secondary.WaitForSeq(last, 5000ms));
  EXPECT_EQ(db.ContentHash(), primary.db.ContentHash());
  EXPECT_EQ(receiver.stats().reconnects, 0u);
  receiver.Stop();
  secondary.Stop();
}

TEST(TcpReplicationTest, RestartAfterStopResumesDelivery) {
  // A stopped receiver keeps its position: the restart re-HELLOs there and
  // the replay overlap is dropped by seq, never applied twice.
  PrimaryProc primary;
  SecondaryProc secondary(primary.listener.port());
  Timestamp last = primary.PutN(20, "v1");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));

  secondary.receiver.Stop();
  last = primary.PutN(20, "v2");
  secondary.receiver.Start();
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));
  EXPECT_EQ(secondary.db.StateHash(), primary.db.StateHash());
  secondary.receiver.Stop();
  EXPECT_EQ(secondary.receiver.stats().records_delivered,
            primary.primary.propagator()->records_broadcast());
}

/// Runs `n` single-key updates through a fault-injected listener and checks
/// that the secondary converges with every record delivered exactly once.
/// One record per frame, so every record draws its own faults.
void ExpectFaultsRepaired(const FaultProfile& faults, std::uint64_t seed,
                          int n, ReplicationListener::Stats* listener_stats,
                          ReplicationReceiver::Stats* receiver_stats) {
  ReplicationListener::Options lo;
  lo.max_batch_records = 1;
  lo.faults = faults;
  lo.fault_seed = seed;
  PrimaryProc primary(lo);
  SecondaryProc secondary(primary.listener.port());
  Timestamp last = 0;
  for (int i = 0; i < n; ++i) {
    auto t = primary.db.Begin();
    ASSERT_TRUE(t->Put("k" + std::to_string(i % 11), std::to_string(i)).ok());
    ASSERT_TRUE(t->Commit().ok());
    last = t->commit_ts();
  }
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 30000ms));
  EXPECT_EQ(secondary.db.StateHash(), primary.db.StateHash());
  secondary.receiver.Stop();  // settles the counters of the last record
  *receiver_stats = secondary.receiver.stats();
  *listener_stats = primary.listener.stats();
  EXPECT_EQ(receiver_stats->records_delivered,
            primary.primary.propagator()->records_broadcast());
}

TEST(TcpReplicationTest, DroppedAndDuplicatedFramesAreRepaired) {
  FaultProfile faults;
  faults.drop_probability = 0.20;
  faults.duplicate_probability = 0.10;
  ReplicationListener::Stats ls;
  ReplicationReceiver::Stats rs;
  ExpectFaultsRepaired(faults, 7, 200, &ls, &rs);
  // Every drop cut the connection and was repaired by a resync; every
  // duplicated frame was dropped record by record.
  EXPECT_GT(ls.faults.dropped, 0u);
  EXPECT_GT(ls.faults.duplicated, 0u);
  EXPECT_GT(rs.reconnects, 0u);
  EXPECT_GT(rs.duplicates_dropped, 0u);
}

TEST(TcpReplicationTest, CorruptFramesAreRejectedByCrcAndRepaired) {
  FaultProfile faults;
  faults.corrupt_probability = 0.15;
  ReplicationListener::Stats ls;
  ReplicationReceiver::Stats rs;
  ExpectFaultsRepaired(faults, 21, 150, &ls, &rs);
  EXPECT_GT(ls.faults.corrupted, 0u);
  EXPECT_GT(rs.crc_rejected, 0u);
  EXPECT_GT(rs.reconnects, 0u);
}

TEST(TcpReplicationTest, EverythingAtOnceConverges) {
  FaultProfile faults;
  faults.drop_probability = 0.08;
  faults.duplicate_probability = 0.05;
  faults.corrupt_probability = 0.05;
  faults.disconnect_probability = 0.002;
  ReplicationListener::Stats ls;
  ReplicationReceiver::Stats rs;
  ExpectFaultsRepaired(faults, 77, 250, &ls, &rs);
  EXPECT_GT(rs.reconnects, 0u);
}

TEST(TcpReplicationTest, ReceiverOutlivesLateListener) {
  // Receiver started before the primary listens: the dial loop must keep
  // retrying until the listener appears (process start-order independence).
  engine::Database primary_db;
  Primary primary(&primary_db);
  ReplicationListener listener(primary.propagator(),
                               ReplicationListener::Options{});
  // Reserve a port by starting and remembering it, then stop to simulate
  // "not up yet" — the port stays free for the later Start.
  ASSERT_TRUE(listener.Start().ok());
  const std::uint16_t port = listener.port();

  SecondaryProc secondary(port);
  primary.Start();
  auto t = primary_db.Begin();
  ASSERT_TRUE(t->Put("k", "v").ok());
  ASSERT_TRUE(t->Commit().ok());
  ASSERT_TRUE(secondary.secondary.WaitForSeq(t->commit_ts(), 5000ms));
  EXPECT_EQ(secondary.db.StateHash(), primary_db.StateHash());
  primary.Stop();
  listener.Stop();
}

TEST(TcpReplicationTest, BatchingDifferentialConvergesToIdenticalState) {
  // Same workload over both frame fills — coalesced BATCH frames and one
  // record per frame — must materialize the same database. The workload
  // commits before the secondary attaches, so the replay burst is what
  // crosses the wire and batching has runs to coalesce.
  ReplicationListener::Options batched;
  batched.batch_flush_interval = 10ms;
  ReplicationListener::Options unbatched;
  unbatched.max_batch_records = 1;

  PrimaryProc p_on(batched);
  PrimaryProc p_off(unbatched);
  const Timestamp last_on = p_on.PutN(200, "v");
  const Timestamp last_off = p_off.PutN(200, "v");

  SecondaryProc s_on(p_on.listener.port());
  SecondaryProc s_off(p_off.listener.port());
  ASSERT_TRUE(s_on.secondary.WaitForSeq(last_on, 10000ms));
  ASSERT_TRUE(s_off.secondary.WaitForSeq(last_off, 10000ms));

  EXPECT_EQ(s_on.db.StateHash(), p_on.db.StateHash());
  EXPECT_EQ(s_off.db.StateHash(), p_off.db.StateHash());
  // Identical workloads, identical state — across the frame fills too.
  EXPECT_EQ(s_on.db.StateHash(), s_off.db.StateHash());

  const auto on = p_on.listener.stats();
  const auto off = p_off.listener.stats();
  EXPECT_EQ(on.records_streamed, off.records_streamed);
  EXPECT_EQ(off.frames_sent, off.records_streamed);
  // The point of the exercise: the replay burst coalesces, so the batched
  // wire moves the same records in far fewer frames (and fewer syscalls —
  // the bench quantifies that; here we assert the shape).
  EXPECT_LT(on.frames_sent, off.frames_sent / 2);
}

TEST(TcpReplicationTest, CutStormConvergesWithBatchingOnAndOff) {
  // Chaos row for the batched wire: repeated mid-stream connection cuts
  // force reconnect + sync-point replay + dedup, whether frames carry runs
  // of records or one each. Whatever replay overlap results, the secondary
  // must land on the primary's exact state.
  for (const std::size_t batch : {std::size_t{128}, std::size_t{1}}) {
    SCOPED_TRACE("max_batch_records=" + std::to_string(batch));
    ReplicationListener::Options lo;
    lo.max_batch_records = batch;
    PrimaryProc primary(lo);
    SecondaryProc secondary(primary.listener.port());

    Timestamp last = 0;
    for (int round = 0; round < 8; ++round) {
      last = primary.PutN(15, "round-" + std::to_string(round));
      // Let the stream establish and deliver, then sever it — each round
      // cuts a live connection, not a dial still in flight.
      ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 10000ms));
      secondary.receiver.CutConnection();
    }
    last = primary.PutN(15, "final");
    ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 10000ms));
    EXPECT_EQ(secondary.db.StateHash(), primary.db.StateHash());
    EXPECT_GE(secondary.receiver.stats().reconnects, 1u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot rejoin: a fresh secondary whose primary truncated its log.

/// Polls `done` for up to 10 s.
bool Eventually(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return done();
}

TEST(TcpReplicationTest, SnapshotRejoinSpansManyFramesUnderASmallOutputCeiling) {
  ReplicationListener::Options lo;
  lo.max_batch_bytes = 4096;
  lo.max_output_bytes = 16 * 1024;
  PrimaryProc primary(lo);
  const Timestamp last = primary.PutRows(2000, 200);
  ASSERT_TRUE(Eventually([&] { return primary.Truncate() > 0; }));

  SecondaryProc fresh(primary.listener.port());
  ASSERT_TRUE(fresh.secondary.WaitForSeq(last, 10000ms));
  EXPECT_EQ(fresh.db.ContentHash(), primary.db.ContentHash());
  const auto ls = primary.listener.stats();
  EXPECT_EQ(ls.snapshot_attaches, 1u);
  EXPECT_EQ(ls.replay_attaches, 0u);
  // ~420 KB of rows; a frame closes at the first row past 4 KiB, so this
  // took more than 100 frames, each written only with the output buffer
  // under its 16 KiB ceiling.
  EXPECT_GT(ls.snapshot_bytes, 2000u * 200u);
  EXPECT_GT(ls.snapshot_bytes, 100u * lo.max_batch_bytes);
  // Counted just after the install, which is what wakes WaitForSeq.
  EXPECT_TRUE(Eventually(
      [&] { return fresh.receiver.stats().snapshots_installed == 1; }));
  EXPECT_EQ(fresh.receiver.stats().reconnects, 0u);

  // The stream goes on from the snapshot's sync point.
  const Timestamp more = primary.PutN(20, "after");
  ASSERT_TRUE(fresh.secondary.WaitForSeq(more, 10000ms));
  EXPECT_EQ(fresh.db.ContentHash(), primary.db.ContentHash());
}

TEST(TcpReplicationTest, SnapshotRejoinUnderConcurrentCommitsAndTruncation) {
  // Writers overwrite and delete a small key space while the log is
  // truncated every millisecond, before, during and after the snapshot
  // streams. Commits that straddle the pin are in the snapshot or in the
  // stream after it, and the receiver turns the ones in both into aborts:
  // none is lost and none applied twice.
  ReplicationListener::Options lo;
  lo.max_batch_bytes = 2048;
  lo.max_output_bytes = 8 * 1024;
  PrimaryProc primary(lo);
  primary.PutRows(500, 100);
  ASSERT_TRUE(Eventually([&] { return primary.Truncate() > 0; }));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      while (!stop.load()) {
        auto t = primary.db.Begin();
        for (int k = 0; k < 4; ++k) {
          const std::string key = "row-" + std::to_string(rng.Next(600));
          if (rng.Bernoulli(0.2)) {
            (void)t->Delete(key);
          } else {
            (void)t->Put(key, "w" + std::to_string(w) + "-" +
                                  std::to_string(rng.Next(1 << 20)));
          }
        }
        (void)t->Commit();  // first-committer-wins aborts are fine
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      primary.Truncate();
      std::this_thread::sleep_for(1ms);
    }
  });

  std::this_thread::sleep_for(50ms);
  SecondaryProc fresh(primary.listener.port());
  ASSERT_TRUE(Eventually([&] { return fresh.receiver.welcomed(); }));
  std::this_thread::sleep_for(100ms);
  stop.store(true);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(fresh.secondary.WaitForSeq(primary.db.LatestCommitTs(), 10000ms));
  EXPECT_EQ(fresh.db.ContentHash(), primary.db.ContentHash());
  EXPECT_TRUE(Eventually(
      [&] { return fresh.receiver.stats().snapshots_installed == 1; }));
  EXPECT_EQ(primary.listener.stats().snapshot_attaches, 1u);
}

TEST(TcpReplicationTest, CorruptSnapshotFrameIsRejectedAndTheRetrySucceeds) {
  // A quarter of all frames is corrupted on the wire: a snapshot attempt
  // that loses a frame to its CRC is cut and abandoned, and the fresh
  // secondary, still holding nothing, asks again until one arrives whole.
  ReplicationListener::Options lo;
  lo.max_batch_bytes = 8192;
  lo.faults.corrupt_probability = 0.25;
  lo.fault_seed = 5;
  PrimaryProc primary(lo);
  const Timestamp last = primary.PutRows(200, 100);
  ASSERT_TRUE(Eventually([&] { return primary.Truncate() > 0; }));

  SecondaryProc fresh(primary.listener.port());
  ASSERT_TRUE(fresh.secondary.WaitForSeq(last, 30000ms));
  EXPECT_EQ(fresh.db.ContentHash(), primary.db.ContentHash());
  EXPECT_TRUE(Eventually(
      [&] { return fresh.receiver.stats().snapshots_installed == 1; }));
  EXPECT_GT(fresh.receiver.stats().crc_rejected, 0u);
  EXPECT_GT(primary.listener.stats().snapshot_attaches, 1u);
}

TEST(TcpReplicationTest, ReaderNeverSeesAPartialSnapshot) {
  constexpr int kRows = 3000;
  ReplicationListener::Options lo;
  lo.max_batch_bytes = 1024;
  lo.max_output_bytes = 4096;
  PrimaryProc primary(lo);
  const Timestamp last = primary.PutRows(kRows, 64);
  ASSERT_TRUE(Eventually([&] { return primary.Truncate() > 0; }));

  SecondaryProc fresh(primary.listener.port());
  std::atomic<bool> stop{false};
  std::atomic<int> scans{0};
  std::atomic<int> partial{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto t = fresh.db.Begin(/*read_only=*/true);
      auto rows = t->Scan("row-", "row-~");
      ASSERT_TRUE(rows.ok());
      if (!rows->empty() && rows->size() != kRows) partial.fetch_add(1);
      (void)t->Commit();
      scans.fetch_add(1);
    }
  });
  ASSERT_TRUE(fresh.secondary.WaitForSeq(last, 10000ms));
  stop.store(true);
  reader.join();
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(partial.load(), 0);
  EXPECT_TRUE(Eventually(
      [&] { return fresh.receiver.stats().snapshots_installed == 1; }));
}

TEST(TcpReplicationTest, CutAndRedialWithinTheGraceResumesFromTheLog) {
  PrimaryProc primary;
  SecondaryProc secondary(primary.listener.port());
  Timestamp last = primary.PutN(40, "v1");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));

  // The stream is down while commits go on and the log is truncated: the
  // closed connection's ack still holds the floor, so the redial replays
  // from the log.
  secondary.receiver.Stop();
  last = primary.PutN(40, "v2");
  ASSERT_TRUE(Eventually(
      [&] { return primary.primary.propagator()->position() ==
                   primary.db.log()->Size(); }));
  primary.Truncate();
  secondary.receiver.Start();
  ASSERT_TRUE(secondary.secondary.WaitForSeq(last, 5000ms));
  EXPECT_EQ(secondary.db.StateHash(), primary.db.StateHash());
  const auto ls = primary.listener.stats();
  EXPECT_EQ(ls.snapshot_attaches, 0u);
  EXPECT_EQ(ls.resume_refusals, 0u);
  EXPECT_EQ(ls.replay_attaches, 2u);
  EXPECT_EQ(secondary.receiver.stats().snapshots_installed, 0u);
}

TEST(TcpReplicationTest, ResumePastTheTruncatedLogIsRefusedOnce) {
  PrimaryProc primary;
  SecondaryProc secondary(primary.listener.port());
  const Timestamp applied = primary.PutN(40, "v1");
  ASSERT_TRUE(secondary.secondary.WaitForSeq(applied, 5000ms));

  // Down for longer than the grace: the log moves on without it.
  secondary.receiver.Stop();
  std::this_thread::sleep_for(ReplicationListener::kResumeGrace + 100ms);
  primary.PutN(40, "v2");
  ASSERT_TRUE(Eventually([&] {
    return primary.Truncate() > 0 &&
           primary.primary.propagator()->SyncPointAtOrBefore(0).record_seq >
               secondary.receiver.next_expected();
  }));

  secondary.receiver.Start();
  ASSERT_TRUE(Eventually([&] { return secondary.receiver.refused(); }));
  const auto dials = secondary.receiver.stats().dial_attempts;
  std::this_thread::sleep_for(200ms);  // 1-20 ms redial backoff
  const auto rs = secondary.receiver.stats();
  EXPECT_EQ(rs.dial_attempts, dials);
  EXPECT_EQ(rs.refusals, 1u);
  EXPECT_EQ(primary.listener.stats().resume_refusals, 1u);
  EXPECT_EQ(primary.listener.stats().snapshot_attaches, 0u);
  // Still serving what it had.
  EXPECT_EQ(secondary.secondary.applied_seq(), applied);
  EXPECT_EQ(*secondary.db.Get("key-0"), "v1");
}

/// Reads the receiver's HELLO off a fake-primary socket and returns the
/// stream position it expects.
std::uint64_t ReadHelloExpected(net::FramedSocket* peer) {
  auto hello = peer->Recv();
  EXPECT_TRUE(hello.has_value());
  if (!hello.has_value() || !UnsealReplFrame(&*hello)) return 0;
  EXPECT_EQ((*hello)[0], kReplHelloTag);
  std::size_t off = 1;
  std::uint64_t expected = 0;
  EXPECT_TRUE(GetVarint(*hello, &off, &expected));
  return expected;
}

/// WELCOME at `base` plus one BATCH of `n` start records seq base..base+n-1,
/// as one wire blob.
std::string WelcomeAndBatch(std::uint64_t base, std::uint64_t n) {
  std::string welcome(1, kReplWelcomeTag);
  PutVarint(&welcome, base);
  SealReplFrame(&welcome);
  std::string wire;
  net::AppendTcpFrame(&wire, welcome);
  std::vector<PropagationRecord> records;
  records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    records.push_back(PropStart{base + i + 1, base + i + 1, base + i});
  }
  std::string batch = EncodeBatchFramePayload(records);
  SealReplFrame(&batch);
  net::AppendTcpFrame(&wire, batch);
  return wire;
}

TEST(TcpReplicationTest, ReceiverSurvivesPeerResetDuringBatchApply) {
  // Regression: with ack_interval = 1 every record of a BATCH frame writes
  // an ACK from inside the batch-apply loop. A peer reset racing the apply
  // makes one of those writes fail inline, which tears the connection down
  // (and nulls the receiver's connection handle) while the loop still holds
  // records; the receiver must abandon the rest of the batch — the
  // reconnect replay redelivers it — instead of crashing on the dead
  // connection.
  std::uint16_t port = 0;
  const int lfd = net::ListenOn("127.0.0.1", 0, &port);
  ASSERT_GE(lfd, 0);

  BlockingQueue<PropagationRecord> sink;
  ReplicationReceiver receiver(&sink, [port] {
    ReplicationReceiver::Options o;
    o.primary_port = port;
    o.ack_interval = 1;
    o.reconnect_backoff = std::chrono::milliseconds(5);
    o.reconnect_backoff_max = std::chrono::milliseconds(20);
    return o;
  }());
  receiver.Start();

  for (int round = 0; round < 8; ++round) {
    const int cfd = net::AcceptOn(lfd);
    ASSERT_GE(cfd, 0);
    net::FramedSocket peer(cfd);
    const std::uint64_t base = ReadHelloExpected(&peer);
    ASSERT_TRUE(net::SendAll(peer.fd(), WelcomeAndBatch(base, 4096)));
    // Reset, not FIN: queued data stays deliverable, but the receiver's
    // in-batch ACK writes start failing the instant the RST lands — for
    // most rounds, mid-apply.
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(peer.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    peer.Close();
  }

  // Survival check: the receiver still redials and applies a cleanly
  // delivered tail to completion.
  const int cfd = net::AcceptOn(lfd);
  ASSERT_GE(cfd, 0);
  net::FramedSocket peer(cfd);
  const std::uint64_t base = ReadHelloExpected(&peer);
  ASSERT_TRUE(net::SendAll(peer.fd(), WelcomeAndBatch(base, 8)));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (receiver.next_expected() < base + 8) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "receiver did not recover from the reset storm";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(receiver.stats().records_delivered, 0u);
  receiver.Stop();
  peer.Close();
  ::close(lfd);
}

int CountOwnThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(sizeof("Threads:") - 1));
    }
  }
  return -1;
}

TEST(TcpReplicationTest, SharedLoopFanOutAddsNoThreadsPerConnection) {
  // The scaling claim of the reactor: 16 stream connections sharing one
  // event loop add zero threads — I/O threads are O(loops), not
  // O(connections). The receivers feed bare queues (no Secondary applier
  // stacks, which would legitimately add worker threads each).
  net::EventLoop loop;
  loop.Start();
  engine::Database db;
  Primary primary(&db);
  ReplicationListener::Options lo;
  lo.loop = &loop;
  ReplicationListener listener(primary.propagator(), lo);
  ASSERT_TRUE(listener.Start().ok());
  primary.Start();
  Timestamp last = 0;
  for (int i = 0; i < 30; ++i) {
    auto t = db.Begin();
    ASSERT_TRUE(t->Put("key-" + std::to_string(i), "v").ok());
    ASSERT_TRUE(t->Commit().ok());
    last = t->commit_ts();
  }
  (void)last;

  const int before = CountOwnThreads();
  ASSERT_GT(before, 0);

  constexpr int kFanOut = 16;
  std::vector<std::unique_ptr<BlockingQueue<PropagationRecord>>> sinks;
  std::vector<std::unique_ptr<ReplicationReceiver>> receivers;
  for (int i = 0; i < kFanOut; ++i) {
    sinks.push_back(std::make_unique<BlockingQueue<PropagationRecord>>());
    ReplicationReceiver::Options ro;
    ro.primary_port = listener.port();
    ro.loop = &loop;
    receivers.push_back(
        std::make_unique<ReplicationReceiver>(sinks.back().get(), ro));
    receivers.back()->Start();
  }

  // Every receiver replays the full log to the same stream position.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    std::uint64_t lo_seq = UINT64_MAX, hi_seq = 0;
    for (auto& r : receivers) {
      lo_seq = std::min(lo_seq, r->next_expected());
      hi_seq = std::max(hi_seq, r->next_expected());
    }
    if (hi_seq > 0 && lo_seq == hi_seq) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fan-out did not converge: " << lo_seq << " vs " << hi_seq;
    std::this_thread::sleep_for(5ms);
  }

  const int during = CountOwnThreads();
  // Zero threads per connection; allow tiny slack for runtime noise.
  EXPECT_LE(during - before, 1) << "before=" << before << " during=" << during;

  for (auto& r : receivers) r->Stop();
  primary.Stop();
  listener.Stop();
  loop.Stop();
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
