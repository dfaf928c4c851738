// Multi-threaded commit/read stress over the pipelined commit path: update
// transactions race snapshot readers, version garbage collection and
// time-travel readers on one site. Every committed transaction is fed to
// history::Recorder and the execution must satisfy the SI guarantees the
// manager claims (Section 2): weak SI, and — since this is a single site with
// a strong-SI local control — strong SI and strong session SI too. A
// multi-key invariant additionally rules out torn snapshots directly.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "history/recorder.h"
#include "history/si_checker.h"
#include "txn/transaction.h"

namespace lazysi {
namespace txn {
namespace {

constexpr int kInvariantKeys = 4;

std::string InvKey(int i) { return "inv" + std::to_string(i); }

// Copies a finished transaction's observations into the recorder.
// `first_op_seq` must have been taken before Begin so real-time ordering is
// judged conservatively (commit_seq(Ti) < first_op_seq(Tj) implies Ti's
// publication really preceded Tj's snapshot).
void RecordCommitted(history::Recorder* recorder, const Transaction& txn,
                     SessionLabel label, std::uint64_t first_op_seq) {
  history::TxnRecord record;
  record.label = label;
  record.site = kPrimarySiteId;
  record.read_only = txn.read_only();
  record.first_op_seq = first_op_seq;
  record.commit_seq = recorder->NextEventSeq();
  record.commit_primary_ts =
      txn.read_only() ? kInvalidTimestamp : txn.commit_ts();
  for (const auto& obs : txn.reads()) {
    if (obs.from_own_write) continue;
    record.reads.push_back(
        history::RecordedRead{obs.key, obs.version_commit_ts, obs.found});
  }
  record.writes = txn.write_set().ToVector();
  recorder->Record(std::move(record));
}

TEST(ConcurrentStressTest, WritersReadersAndGcPreserveSnapshotIsolation) {
  engine::Database db;
  history::Recorder recorder;

  // Seed the invariant keys in one transaction so every snapshot from here
  // on sees all of them equal.
  {
    const std::uint64_t first_op = recorder.NextEventSeq();
    auto txn = db.Begin();
    for (int i = 0; i < kInvariantKeys; ++i) {
      ASSERT_TRUE(txn->Put(InvKey(i), "0").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
    RecordCommitted(&recorder, *txn, /*label=*/0, first_op);
  }

  constexpr int kInvariantWriters = 2;
  constexpr int kPrivateWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kRmwAttempts = 60;
  constexpr int kPrivatePuts = 100;
  constexpr int kReads = 150;

  std::atomic<bool> stop{false};
  std::atomic<int> torn_snapshots{0};
  std::atomic<int> invariant_commits{0};
  std::vector<std::thread> threads;
  SessionLabel next_label = 1;

  // Invariant writers: read-modify-write all invariant keys to a common new
  // value. First-committer-wins aborts are expected under contention and are
  // simply retried with a fresh snapshot.
  for (int w = 0; w < kInvariantWriters; ++w) {
    const SessionLabel label = next_label++;
    threads.emplace_back([&, label] {
      for (int i = 0; i < kRmwAttempts; ++i) {
        const std::uint64_t first_op = recorder.NextEventSeq();
        auto txn = db.Begin();
        auto current = txn->Get(InvKey(0));
        ASSERT_TRUE(current.ok());
        const std::string next = std::to_string(std::stoll(current->ToString()) + 1);
        bool ok = true;
        for (int k = 0; k < kInvariantKeys; ++k) {
          ok = ok && txn->Put(InvKey(k), next).ok();
        }
        ASSERT_TRUE(ok);
        Status s = txn->Commit();
        if (s.ok()) {
          invariant_commits.fetch_add(1);
          RecordCommitted(&recorder, *txn, label, first_op);
        } else {
          ASSERT_TRUE(s.IsWriteConflict()) << s;
        }
      }
    });
  }

  // Private writers: grow uncontended version chains so garbage collection
  // always has shadowed versions to reclaim.
  for (int w = 0; w < kPrivateWriters; ++w) {
    const SessionLabel label = next_label++;
    threads.emplace_back([&, label, w] {
      const std::string key = "priv" + std::to_string(w);
      for (int i = 0; i < kPrivatePuts; ++i) {
        const std::uint64_t first_op = recorder.NextEventSeq();
        auto txn = db.Begin();
        ASSERT_TRUE(txn->Put(key, std::to_string(i)).ok());
        ASSERT_TRUE(txn->Commit().ok()) << "private keys never conflict";
        RecordCommitted(&recorder, *txn, label, first_op);
      }
    });
  }

  // Readers: one snapshot must always see all invariant keys equal — a
  // partially installed commit (torn snapshot) would show a mix.
  for (int r = 0; r < kReaders; ++r) {
    const SessionLabel label = next_label++;
    threads.emplace_back([&, label] {
      for (int i = 0; i < kReads; ++i) {
        const std::uint64_t first_op = recorder.NextEventSeq();
        auto txn = db.Begin(/*read_only=*/true);
        std::vector<std::string> values;
        for (int k = 0; k < kInvariantKeys; ++k) {
          auto v = txn->Get(InvKey(k));
          ASSERT_TRUE(v.ok());
          values.push_back(v->ToString());
        }
        for (const auto& v : values) {
          if (v != values.front()) torn_snapshots.fetch_add(1);
        }
        ASSERT_TRUE(txn->Commit().ok());
        RecordCommitted(&recorder, *txn, label, first_op);
      }
    });
  }

  // Garbage collector: continuously prunes shadowed versions and interleaves
  // time-travel reads pinned at the watermark — the BeginAtSnapshot/GC race
  // (snapshot must be pinned before validation) is exercised directly here.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      db.GarbageCollect();
      auto pinned = db.BeginAtSnapshot(db.LatestCommitTs());
      ASSERT_TRUE(pinned.ok());
      std::vector<std::string> values;
      for (int k = 0; k < kInvariantKeys; ++k) {
        auto v = (*pinned)->Get(InvKey(k));
        ASSERT_TRUE(v.ok()) << "GC pruned a version pinned by a snapshot";
        values.push_back(v->ToString());
      }
      for (const auto& v : values) EXPECT_EQ(v, values.front());
      (*pinned)->Abort();
      std::this_thread::yield();
    }
  });

  for (std::size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(torn_snapshots.load(), 0);
  EXPECT_GT(invariant_commits.load(), 0);
  // Every retry loop ran to completion, so the final counter equals the
  // number of successful invariant commits.
  auto final_value = db.Get(InvKey(0));
  ASSERT_TRUE(final_value.ok());
  EXPECT_EQ(std::stoll(final_value->ToString()), invariant_commits.load());

  history::SIChecker checker(recorder.Snapshot());
  auto weak = checker.CheckWeakSI();
  EXPECT_TRUE(weak.ok) << weak.violation;
  auto strong = checker.CheckStrongSI();
  EXPECT_TRUE(strong.ok) << strong.violation;
  auto session = checker.CheckStrongSessionSI();
  EXPECT_TRUE(session.ok) << session.violation;
  EXPECT_EQ(checker.CountGlobalInversions(), 0u);
}

// Aimed squarely at the lock-free read path: Begin(read_only) performs no
// mutex acquisition and Get walks atomically-published newest-first version
// chains while a writer keeps prepending to the hot key and the collector
// concurrently severs shadowed tails. The TSan preset runs this test to
// certify the acquire/release publication and the seq_cst reader-slot /
// gc-floor handshakes; the assertions check the two properties the
// lock-free design must deliver: reads always hit a version at least as new
// as the GC horizon, and successive read-only snapshots in one thread never
// regress (visible watermark monotonicity).
TEST(ConcurrentStressTest, LockFreeHotReadsRaceWritersAndGc) {
  engine::Database db;
  ASSERT_TRUE(db.Put("hot", "0").ok());

  constexpr int kReaders = 4;
  constexpr int kHotWrites = 500;
  constexpr int kReadsPerThread = 800;
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> threads;

  // One hot writer: uncontended sequential overwrites grow the chain as
  // fast as possible (no FCW aborts to slow it down).
  threads.emplace_back([&] {
    for (int i = 1; i <= kHotWrites; ++i) {
      auto txn = db.Begin();
      ASSERT_TRUE(txn->Put("hot", std::to_string(i)).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Collector: prunes continuously, so readers race chain truncation the
  // whole run.
  threads.emplace_back([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      db.GarbageCollect();
      std::this_thread::yield();
    }
  });

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      long long last_seen = 0;
      for (int i = 0; i < kReadsPerThread; ++i) {
        auto txn = db.Begin(/*read_only=*/true);
        auto v = txn->Get("hot");
        ASSERT_TRUE(v.ok()) << "GC reclaimed the version a lock-free "
                               "snapshot was reading";
        const long long seen = std::stoll(v->ToString());
        // visible_ts only advances, so per-thread snapshots are monotone.
        ASSERT_GE(seen, last_seen);
        last_seen = seen;
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }

  for (auto& t : threads) t.join();
  EXPECT_EQ(db.Get("hot").value(), std::to_string(kHotWrites));
}

}  // namespace
}  // namespace txn
}  // namespace lazysi
