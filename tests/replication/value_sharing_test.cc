// A written value is one shared, immutable buffer per site: the write set,
// the logical log, the store's version, the propagator's update list and
// every sink's queued commit hold handles to it. These tests check that the
// handles really share one buffer, that the heap grows by about one value
// per replicated write, and that a value read by a reader outlives every
// other holder (overwrite, pruning, log truncation and sink drain).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "engine/database.h"
#include "replication/primary.h"

namespace lazysi {
namespace replication {
namespace {

using Queue = BlockingQueue<PropagationRecord>;

/// Blocks until the propagator has consumed every record the log holds, so
/// each commit so far sits in every attached sink.
void WaitPropagated(Primary* primary) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (primary->propagator()->position() < primary->db()->log()->Size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string Key(int i) { return "key-" + std::to_string(i); }

TEST(ValueSharingTest, OneBufferFromPutToStoreLogAndSinks) {
  engine::Database db;
  Primary primary(&db);
  Queue sink_a;
  Queue sink_b;
  primary.propagator()->AttachSink(&sink_a);
  primary.propagator()->AttachSink(&sink_b);
  primary.Start();

  auto t = db.Begin();
  ASSERT_TRUE(t->Put("k", std::string(1024, 'v')).ok());
  const storage::Value written = t->write_set().Find("k")->value;
  ASSERT_TRUE(t->Commit().ok());
  WaitPropagated(&primary);
  primary.Stop();

  auto stored = db.store()->Get("k", db.LatestCommitTs());
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(stored->value.SharesBufferWith(written));
  auto read = db.Get("k");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->SharesBufferWith(written));

  bool in_log = false;
  db.log()->Visit(0, db.log()->Size(), [&](const wal::LogRecord& rec) {
    if (rec.type == wal::LogRecordType::kUpdate) {
      in_log = rec.value.SharesBufferWith(written);
    }
  });
  EXPECT_TRUE(in_log);

  for (Queue* sink : {&sink_a, &sink_b}) {
    bool in_sink = false;
    for (const PropagationRecord& record : sink->TryPopBatch(16)) {
      if (const auto* commit = std::get_if<PropCommit>(&record)) {
        ASSERT_EQ(commit->updates.size(), 1u);
        in_sink = commit->updates[0].value.SharesBufferWith(written);
      }
    }
    EXPECT_TRUE(in_sink);
  }
}

#if defined(__GLIBC__)
std::size_t HeapInUse() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif

TEST(ValueSharingTest, HeapGrowsByAboutOneValuePerReplicatedWrite) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator keeps its own books";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's mallinfo2";
#else
  // Two attached sinks that nobody drains and a log nobody truncates: each
  // write is held by the store, the log and both sinks at once. Shared, that
  // is one 1 KiB buffer plus a few small headers per write; copied, it was
  // four buffers (>= 4 KiB).
  constexpr int kKeys = 4096;
  constexpr int kPutsPerTxn = 16;
  constexpr std::size_t kBudgetPerWrite = 1536;
  engine::Database db;
  Primary primary(&db);
  Queue sink_a;
  Queue sink_b;
  primary.propagator()->AttachSink(&sink_a);
  primary.propagator()->AttachSink(&sink_b);
  primary.Start();
  auto write_all = [&](char fill) {
    for (int first = 0; first < kKeys; first += kPutsPerTxn) {
      auto t = db.Begin();
      for (int i = first; i < first + kPutsPerTxn; ++i) {
        ASSERT_TRUE(t->Put(Key(i), std::string(1024, fill)).ok());
      }
      ASSERT_TRUE(t->Commit().ok());
    }
    WaitPropagated(&primary);
  };
  // The first round creates the keys; the measured one overwrites them, so
  // it adds versions, log records and queued commits, but no keys.
  write_all('a');
  const std::size_t before = HeapInUse();
  write_all('b');
  const std::size_t after = HeapInUse();
  primary.Stop();
  ASSERT_GT(after, before);
  const std::size_t per_write = (after - before) / kKeys;
  EXPECT_LE(per_write, kBudgetPerWrite)
      << "heap in use grew " << (after - before) << " bytes over " << kKeys
      << " writes";
  EXPECT_EQ(sink_a.size(), sink_b.size());
#endif
}

/// Value of `key` written by `round`: self-describing, so any read can be
/// checked without knowing which commit it saw.
std::string ValueOf(const std::string& key, int round) {
  std::string v = key + "@" + std::to_string(round) + "|";
  v.resize(200, static_cast<char>('a' + round % 26));
  return v;
}

/// True when every row carries the same round and its exact bytes; sets
/// `*round` to that round.
bool ConsistentRound(
    const std::vector<std::pair<std::string, storage::Value>>& rows,
    int* round) {
  *round = -1;
  for (const auto& [key, value] : rows) {
    const std::string_view bytes = value;
    const std::size_t at = bytes.find('@');
    const std::size_t bar = bytes.find('|');
    if (at == std::string_view::npos || bar == std::string_view::npos ||
        bytes.substr(0, at) != key) {
      return false;
    }
    const int r = std::stoi(std::string(bytes.substr(at + 1, bar - at - 1)));
    if (*round != -1 && r != *round) return false;
    *round = r;
    if (value != ValueOf(key, r)) return false;
  }
  return true;
}

TEST(ValueSharingTest, ReadValuesOutliveOverwritePruneTruncateAndDrain) {
  // A writer overwrites every key each round; GC prunes the shadowed
  // versions, the log is truncated behind the propagator and a consumer
  // drains the sink — each drops a handle to values readers still hold.
  // Readers keep what they read and check it again at the end: a value
  // freed or changed under them shows as a mismatch (or, in the sanitizer
  // builds, as a report).
  constexpr int kKeys = 16;
  constexpr int kRounds = 400;
  constexpr int kReaders = 2;
  engine::Database db;
  Primary primary(&db);
  Queue sink;
  primary.propagator()->AttachSink(&sink);
  primary.Start();
  {
    auto t = db.Begin();
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(t->Put(Key(k), ValueOf(Key(k), 0)).ok());
    }
    ASSERT_TRUE(t->Commit().ok());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> propagated{false};
  std::atomic<int> bad_drained{0};
  std::thread writer([&] {
    for (int round = 1; round <= kRounds; ++round) {
      auto t = db.Begin();
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(t->Put(Key(k), ValueOf(Key(k), round)).ok());
      }
      ASSERT_TRUE(t->Commit().ok());
    }
    done = true;
  });
  std::thread reclaimer([&] {
    while (!done) {
      db.GarbageCollect();
      primary.propagator()->TruncateLogBelow(primary.propagator()->position());
      std::this_thread::yield();
    }
  });
  std::thread drainer([&] {
    while (!propagated || !sink.empty()) {
      for (const PropagationRecord& record : sink.TryPopBatch(64)) {
        const auto* commit = std::get_if<PropCommit>(&record);
        if (commit == nullptr) continue;
        std::vector<std::pair<std::string, storage::Value>> rows;
        for (const storage::Write& w : commit->updates) {
          rows.emplace_back(w.key, w.value);
        }
        int round = 0;
        if (!ConsistentRound(rows, &round)) ++bad_drained;
      }
      std::this_thread::yield();
    }
  });

  // Each reader keeps every snapshot it read, by Get and by Scan.
  std::vector<std::vector<std::vector<std::pair<std::string, storage::Value>>>>
      kept(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      do {
        auto t = db.Begin(/*read_only=*/true);
        std::vector<std::pair<std::string, storage::Value>> gets;
        for (int k = 0; k < kKeys; ++k) {
          auto v = t->Get(Key(k));
          ASSERT_TRUE(v.ok());
          gets.emplace_back(Key(k), std::move(v).value());
        }
        auto scan = t->Scan("", "");
        ASSERT_TRUE(scan.ok());
        ASSERT_EQ(scan->size(), static_cast<std::size_t>(kKeys));
        ASSERT_TRUE(t->Commit().ok());
        int get_round = 0;
        int scan_round = 0;
        ASSERT_TRUE(ConsistentRound(gets, &get_round));
        ASSERT_TRUE(ConsistentRound(*scan, &scan_round));
        ASSERT_EQ(get_round, scan_round);  // one snapshot
        kept[r].push_back(std::move(gets));
        kept[r].push_back(std::move(*scan));
      } while (!done);
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  reclaimer.join();
  WaitPropagated(&primary);
  propagated = true;
  drainer.join();
  primary.Stop();

  // Every version but the newest is gone from the store, the log is
  // truncated and the sink is empty: the kept values are the readers' own.
  db.GarbageCollect();
  EXPECT_EQ(db.store()->VersionCount(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(bad_drained.load(), 0);
  std::size_t snapshots = 0;
  for (const auto& per_reader : kept) {
    for (const auto& rows : per_reader) {
      int round = 0;
      EXPECT_TRUE(ConsistentRound(rows, &round));
      ++snapshots;
    }
  }
  EXPECT_GT(snapshots, 0u);
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
