#include "wal/logical_log.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace lazysi {
namespace wal {
namespace {

TEST(LogicalLogTest, AppendAssignsSequentialLsns) {
  LogicalLog log;
  EXPECT_EQ(log.Append(LogRecord::Start(1, 1)), 0u);
  EXPECT_EQ(log.Append(LogRecord::Commit(1, 2)), 1u);
  EXPECT_EQ(log.Size(), 2u);
}

TEST(LogicalLogTest, AtReturnsRecord) {
  LogicalLog log;
  log.Append(LogRecord::Start(7, 42));
  auto r = log.At(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->txn_id, 7u);
  EXPECT_FALSE(log.At(1).has_value());
}

TEST(LogicalLogTest, WaitForSizeBlocksUntilAppend) {
  LogicalLog log;
  std::thread appender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    log.Append(LogRecord::Start(1, 1));
  });
  const bool arrived = log.WaitForSize(1, std::chrono::milliseconds(2000));
  appender.join();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(log.At(0)->txn_id, 1u);
}

TEST(LogicalLogTest, WaitForSizeTimesOut) {
  LogicalLog log;
  EXPECT_FALSE(log.WaitForSize(1, std::chrono::milliseconds(10)));
}

TEST(LogicalLogTest, CloseWakesWaiters) {
  LogicalLog log;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Close();
  });
  const bool arrived = log.WaitForSize(1, std::chrono::milliseconds(5000));
  closer.join();
  EXPECT_FALSE(arrived);
  EXPECT_TRUE(log.closed());
}

TEST(LogicalLogTest, VisitReadsRetainedRangeInPlace) {
  LogicalLog log;
  for (TxnId t = 1; t <= 5; ++t) log.Append(LogRecord::Start(t, t));
  log.TruncateBelow(2);
  std::vector<TxnId> seen;
  auto collect = [&seen](const LogRecord& r) { seen.push_back(r.txn_id); };
  // Clipped at the end of the log; nothing below the truncation base.
  EXPECT_EQ(log.Visit(3, 10, collect), 2u);
  EXPECT_EQ(seen, (std::vector<TxnId>{4, 5}));
  EXPECT_EQ(log.Visit(1, 4, collect), 0u);
  EXPECT_EQ(log.Visit(2, 3, collect), 1u);
  EXPECT_EQ(seen.back(), 3u);
  EXPECT_EQ(log.Visit(5, 10, collect), 0u);
}

TEST(LogicalLogTest, TruncatingEverythingKeepsAbsoluteLsns) {
  LogicalLog log;
  for (TxnId t = 1; t <= 3; ++t) log.Append(LogRecord::Start(t, t));
  log.TruncateBelow(log.Size());
  EXPECT_EQ(log.base_lsn(), 3u);
  EXPECT_EQ(log.Size(), 3u);
  EXPECT_FALSE(log.At(2).has_value());
  EXPECT_EQ(log.Append(LogRecord::Start(4, 4)), 3u);
  EXPECT_EQ(log.At(3)->txn_id, 4u);
}

TEST(LogicalLogTest, TruncationAcrossStorageChunksKeepsEveryLsn) {
  // Cuts inside a chunk, on a chunk boundary, past several chunks and at
  // the very end, each followed by more appends: every retained LSN still
  // reads its own record, and a truncated one reads nothing.
  LogicalLog log;
  std::size_t next = 0;
  auto append = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++next) {
      ASSERT_EQ(log.Append(LogRecord::Start(next, next + 1)), next);
    }
  };
  append(1300);
  for (std::size_t cut : {7u, 512u, 513u, 1100u, 1300u}) {
    log.TruncateBelow(cut);
    EXPECT_EQ(log.base_lsn(), cut);
    EXPECT_FALSE(log.At(cut - 1).has_value());
    append(300);
    std::size_t lsn = cut;
    const std::size_t visited =
        log.Visit(cut, log.Size(), [&](const LogRecord& rec) {
          EXPECT_EQ(rec.txn_id, lsn);
          ++lsn;
        });
    EXPECT_EQ(visited, log.Size() - cut);
    ASSERT_TRUE(log.At(log.Size() - 1).has_value());
    EXPECT_EQ(log.At(log.Size() - 1)->txn_id, log.Size() - 1);
  }
}

TEST(LogicalLogTest, EncodeDecodeSuffix) {
  LogicalLog log;
  log.Append(LogRecord::Start(1, 1));
  log.Append(LogRecord::Update(1, "k", "v", false));
  log.Append(LogRecord::Commit(1, 2));
  const std::string bytes = log.EncodeFrom(1);
  auto records = LogicalLog::DecodeAll(bytes);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, LogRecordType::kUpdate);
  EXPECT_EQ((*records)[1].type, LogRecordType::kCommit);
}

TEST(LogicalLogTest, DecodeAllRejectsCorruption) {
  auto bad = LogicalLog::DecodeAll("\x09garbage");
  EXPECT_FALSE(bad.ok());
}

TEST(LogicalLogTest, ConcurrentAppendersPreserveCount) {
  LogicalLog log;
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        log.Append(LogRecord::Start(t * kEach + i, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.Size(), static_cast<std::size_t>(kThreads * kEach));
}

}  // namespace
}  // namespace wal
}  // namespace lazysi
