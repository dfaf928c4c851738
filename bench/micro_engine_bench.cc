// Micro-benchmarks of the storage/transaction substrate (google-benchmark):
// not a paper figure, but the numbers that determine how much headroom the
// real (non-simulated) engine has relative to the model's 20 ms/op budget.

#include <benchmark/benchmark.h>

#include <string>

#include "common/hash.h"
#include "engine/database.h"
#include "storage/versioned_store.h"
#include "txn/txn_manager.h"

namespace {

using lazysi::engine::Database;
using lazysi::storage::VersionedStore;
using lazysi::storage::WriteSet;

void BM_AutoCommitPut(benchmark::State& state) {
  Database db;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Put("key" + std::to_string(i++ % 1024), "v"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AutoCommitPut);

void BM_TxnBeginCommitEmpty(benchmark::State& state) {
  Database db;
  for (auto _ : state) {
    auto t = db.Begin(/*read_only=*/true);
    benchmark::DoNotOptimize(t->Commit());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnBeginCommitEmpty);

void BM_TxnMultiOp(benchmark::State& state) {
  Database db;
  const int ops = static_cast<int>(state.range(0));
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto t = db.Begin();
    for (int o = 0; o < ops; ++o) {
      (void)t->Put("key" + std::to_string((i + o) % 4096),
                   std::to_string(i));
    }
    benchmark::DoNotOptimize(t->Commit());
    i += ops;
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_TxnMultiOp)->Arg(1)->Arg(10)->Arg(100);

void BM_SnapshotGet(benchmark::State& state) {
  VersionedStore store;
  const int versions = static_cast<int>(state.range(0));
  // One key with a long version chain: measures the binary search.
  for (int v = 1; v <= versions; ++v) {
    WriteSet ws;
    ws.Put("hot", std::to_string(v));
    store.Apply(ws, static_cast<lazysi::Timestamp>(v));
  }
  lazysi::Timestamp snap = versions / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("hot", snap));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotGet)->Arg(1)->Arg(64)->Arg(4096);

void BM_FcwValidation(benchmark::State& state) {
  // Commit path with a write set of range(0) keys over a populated store.
  VersionedStore store;
  lazysi::txn::TxnManager manager(&store);
  const int keys = static_cast<int>(state.range(0));
  for (int k = 0; k < 1024; ++k) {
    auto t = manager.Begin();
    (void)t->Put("key" + std::to_string(k), "seed");
    (void)t->Commit();
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto t = manager.Begin();
    for (int k = 0; k < keys; ++k) {
      (void)t->Put("key" + std::to_string((i + k) % 1024), "v");
    }
    benchmark::DoNotOptimize(t->Commit());
    i += keys;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FcwValidation)->Arg(1)->Arg(10)->Arg(50);

// --- Contended variants -----------------------------------------------------
// All threads hammer one shared instance (setup/teardown on thread 0, the
// google-benchmark multi-threaded idiom). The first Arg is the store shard
// count: 1 reproduces the old single-global-lock layout, the default (16)
// is the lock-striped layout, so shards:1 vs shards:16 at the same thread
// count is the before/after of the sharding change.

void BM_SnapshotGetContended(benchmark::State& state) {
  static VersionedStore* store = nullptr;
  constexpr int kKeys = 4096;
  if (state.thread_index() == 0) {
    store = new VersionedStore(static_cast<std::size_t>(state.range(0)));
    for (int k = 0; k < kKeys; ++k) {
      WriteSet ws;
      ws.Put("key" + std::to_string(k), "v");
      store->Apply(ws, 10);
    }
  }
  // Thread-strided key access: every thread reads a disjoint residue class,
  // so all contention is on the shard locks, not on hot chain data.
  std::uint64_t i = state.thread_index();
  const std::uint64_t stride = state.threads();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store->Get("key" + std::to_string(i % kKeys), 100));
    i += stride;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_SnapshotGetContended)
    ->Arg(1)
    ->Arg(16)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_ReadOnlyBegin(benchmark::State& state) {
  // Lock-free read-only begin: one atomic watermark load + a reader-slot
  // CAS, no clock mutex. Contended threads measure whether concurrent RO
  // begins scale instead of serializing on the timestamp lock.
  static Database* db = nullptr;
  if (state.thread_index() == 0) {
    lazysi::engine::DatabaseOptions options;
    options.record_state_chain = false;
    db = new Database(options);
    (void)db->Put("key", "v");
  }
  for (auto _ : state) {
    auto t = db->Begin(/*read_only=*/true);
    benchmark::DoNotOptimize(t.get());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete db;
    db = nullptr;
  }
}
BENCHMARK(BM_ReadOnlyBegin)->ThreadRange(1, 8)->UseRealTime();

void BM_SnapshotReadHot(benchmark::State& state) {
  // Every thread reads the SAME row, so there is no lock striping to hide
  // behind: the Arg toggles the shared-lock baseline (GetLocked, what every
  // read paid before the lock-free chains) against the lock-free path
  // (Get). locked:0/threads:N vs locked:1/threads:N is the before/after of
  // the lock-free read work.
  static VersionedStore* store = nullptr;
  if (state.thread_index() == 0) {
    store = new VersionedStore();
    WriteSet ws;
    ws.Put("hot", "v");
    store->Apply(ws, 10);
  }
  const bool locked = state.range(0) != 0;
  if (locked) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(store->GetLocked("hot", 100));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(store->Get("hot", 100));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_SnapshotReadHot)
    ->ArgNames({"locked"})
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_TxnMultiOpContended(benchmark::State& state) {
  static Database* db = nullptr;
  if (state.thread_index() == 0) {
    lazysi::engine::DatabaseOptions options;
    options.record_state_chain = false;
    options.store_shards = static_cast<std::size_t>(state.range(0));
    db = new Database(options);
  }
  // Thread-private key ranges: commits race on the timestamp mutex and the
  // watermark publication, never on first-committer-wins conflicts, so this
  // measures the pipelined commit's critical section under load.
  constexpr int kOps = 8;
  const std::string prefix = "t" + std::to_string(state.thread_index()) + "k";
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto t = db->Begin();
    for (int o = 0; o < kOps; ++o) {
      (void)t->Put(prefix + std::to_string((i + o) % 256), "v");
    }
    benchmark::DoNotOptimize(t->Commit());
    i += kOps;
  }
  state.SetItemsProcessed(state.iterations() * kOps);
  if (state.thread_index() == 0) {
    delete db;
    db = nullptr;
  }
}
BENCHMARK(BM_TxnMultiOpContended)
    ->Arg(1)
    ->Arg(16)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_FcwValidationContended(benchmark::State& state) {
  static VersionedStore* store = nullptr;
  static lazysi::txn::TxnManager* manager = nullptr;
  constexpr int kPool = 1024;
  if (state.thread_index() == 0) {
    store = new VersionedStore(static_cast<std::size_t>(state.range(0)));
    manager = new lazysi::txn::TxnManager(store);
    for (int k = 0; k < kPool; ++k) {
      auto t = manager->Begin();
      (void)t->Put("key" + std::to_string(k), "seed");
      (void)t->Commit();
    }
  }
  // All threads draw from one shared key pool, so first-committer-wins
  // conflicts (and aborts) genuinely occur; each iteration is one commit
  // attempt, successful or not.
  constexpr int kKeysPerTxn = 4;
  std::uint64_t i = state.thread_index() * 7919u;
  for (auto _ : state) {
    auto t = manager->Begin();
    for (int k = 0; k < kKeysPerTxn; ++k) {
      (void)t->Put("key" + std::to_string((i * 31 + k * 131) % kPool), "v");
    }
    benchmark::DoNotOptimize(t->Commit());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete manager;
    delete store;
    manager = nullptr;
    store = nullptr;
  }
}
BENCHMARK(BM_FcwValidationContended)
    ->Arg(1)
    ->Arg(16)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_ScanRange(benchmark::State& state) {
  Database db;
  for (int k = 0; k < 1000; ++k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", k);
    (void)db.Put(buf, "v");
  }
  const std::string begin = "key000100";
  const std::string end = "key000200";
  for (auto _ : state) {
    auto t = db.Begin(/*read_only=*/true);
    benchmark::DoNotOptimize(t->Scan(begin, end));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ScanRange);

void BM_LogAppend(benchmark::State& state) {
  lazysi::wal::LogicalLog log;
  std::uint64_t i = 0;
  for (auto _ : state) {
    log.Append(lazysi::wal::LogRecord::Update(i, "key", "value", false));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogAppend);

void BM_LogRecordEncodeDecode(benchmark::State& state) {
  auto record = lazysi::wal::LogRecord::Update(42, "some/key/path",
                                               "a moderately sized value",
                                               false);
  for (auto _ : state) {
    std::string buf;
    record.EncodeTo(&buf);
    std::size_t offset = 0;
    benchmark::DoNotOptimize(lazysi::wal::LogRecord::Decode(buf, &offset));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogRecordEncodeDecode);

// Per-write fingerprint cost: the byte-serial FNV-1a fold the state chain
// ran under the commit-ordering lock (key then value chained, then the
// delete flag) against the word-at-a-time WriteDigest each write now
// carries from the thread that buffered it. Arg = value bytes.
std::uint64_t Fnv1aFold(const std::string& key, const std::string& value) {
  return lazysi::HashMix(lazysi::Fnv1a64(value, lazysi::Fnv1a64(key)), 0);
}

std::uint64_t DigestFold(const std::string& key, const std::string& value) {
  return lazysi::WriteDigest(key, value, /*deleted=*/false);
}

void BM_WriteDigest(benchmark::State& state,
                    std::uint64_t (*fold)(const std::string&,
                                          const std::string&)) {
  const std::string key = "item/000123";
  std::string value(static_cast<std::size_t>(state.range(0)), '\0');
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>('a' + i % 26);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fold(key, value));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(key.size() + value.size()));
}
BENCHMARK_CAPTURE(BM_WriteDigest, fnv1a, &Fnv1aFold)
    ->Arg(100)->Arg(1024)->Arg(8192);
BENCHMARK_CAPTURE(BM_WriteDigest, digest64, &DigestFold)
    ->Arg(100)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
