// Micro-benchmarks of the real (threaded) replication pipeline: end-to-end
// refresh throughput and the cost of the session blocking rule. These
// complement the simulation figures by showing the actual engine keeps up
// with far more than the model's offered load.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/checkpointer.h"
#include "engine/database.h"
#include "replication/primary.h"
#include "replication/propagator.h"
#include "replication/secondary.h"
#include "replication/tcp_replication.h"
#include "simmodel/model.h"
#include "system/replicated_system.h"

namespace {

using lazysi::session::Guarantee;
using lazysi::system::ReplicatedSystem;
using lazysi::system::SystemConfig;
using lazysi::system::SystemTransaction;
namespace engine = lazysi::engine;
namespace replication = lazysi::replication;

void BM_ReplicationPipeline(benchmark::State& state) {
  // Measures primary-commit -> secondary-applied end to end, batched.
  SystemConfig config;
  config.num_secondaries = static_cast<std::size_t>(state.range(0));
  config.guarantee = Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int n = 0; n < kBatch; ++n) {
      (void)client->ExecuteUpdate([&](SystemTransaction& t) {
        return t.Put("key" + std::to_string(i % 1024), std::to_string(i));
      });
      ++i;
    }
    benchmark::DoNotOptimize(sys.WaitForReplication());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  sys.Stop();
}
BENCHMARK(BM_ReplicationPipeline)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_RefreshCatchup(benchmark::State& state) {
  // THE direct-vs-legacy engine comparison: a secondary catches up on a
  // pre-built primary backlog of rounds of 8 overlapping transactions (the
  // contended shape — the legacy refresher must drain the pending queue at
  // every start record, the direct engine never stalls). Each iteration
  // replays the identical backlog into a fresh secondary. Reported items are
  // refresh commits/second; the p95_lag_ts counter is the 95th-percentile
  // freshness lag (primary latest commit ts minus seq(DBsec), in timestamp
  // units) sampled during catch-up.
  //
  // Args: direct {0 = legacy, 1 = direct}, applicator threads {1, 2, 4}.
  const bool direct = state.range(0) != 0;
  const auto applicators = static_cast<std::size_t>(state.range(1));

  engine::Database primary_db(
      engine::DatabaseOptions{lazysi::kPrimarySiteId, "primary", false});
  constexpr int kRounds = 100;
  constexpr int kConcurrent = 8;
  constexpr int kOpsPerTxn = 4;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<std::unique_ptr<lazysi::txn::Transaction>> txns;
    for (int t = 0; t < kConcurrent; ++t) txns.push_back(primary_db.Begin());
    for (int t = 0; t < kConcurrent; ++t) {
      for (int o = 0; o < kOpsPerTxn; ++o) {
        // Disjoint within a round (keeps every transaction committable),
        // shared across rounds (same keys are rewritten, so chains grow).
        (void)txns[t]->Put(
            "k" + std::to_string((t * kOpsPerTxn + o) % 512) + "/" +
                std::to_string(t),
            std::to_string(r));
      }
    }
    for (int t = 0; t < kConcurrent; ++t) (void)txns[t]->Commit();
  }
  const lazysi::Timestamp target = primary_db.LatestCommitTs();
  const std::uint64_t commits =
      static_cast<std::uint64_t>(kRounds) * kConcurrent;

  std::vector<double> lag_samples;
  bool timed_out = false;
  for (auto _ : state) {
    engine::Database sec_db(engine::DatabaseOptions{1, "sec", false});
    replication::Secondary sec(&sec_db,
                               replication::SecondaryOptions{applicators,
                                                             direct});
    replication::Propagator prop(primary_db.log());
    sec.Start();
    prop.AttachSink(sec.update_queue());
    std::atomic<bool> sampling{true};
    std::vector<double> iter_lags;
    std::thread sampler([&] {
      while (sampling.load(std::memory_order_acquire)) {
        iter_lags.push_back(static_cast<double>(target - sec.applied_seq()));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    // Manual timing brackets exactly the catch-up window; teardown (notably
    // the propagator's 50 ms poll-interval shutdown) is excluded.
    const auto begin = std::chrono::steady_clock::now();
    prop.Start();
    const bool ok = sec.WaitForSeq(target, std::chrono::milliseconds(60000));
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
    sampling.store(false, std::memory_order_release);
    sampler.join();
    prop.Stop();
    sec.Stop();
    if (!ok) {
      timed_out = true;
      break;
    }
    lag_samples.insert(lag_samples.end(), iter_lags.begin(), iter_lags.end());
  }
  if (timed_out) {
    state.SkipWithError("secondary failed to catch up within 60s");
    return;
  }
  state.SetItemsProcessed(state.iterations() * commits);
  if (!lag_samples.empty()) {
    std::sort(lag_samples.begin(), lag_samples.end());
    state.counters["p95_lag_ts"] =
        lag_samples[(lag_samples.size() * 95) / 100 == lag_samples.size()
                        ? lag_samples.size() - 1
                        : (lag_samples.size() * 95) / 100];
  }
}
BENCHMARK(BM_RefreshCatchup)
    ->ArgNames({"direct", "applicators"})
    ->ArgsProduct({{0, 1}, {1, 2, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelReplayCatchup(benchmark::State& state) {
  // The parallel-pipeline scaling matrix: the same contended backlog as
  // BM_RefreshCatchup — plus deletes and aborts, so the decode pool sees the
  // full record mix — replayed through the direct-apply engine at several
  // decode/apply widths. decode:0 is the serial direct-apply baseline (one
  // refresher thread decodes and allocates inline); decode>0 selects the
  // three-stage pipeline. Items are refresh commits/second; p95_lag_ts is
  // the 95th-percentile freshness lag (primary latest commit ts minus
  // seq(DBsec)) sampled during catch-up — the "always keeps up" number, and
  // the row compare_bench_json.py gates on (lower is better).
  const auto decode = static_cast<std::size_t>(state.range(0));
  const auto applicators = static_cast<std::size_t>(state.range(1));

  engine::Database primary_db(
      engine::DatabaseOptions{lazysi::kPrimarySiteId, "primary", false});
  constexpr int kRounds = 150;
  constexpr int kConcurrent = 8;
  constexpr int kOpsPerTxn = 4;
  std::uint64_t commits = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<std::unique_ptr<lazysi::txn::Transaction>> txns;
    for (int t = 0; t < kConcurrent; ++t) txns.push_back(primary_db.Begin());
    for (int t = 0; t < kConcurrent; ++t) {
      for (int o = 0; o < kOpsPerTxn; ++o) {
        const std::string key =
            "k" + std::to_string((t * kOpsPerTxn + o) % 512) + "/" +
            std::to_string(t);
        if (o == kOpsPerTxn - 1 && r % 5 == 0) {
          (void)txns[t]->Delete(key);
        } else {
          (void)txns[t]->Put(key, std::to_string(r));
        }
      }
    }
    for (int t = 0; t < kConcurrent; ++t) {
      if (t == kConcurrent - 1 && r % 7 == 0) {
        txns[t]->Abort();  // abort records flow down the wire too
      } else if (txns[t]->Commit().ok()) {
        ++commits;
      }
    }
  }
  const lazysi::Timestamp target = primary_db.LatestCommitTs();

  std::vector<double> lag_samples;
  bool timed_out = false;
  for (auto _ : state) {
    engine::Database sec_db(engine::DatabaseOptions{1, "sec", false});
    replication::SecondaryOptions opts;
    opts.applicator_threads = applicators;
    opts.direct_apply = true;
    opts.decode_threads = decode;
    replication::Secondary sec(&sec_db, opts);
    replication::Propagator prop(primary_db.log());
    sec.Start();
    prop.AttachSink(sec.update_queue());
    std::atomic<bool> sampling{true};
    std::vector<double> iter_lags;
    std::thread sampler([&] {
      while (sampling.load(std::memory_order_acquire)) {
        iter_lags.push_back(static_cast<double>(target - sec.applied_seq()));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    const auto begin = std::chrono::steady_clock::now();
    prop.Start();
    const bool ok = sec.WaitForSeq(target, std::chrono::milliseconds(60000));
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
    sampling.store(false, std::memory_order_release);
    sampler.join();
    prop.Stop();
    sec.Stop();
    if (!ok) {
      timed_out = true;
      break;
    }
    lag_samples.insert(lag_samples.end(), iter_lags.begin(), iter_lags.end());
  }
  if (timed_out) {
    state.SkipWithError("secondary failed to catch up within 60s");
    return;
  }
  state.SetItemsProcessed(state.iterations() * commits);
  if (!lag_samples.empty()) {
    std::sort(lag_samples.begin(), lag_samples.end());
    const std::size_t idx = (lag_samples.size() * 95) / 100;
    state.counters["p95_lag_ts"] =
        lag_samples[idx >= lag_samples.size() ? lag_samples.size() - 1 : idx];
  }
}
BENCHMARK(BM_ParallelReplayCatchup)
    ->ArgNames({"decode", "applicators"})
    ->ArgsProduct({{0, 2, 4}, {1, 2, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_SessionReadAfterWrite(benchmark::State& state) {
  // The read-your-writes round trip under ALG-STRONG-SESSION-SI: update at
  // the primary, then a session read that must wait for the refresh.
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = Guarantee::kStrongSessionSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)client->ExecuteUpdate([&](SystemTransaction& t) {
      return t.Put("key", std::to_string(i++));
    });
    auto read = client->BeginRead();
    benchmark::DoNotOptimize((*read)->Get("key"));
    (void)(*read)->Commit();
  }
  state.SetItemsProcessed(state.iterations());
  sys.Stop();
}
BENCHMARK(BM_SessionReadAfterWrite)->Unit(benchmark::kMicrosecond);

void BM_WeakReadThroughput(benchmark::State& state) {
  // Read-only transactions at a secondary are never blocked; this is the
  // raw secondary read path.
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  (void)client->ExecuteUpdate([](SystemTransaction& t) {
    return t.Put("key", "value");
  });
  sys.WaitForReplication();
  for (auto _ : state) {
    auto read = client->BeginRead();
    benchmark::DoNotOptimize((*read)->Get("key"));
    (void)(*read)->Commit();
  }
  state.SetItemsProcessed(state.iterations());
  sys.Stop();
}
BENCHMARK(BM_WeakReadThroughput);

void BM_ReadRoutingFreshVsBlind(benchmark::State& state) {
  // Freshness routing vs blind round-robin roaming under per-secondary
  // delivery jitter: after each session update the two secondaries catch up
  // at independently jittered times, so at read time one is usually fresh
  // and the other stale. Blind roaming sends half the reads to whichever
  // site the round-robin picks — stale half the time, blocking on seq(c) —
  // while the router places each read on a site that already covers the
  // session (or the freshest one, which also unblocks soonest). Arg:
  // routed=0 is the blind baseline, routed=1 the freshness router.
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = Guarantee::kStrongSessionSI;
  config.network_latency = std::chrono::milliseconds(1);
  config.network_jitter = std::chrono::milliseconds(3);
  if (state.range(0) != 0) {
    config.freshness_routing = true;
  } else {
    config.roam_reads = true;
  }
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kReadsPerUpdate = 4;
  for (auto _ : state) {
    (void)client->ExecuteUpdate([&](SystemTransaction& t) {
      return t.Put("key", std::to_string(i++));
    });
    for (int r = 0; r < kReadsPerUpdate; ++r) {
      auto read = client->BeginRead();
      benchmark::DoNotOptimize((*read)->Get("key"));
      (void)(*read)->Commit();
    }
  }
  state.SetItemsProcessed(state.iterations() * kReadsPerUpdate);
  sys.Stop();
}
BENCHMARK(BM_ReadRoutingFreshVsBlind)
    ->ArgNames({"routed"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_TcpPropagation(benchmark::State& state) {
  // Primary-commit -> secondary-applied throughput over the reactor-based
  // cross-process stream (ReplicationListener -> loopback TCP ->
  // ReplicationReceiver): the wire the multi-process deployment actually
  // runs. Args are {secondaries, max_batch_records}. The counters read the
  // listener's own syscall accounting across the timed region:
  // syscalls_per_record is flush syscalls per record streamed (the headline
  // reactor win), bytes_per_record the framing + encoding overhead per
  // record.
  // Both are gated lower-is-better by compare_bench_json.py.
  const auto n_secondaries = static_cast<std::size_t>(state.range(0));
  const auto batch_records = static_cast<std::size_t>(state.range(1));

  engine::Database primary_db;
  replication::Primary primary(&primary_db);
  replication::ReplicationListener::Options lo;
  lo.max_batch_records = batch_records;
  replication::ReplicationListener listener(primary.propagator(), lo);
  if (!listener.Start().ok()) {
    state.SkipWithError("listener failed to start");
    return;
  }
  primary.Start();

  struct Sink {
    engine::Database db;
    replication::Secondary secondary;
    replication::ReplicationReceiver receiver;
    Sink(std::uint16_t port, std::size_t id)
        : db(engine::DatabaseOptions{static_cast<lazysi::SiteId>(id),
                                     "bench-sec"}),
          secondary(&db),
          receiver(secondary.update_queue(), [port] {
            replication::ReplicationReceiver::Options o;
            o.primary_port = port;
            return o;
          }()) {
      secondary.Start();
      receiver.Start();
    }
    ~Sink() {
      receiver.Stop();
      secondary.Stop();
    }
  };
  std::vector<std::unique_ptr<Sink>> sinks;
  for (std::size_t s = 0; s < n_secondaries; ++s) {
    sinks.push_back(std::make_unique<Sink>(listener.port(), s + 1));
  }

  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  const auto before = listener.stats();
  for (auto _ : state) {
    lazysi::Timestamp last = 0;
    for (int n = 0; n < kBatch; ++n) {
      auto t = primary_db.Begin();
      (void)t->Put("key" + std::to_string(i % 1024), std::to_string(i));
      (void)t->Commit();
      last = t->commit_ts();
      ++i;
    }
    for (auto& sink : sinks) {
      benchmark::DoNotOptimize(
          sink->secondary.WaitForSeq(last, std::chrono::milliseconds(10000)));
    }
  }
  const auto after = listener.stats();
  const double records =
      static_cast<double>(after.records_streamed - before.records_streamed);
  if (records > 0) {
    state.counters["syscalls_per_record"] =
        static_cast<double>(after.writev_calls - before.writev_calls) /
        records;
    state.counters["bytes_per_record"] =
        static_cast<double>(after.bytes_sent - before.bytes_sent) / records;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  for (auto& sink : sinks) sink.reset();
  primary.Stop();
  listener.Stop();
}
BENCHMARK(BM_TcpPropagation)
    ->ArgNames({"secondaries", "batch"})
    ->Args({1, 128})
    ->Args({2, 128})
    ->Args({4, 128})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedPropagation(benchmark::State& state) {
  // Partial-replication propagation volume and catch-up: 4 partitions over
  // 4 secondaries at replication factor Arg in {4, 2, 1}, i.e. each sink
  // covers 1/1, 1/2 or 1/4 of the keyspace. Every iteration commits a batch
  // spread uniformly across the keyspace and waits until every sink has
  // applied it, so the reported time is fleet catch-up at that coverage.
  // The counters are the delivered volume per sink per committed update:
  // updates_per_sink / bytes_per_sink shrink with the coverage fraction
  // (at 2-way over 4 secondaries a sink carries ~half the full-replication
  // volume — the filtered remainder crosses the wire only as coverage
  // markers, which is the point of partitioning the fleet). Both are gated
  // lower-is-better by compare_bench_json.py.
  SystemConfig config;
  config.num_secondaries = 4;
  config.num_partitions = 4;
  config.partition_replication = static_cast<std::size_t>(state.range(0));
  config.guarantee = Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int n = 0; n < kBatch; ++n) {
      (void)client->ExecuteUpdate([&](SystemTransaction& t) {
        return t.Put("key" + std::to_string(i % 1024), std::to_string(i));
      });
      ++i;
    }
    benchmark::DoNotOptimize(sys.WaitForReplication());
  }
  const auto stats = sys.Stats();
  double updates = 0.0, bytes = 0.0;
  for (const auto& sec : stats.secondaries) {
    updates += static_cast<double>(sec.updates_received);
    bytes += static_cast<double>(sec.update_bytes_received);
  }
  const double sinks = static_cast<double>(stats.secondaries.size());
  const double commits =
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.counters["updates_per_sink"] = updates / sinks / commits;
  state.counters["bytes_per_sink"] = bytes / sinks / commits;
  state.SetItemsProcessed(state.iterations() * kBatch);
  sys.Stop();
}
BENCHMARK(BM_PartitionedPropagation)
    ->ArgNames({"replicas"})
    ->Arg(4)
    ->Arg(2)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_GroupCommitThroughput(benchmark::State& state) {
  // The durable commit pipeline under concurrent committers: mode 0 is the
  // in-memory engine (no WAL at all), 1/2/3 attach the durable log with
  // fsync_mode never/group/always. The headline comparison: group commit at
  // 16 committers should beat per-commit fsync ("always") by sharing one
  // fdatasync across the batch, while "never" prices the queueing alone and
  // stays within noise of the in-memory path.
  const int mode = static_cast<int>(state.range(0));
  const int committers = static_cast<int>(state.range(1));
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lazysi_group_commit_bench_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  engine::Database db;
  std::unique_ptr<lazysi::wal::DurableLog> durable;
  if (mode != 0) {
    lazysi::wal::DurableLog::Options lo;
    lo.fsync_mode = mode == 1   ? lazysi::wal::DurableLog::FsyncMode::kNever
                    : mode == 2 ? lazysi::wal::DurableLog::FsyncMode::kGroup
                                : lazysi::wal::DurableLog::FsyncMode::kAlways;
    auto opened = lazysi::engine::OpenDataDir(&db, dir.string(), lo);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    durable = std::move(opened->durable);
  }

  constexpr int kPerThread = 32;
  std::mutex lat_mu;
  std::vector<double> lat_us;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(committers);
    for (int t = 0; t < committers; ++t) {
      threads.emplace_back([&, t] {
        std::vector<double> local;
        local.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          const auto begin = std::chrono::steady_clock::now();
          // Distinct key space per committer: no write conflicts, so every
          // latency sample is a clean commit+durability-gate round trip.
          (void)db.Put("c" + std::to_string(t) + "-k" + std::to_string(i % 8),
                       "v" + std::to_string(i));
          local.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - begin)
                              .count());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        lat_us.insert(lat_us.end(), local.begin(), local.end());
      });
    }
    for (auto& th : threads) th.join();
  }

  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    state.counters["p95_commit_us"] = lat_us[lat_us.size() * 95 / 100];
  }
  if (durable) {
    const auto c = durable->counters();
    state.counters["fsyncs_per_commit"] =
        lat_us.empty() ? 0.0
                       : static_cast<double>(c.fsyncs) /
                             static_cast<double>(lat_us.size());
    state.counters["mean_group_records"] =
        c.flush_batches == 0 ? 0.0
                             : static_cast<double>(c.records_flushed) /
                                   static_cast<double>(c.flush_batches);
    durable->Close();
  }
  state.SetItemsProcessed(state.iterations() * committers * kPerThread);
  fs::remove_all(dir);
}
BENCHMARK(BM_GroupCommitThroughput)
    ->ArgNames({"mode", "committers"})
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({0, 16})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 16})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({2, 16})
    ->Args({3, 1})
    ->Args({3, 4})
    ->Args({3, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Raw discrete-event engine speed: how many simulated client events per
  // wall second the CSIM-replacement sustains (drives the figure sweeps).
  for (auto _ : state) {
    lazysi::simmodel::Params p;
    p.num_secondaries = 2;
    p.total_clients_override = 40;
    p.warmup_time = 30;
    p.measure_time = 300;
    lazysi::simmodel::Model model(p, 1);
    benchmark::DoNotOptimize(model.Run());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
