// OLAP offloading: the scale-out use case the paper motivates (Section 1,
// "e-commerce and OLAP-based applications"). A stream of OLTP writers
// updates account balances at the primary while analytic readers run long
// consistent scans at the secondaries — reads are never blocked by writers
// (SI), never see torn totals (snapshot consistency), and the secondaries'
// freshness lag is observable.
//
//   $ ./build/examples/analytics

#include <atomic>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "system/replicated_system.h"

using namespace lazysi;
using system::ReplicatedSystem;
using system::SystemConfig;
using system::SystemTransaction;

namespace {
constexpr int kAccounts = 64;
constexpr long kTotalMoney = 64000;  // invariant: sum of balances
}  // namespace

int main() {
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = session::Guarantee::kStrongSessionSI;
  config.propagation_batch_interval = std::chrono::milliseconds(20);
  ReplicatedSystem sys(config);
  sys.Start();

  // Seed the chart of accounts: total is kTotalMoney forever after, because
  // every transfer is balance-preserving.
  auto seeder = sys.Connect();
  Status s = seeder->ExecuteUpdate([&](SystemTransaction& t) {
    for (int a = 0; a < kAccounts; ++a) {
      char key[32];
      std::snprintf(key, sizeof(key), "acct/%04d", a);
      LAZYSI_RETURN_NOT_OK(t.Put(key, std::to_string(kTotalMoney / kAccounts)));
    }
    return Status::OK();
  });
  if (!s.ok()) {
    std::printf("seed failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::atomic<bool> stop{false};
  std::atomic<long> transfers{0};

  // OLTP: concurrent transfer writers (forwarded to the primary).
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + w);
      auto conn = sys.Connect();
      while (!stop) {
        const int from = static_cast<int>(rng.Next(kAccounts));
        const int to = static_cast<int>(rng.Next(kAccounts));
        if (from == to) continue;
        const long amount = 1 + static_cast<long>(rng.Next(20));
        Status st = conn->ExecuteUpdate(
            [&](SystemTransaction& t) -> Status {
              char kf[32], kt[32];
              std::snprintf(kf, sizeof(kf), "acct/%04d", from);
              std::snprintf(kt, sizeof(kt), "acct/%04d", to);
              auto bf = t.Get(kf);
              auto bt = t.Get(kt);
              if (!bf.ok() || !bt.ok()) return Status::Internal("missing acct");
              const long f = std::stol(bf->ToString()),
                         g = std::stol(bt->ToString());
              if (f < amount) return Status::OK();  // insufficient funds
              LAZYSI_RETURN_NOT_OK(t.Put(kf, std::to_string(f - amount)));
              return t.Put(kt, std::to_string(g + amount));
            },
            /*max_attempts=*/50);
        if (st.ok()) ++transfers;
      }
    });
  }

  // OLAP: analytic scans at the secondaries. Each scan totals every account
  // balance inside one snapshot — the invariant must hold in every result.
  std::printf("%-8s %-14s %-12s %-10s\n", "scan#", "total", "consistent?",
              "transfers so far");
  auto analyst = sys.Connect();
  for (int scan = 1; scan <= 8; ++scan) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    long total = 0;
    std::size_t rows = 0;
    Status st = analyst->ExecuteRead([&](SystemTransaction& t) -> Status {
      auto all = t.Scan("acct/", "acct0");
      if (!all.ok()) return all.status();
      rows = all->size();
      for (const auto& [key, value] : *all) total += std::stol(value.ToString());
      return Status::OK();
    });
    if (!st.ok()) {
      std::printf("scan failed: %s\n", st.ToString().c_str());
      continue;
    }
    std::printf("%-8d %-14ld %-12s %-10ld\n", scan, total,
                (total == kTotalMoney && rows == kAccounts) ? "yes"
                                                            : "NO (BUG!)",
                transfers.load());
  }

  stop = true;
  for (auto& t : writers) t.join();
  sys.WaitForReplication();

  // Freshness diagnostics: how far each secondary lagged the primary.
  std::printf("\nprimary committed %llu update txns; secondaries applied:\n",
              static_cast<unsigned long long>(
                  sys.primary_db()->txn_manager()->CommittedCount()));
  for (std::size_t i = 0; i < sys.num_secondaries(); ++i) {
    std::printf("  secondary %zu: %llu refresh txns, seq(DBsec)=%llu\n", i,
                static_cast<unsigned long long>(
                    sys.secondary(i)->refreshed_count()),
                static_cast<unsigned long long>(
                    sys.secondary(i)->applied_seq()));
  }
  sys.Stop();
  return 0;
}
