// Secondary failure and recovery (Sections 3.4 and 4): crash a secondary
// under load, keep serving from the survivors, then recover it from a
// quiesced primary checkpoint — seq(DBsec) is re-seeded with the dummy-
// transaction technique so session guarantees hold immediately.
//
//   $ ./build/examples/failover

#include <cstdio>

#include "history/completeness.h"
#include "system/replicated_system.h"

using namespace lazysi;
using system::ReplicatedSystem;
using system::SystemConfig;
using system::SystemTransaction;

namespace {

void PutBatch(system::ClientConnection* conn, const std::string& prefix,
              int n) {
  for (int i = 0; i < n; ++i) {
    Status s = conn->ExecuteUpdate([&](SystemTransaction& t) {
      return t.Put(prefix + "/" + std::to_string(i), "v");
    });
    if (!s.ok()) std::printf("write failed: %s\n", s.ToString().c_str());
  }
}

}  // namespace

int main() {
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = session::Guarantee::kStrongSessionSI;
  ReplicatedSystem sys(config);
  sys.Start();

  auto ops = sys.ConnectTo(1);  // a client on the surviving secondary

  PutBatch(ops.get(), "before", 25);
  sys.WaitForReplication();
  std::printf("phase 1: 25 txns replicated to both secondaries "
              "(sec0 keys=%zu, sec1 keys=%zu)\n",
              sys.secondary_db(0)->store()->KeyCount(),
              sys.secondary_db(1)->store()->KeyCount());

  // --- Crash secondary 0. ---
  Status s = sys.FailSecondary(0);
  std::printf("phase 2: secondary 0 crashed (%s); its queued updates and "
              "refresh state are gone\n", s.ToString().c_str());

  auto stranded = sys.ConnectTo(0);
  auto read = stranded->BeginRead();
  std::printf("  client of secondary 0: BeginRead -> %s\n",
              read.ok() ? "OK (unexpected!)"
                        : read.status().ToString().c_str());

  PutBatch(ops.get(), "during", 25);
  sys.WaitForReplication();
  std::printf("  25 more txns committed; surviving secondary has %zu keys\n",
              sys.secondary_db(1)->store()->KeyCount());

  // --- Recover from a quiesced checkpoint. ---
  s = sys.RecoverSecondary(0);
  std::printf("phase 3: recovery -> %s\n", s.ToString().c_str());
  PutBatch(ops.get(), "after", 25);
  sys.WaitForReplication();

  const auto primary_state = sys.primary_db()->store()->Materialize(
      sys.primary_db()->LatestCommitTs());
  const auto recovered_state = sys.secondary_db(0)->store()->Materialize(
      sys.secondary_db(0)->LatestCommitTs());
  std::printf("  recovered secondary: %zu keys, identical to primary: %s\n",
              recovered_state.size(),
              recovered_state == primary_state ? "yes" : "NO (BUG!)");

  // Session reads on the recovered secondary work, with read-your-writes.
  auto fresh = sys.ConnectTo(0);
  s = fresh->ExecuteUpdate([](SystemTransaction& t) {
    return t.Put("postrecovery", "ok");
  });
  std::printf("  update via recovered secondary's client: %s\n",
              s.ToString().c_str());
  s = fresh->ExecuteRead([](SystemTransaction& t) {
    auto v = t.Get("postrecovery");
    if (!v.ok()) return Status::Internal("read-your-writes broken");
    std::printf("  read-your-writes on recovered secondary: %s\n",
                v->ToString().c_str());
    return Status::OK();
  });
  std::printf("  session read: %s\n", s.ToString().c_str());

  // The unaffected secondary's whole state chain still matches the primary
  // (Theorem 3.1 held throughout the failure).
  auto report = history::CheckCompleteness(
      sys.primary_db()->StateChainHistory(),
      sys.secondary_db(1)->StateChainHistory());
  std::printf("phase 4: completeness on surviving secondary: %s\n",
              report.ok ? "holds" : report.violation.c_str());

  sys.Stop();
  return 0;
}
