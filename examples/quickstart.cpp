// Quickstart: bring up a lazily replicated system with strong session SI,
// write through the primary, read your own writes from a secondary.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "system/replicated_system.h"

using lazysi::session::Guarantee;
using lazysi::system::ReplicatedSystem;
using lazysi::system::SystemConfig;
using lazysi::system::SystemTransaction;

int main() {
  // One primary plus two secondaries, strong session SI (the paper's
  // ALG-STRONG-SESSION-SI): no transaction inversions within a session.
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = Guarantee::kStrongSessionSI;
  ReplicatedSystem sys(config);
  sys.Start();

  // Each Connect() is one client session, bound to a secondary.
  auto client = sys.Connect();
  std::printf("connected to secondary %zu, session label %llu\n",
              client->secondary_index(),
              static_cast<unsigned long long>(client->session()->label()));

  // Update transactions are transparently forwarded to the primary.
  lazysi::Status s = client->ExecuteUpdate([](SystemTransaction& t) {
    LAZYSI_RETURN_NOT_OK(t.Put("user/42/name", "Ada"));
    return t.Put("user/42/email", "ada@example.com");
  });
  std::printf("update commit: %s\n", s.ToString().c_str());

  // Read-only transactions run at the secondary. Under strong session SI
  // this blocks (briefly) until the secondary has applied our update, so the
  // read below can never miss it.
  s = client->ExecuteRead([](SystemTransaction& t) {
    auto name = t.Get("user/42/name");
    auto email = t.Get("user/42/email");
    if (!name.ok() || !email.ok()) {
      return lazysi::Status::Internal("read-your-writes failed!");
    }
    std::printf("read from secondary: name=%s email=%s\n", name->ToString().c_str(),
                email->ToString().c_str());
    return lazysi::Status::OK();
  });
  std::printf("read-only txn: %s\n", s.ToString().c_str());

  // Snapshot scans see a transaction-consistent prefix of primary states.
  s = client->ExecuteRead([](SystemTransaction& t) {
    auto rows = t.Scan("user/", "user0");
    if (!rows.ok()) return rows.status();
    std::printf("scan found %zu rows under user/\n", rows->size());
    return lazysi::Status::OK();
  });
  std::printf("scan txn: %s\n", s.ToString().c_str());

  // First-committer-wins in action: two racing increments, one retries.
  (void)client->ExecuteUpdate(
      [](SystemTransaction& t) { return t.Put("counter", "0"); });
  auto other = sys.Connect();
  for (int i = 0; i < 10; ++i) {
    auto increment = [](SystemTransaction& t) -> lazysi::Status {
      auto v = t.Get("counter");
      if (!v.ok()) return v.status();
      return t.Put("counter", std::to_string(std::stoi(v->ToString()) + 1));
    };
    // First-committer-wins can abort a racer; ExecuteUpdate retries with a
    // fresh snapshot, so no increment is ever lost.
    (void)client->ExecuteUpdate(increment, /*max_attempts=*/100);
    (void)other->ExecuteUpdate(increment, /*max_attempts=*/100);
  }
  // Note: `client`'s session only guarantees visibility of its OWN updates;
  // `other`'s most recent increment may lag (strong *session* SI does not
  // order across sessions). Syncing the replicas first makes the final total
  // exact.
  sys.WaitForReplication();
  (void)client->ExecuteRead([](SystemTransaction& t) {
    std::printf("counter after 20 racing increments: %s\n",
                t.Get("counter").ValueOr("?").ToString().c_str());
    return lazysi::Status::OK();
  });

  sys.Stop();
  std::printf("done\n");
  return 0;
}
