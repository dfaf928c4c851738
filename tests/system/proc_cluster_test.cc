// Multi-process deployment tests: fork/exec real lazysi_server processes
// (binary path from the LAZYSI_SERVER_BIN environment variable, wired up by
// CMake), drive them through the client wire API over loopback TCP, and
// exercise the failure path the in-process suites cannot: kill -9 of a
// secondary process followed by a fresh process resyncing through the
// replication handshake — a replay of the primary's log (AttachSinkAt) while
// the log still reaches back far enough, a snapshot of the primary once it
// has been truncated.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "system/remote_client.h"
#include "system/wire_api.h"

namespace lazysi {
namespace system {
namespace {

using namespace std::chrono_literals;

std::string ServerBinary() {
  const char* bin = std::getenv("LAZYSI_SERVER_BIN");
  return bin != nullptr ? bin : "";
}

/// One child lazysi_server process. Ports are ephemeral and discovered
/// through the --port-file handshake.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Terminate(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `role` ("primary"/"secondary"); secondaries dial `primary_repl`.
  /// `extra` is appended verbatim (e.g. "--data-dir=...", "--repl-port=...").
  /// A non-empty `log_path` gets the child's stderr at INFO level.
  bool Spawn(const std::string& role, std::uint16_t primary_repl = 0,
             int site_id = 1, std::vector<std::string> extra = {},
             const std::string& log_path = "") {
    static int counter = 0;
    port_file_ = testing::TempDir() + "lazysi_ports_" +
                 std::to_string(::getpid()) + "_" + std::to_string(counter++);
    std::remove(port_file_.c_str());

    std::vector<std::string> args = {ServerBinary(), "--role=" + role,
                                     "--port-file=" + port_file_};
    if (role == "secondary") {
      args.push_back("--primary-port=" + std::to_string(primary_repl));
      args.push_back("--site-id=" + std::to_string(site_id));
    }
    for (auto& a : extra) args.push_back(std::move(a));
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ == 0) {
      if (!log_path.empty()) {
        std::FILE* log = std::freopen(log_path.c_str(), "w", stderr);
        if (log == nullptr) ::_exit(126);
        ::setenv("LAZYSI_LOG_LEVEL", "info", 1);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);  // exec failed
    }
    if (pid_ < 0) return false;
    return WaitForPorts();
  }

  /// kill -9: no shutdown handshake, no flushing — the crash the paper's
  /// Section 3.4 recovery machinery is for.
  void Kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    Reap();
  }

  /// Orderly SIGTERM shutdown; returns the exit code (-1 on timeout/signal).
  int Terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    return Reap();
  }

  std::uint16_t client_port() const { return client_port_; }
  std::uint16_t repl_port() const { return repl_port_; }
  pid_t pid() const { return pid_; }

 private:
  bool WaitForPorts() {
    for (int i = 0; i < 500; ++i) {  // up to 10 s
      std::ifstream in(port_file_);
      unsigned client = 0;
      unsigned repl = 0;
      if (in >> client >> repl && client != 0) {
        client_port_ = static_cast<std::uint16_t>(client);
        repl_port_ = static_cast<std::uint16_t>(repl);
        return true;
      }
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  int Reap() {
    int status = 0;
    for (int i = 0; i < 500; ++i) {  // up to 10 s, then escalate
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        std::remove(port_file_.c_str());
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(20ms);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    std::remove(port_file_.c_str());
    return -1;
  }

  pid_t pid_ = -1;
  std::string port_file_;
  std::uint16_t client_port_ = 0;
  std::uint16_t repl_port_ = 0;
};

class ProcClusterTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(ServerBinary().empty())
        << "LAZYSI_SERVER_BIN not set; run via ctest";
  }

  /// Runs `n` single-key update transactions at the primary through
  /// `session`, returning the last commit's primary timestamp.
  Timestamp PutN(RemoteSite* primary, RemoteSession* session, int n,
                 const std::string& tag, int base = 0) {
    Timestamp last = 0;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(session->Begin(primary, /*read_only=*/false).ok());
      EXPECT_TRUE(primary
                      ->Put("key-" + std::to_string(base + i),
                            tag + "-" + std::to_string(base + i))
                      .ok());
      auto seq = session->Commit(primary);
      EXPECT_TRUE(seq.ok());
      if (seq.ok()) last = *seq;
    }
    return last;
  }
};

TEST_F(ProcClusterTest, ReplicatesAcrossProcesses) {
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess sec1;
  ServerProcess sec2;
  ASSERT_TRUE(sec1.Spawn("secondary", primary_proc.repl_port(), 1));
  ASSERT_TRUE(sec2.Spawn("secondary", primary_proc.repl_port(), 2));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSession session;
  PutN(&primary, &session, 30, "v");

  // Strong session SI across sites: a read-only transaction begun with
  // seq(c) observes every update this session committed, on either replica.
  for (ServerProcess* proc : {&sec1, &sec2}) {
    RemoteSite replica;
    ASSERT_TRUE(replica.Connect("127.0.0.1", proc->client_port()).ok());
    auto prefix = session.Begin(&replica, /*read_only=*/true);
    ASSERT_TRUE(prefix.ok()) << prefix.status();
    EXPECT_GE(*prefix, session.seq());
    for (int i = 0; i < 30; ++i) {
      auto value = replica.Get("key-" + std::to_string(i));
      ASSERT_TRUE(value.ok()) << value.status();
      EXPECT_EQ(*value, "v-" + std::to_string(i));
    }
    auto rows = replica.Scan("key-", "key-~");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 30u);
    EXPECT_TRUE(replica.Commit().ok());
  }

  EXPECT_EQ(sec1.Terminate(), 0);
  EXPECT_EQ(sec2.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

TEST_F(ProcClusterTest, SecondaryRejectsUpdates) {
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess sec;
  ASSERT_TRUE(sec.Spawn("secondary", primary_proc.repl_port()));

  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
  auto begin = replica.Begin(/*read_only=*/false);
  EXPECT_FALSE(begin.ok());
  EXPECT_EQ(begin.status().code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ(sec.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

TEST_F(ProcClusterTest, WriteConflictSurfacesOverTheWire) {
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));

  RemoteSite a;
  RemoteSite b;
  ASSERT_TRUE(a.Connect("127.0.0.1", primary_proc.client_port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", primary_proc.client_port()).ok());
  ASSERT_TRUE(a.Begin(false).ok());
  ASSERT_TRUE(b.Begin(false).ok());
  ASSERT_TRUE(a.Put("contended", "from-a").ok());
  ASSERT_TRUE(b.Put("contended", "from-b").ok());
  ASSERT_TRUE(a.Commit().ok());
  auto second = b.Commit();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kWriteConflict);

  EXPECT_EQ(primary_proc.Terminate(), 0);
}

TEST_F(ProcClusterTest, KillNineSecondaryResyncsFromScratch) {
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess sec;
  ASSERT_TRUE(sec.Spawn("secondary", primary_proc.repl_port()));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSession session;
  PutN(&primary, &session, 25, "v", 0);

  {
    RemoteSite replica;
    ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
    ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
  }

  // Crash the secondary outright, then keep committing while it is gone.
  sec.Kill9();
  PutN(&primary, &session, 25, "v", 25);

  // A fresh process has an empty database: its HELLO carries expected_seq 0
  // and the primary answers with a replay of its log from LSN 0 while it
  // still holds it, and with a snapshot of its state once it has truncated.
  ServerProcess fresh;
  ASSERT_TRUE(fresh.Spawn("secondary", primary_proc.repl_port(), 2));
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", fresh.client_port()).ok());
  auto prefix = session.Begin(&replica, /*read_only=*/true);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  for (int i = 0; i < 50; ++i) {
    auto value = replica.Get("key-" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "key-" << i << ": " << value.status();
    EXPECT_EQ(*value, "v-" + std::to_string(i));
  }
  EXPECT_TRUE(replica.Commit().ok());

  auto stats = replica.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->role, wire_api::kRoleSecondary);
  EXPECT_GE(stats->applied_seq, session.seq());

  EXPECT_EQ(fresh.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

TEST_F(ProcClusterTest, PrimaryKillNineRecoversAckedCommits) {
  const std::string data_dir = testing::TempDir() + "lazysi_primary_data_" +
                               std::to_string(::getpid());
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary", 0, 1,
                                 {"--data-dir=" + data_dir,
                                  "--fsync-mode=group",
                                  "--checkpoint-interval-ms=100"}));
  const std::uint16_t repl_port = primary_proc.repl_port();
  ServerProcess sec;
  ASSERT_TRUE(sec.Spawn("secondary", repl_port));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSession session;
  PutN(&primary, &session, 40, "v", 0);
  const Timestamp acked = session.seq();

  {
    RemoteSite replica;
    ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
    ASSERT_TRUE(replica.WaitSeq(acked).ok());
  }

  // Crash the primary outright. Every Commit above returned OK, so the
  // group-commit ack rule guarantees all 40 transactions are on disk.
  primary_proc.Kill9();

  // Restart from the same data directory, pinning the replication port so
  // the surviving secondary's receiver reconnects on its own. Recovery reads
  // manifest + checkpoint + log suffix and preserves commit timestamps, so
  // the session's seq(c) stays meaningful across the restart.
  ServerProcess restarted;
  ASSERT_TRUE(restarted.Spawn("primary", 0, 1,
                              {"--data-dir=" + data_dir,
                               "--fsync-mode=group",
                               "--checkpoint-interval-ms=100",
                               "--repl-port=" + std::to_string(repl_port)}));

  RemoteSite primary2;
  ASSERT_TRUE(primary2.Connect("127.0.0.1", restarted.client_port()).ok());
  {
    ASSERT_TRUE(primary2.Begin(/*read_only=*/true).ok());
    for (int i = 0; i < 40; ++i) {
      auto value = primary2.Get("key-" + std::to_string(i));
      ASSERT_TRUE(value.ok()) << "key-" << i << ": " << value.status();
      EXPECT_EQ(*value, "v-" + std::to_string(i));
    }
    EXPECT_TRUE(primary2.Commit().ok());
  }

  // The restarted primary keeps accepting updates with fresh timestamps
  // above everything restored; the session carries its seq across.
  PutN(&primary2, &session, 10, "v", 40);

  // The surviving secondary resyncs through the replication stream's
  // reconnect handshake and converges on the full 50-key state.
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
  ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
  auto prefix = session.Begin(&replica, /*read_only=*/true);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  for (int i = 0; i < 50; ++i) {
    auto value = replica.Get("key-" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "key-" << i << ": " << value.status();
    EXPECT_EQ(*value, "v-" + std::to_string(i));
  }
  EXPECT_TRUE(replica.Commit().ok());

  // Byte-for-byte convergence: order-independent content hashes match.
  auto primary_stats = primary2.Stats();
  auto replica_stats = replica.Stats();
  ASSERT_TRUE(primary_stats.ok());
  ASSERT_TRUE(replica_stats.ok());
  EXPECT_EQ(primary_stats->content_hash, replica_stats->content_hash);
  EXPECT_NE(primary_stats->content_hash, 0u);

  EXPECT_EQ(sec.Terminate(), 0);
  EXPECT_EQ(restarted.Terminate(), 0);
  std::filesystem::remove_all(data_dir);
}

/// Thread count of another process, from /proc/<pid>/status.
int ThreadsOf(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(sizeof("Threads:") - 1));
    }
  }
  return -1;
}

TEST_F(ProcClusterTest, FanOutKeepsPrimaryThreadCountFlat) {
  // The reactor's scaling contract, observed from outside the process: a
  // primary serving 16 secondary streams must run the same thread count as
  // one serving a single stream. The pre-reactor transport spent ~3 threads
  // per connection, which this would catch immediately.
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSession session;
  PutN(&primary, &session, 20, "v");

  std::vector<std::unique_ptr<ServerProcess>> secondaries;
  auto add_secondary = [&](int site_id) {
    secondaries.push_back(std::make_unique<ServerProcess>());
    ASSERT_TRUE(secondaries.back()->Spawn("secondary",
                                          primary_proc.repl_port(), site_id));
    RemoteSite replica;
    ASSERT_TRUE(
        replica.Connect("127.0.0.1", secondaries.back()->client_port()).ok());
    ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
  };

  add_secondary(1);
  const int threads_with_one = ThreadsOf(primary_proc.pid());
  ASSERT_GT(threads_with_one, 0);

  for (int site = 2; site <= 16; ++site) add_secondary(site);
  const int threads_with_sixteen = ThreadsOf(primary_proc.pid());
  ASSERT_GT(threads_with_sixteen, 0);

  // 15 extra connections, zero extra threads (slack of 2 for runtime
  // helpers that may appear lazily — far below even one thread per conn).
  EXPECT_LE(threads_with_sixteen - threads_with_one, 2)
      << "1 secondary: " << threads_with_one
      << " threads; 16 secondaries: " << threads_with_sixteen;

  // The stats wire agrees about the fan-out and the batched frames.
  auto stats = primary.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->role, wire_api::kRolePrimary);
  EXPECT_GE(stats->wire_connections, 16u);
  EXPECT_GT(stats->wire_batch_frames, 0u);
  EXPECT_GT(stats->wire_records, 0u);
  EXPECT_GT(stats->wire_bytes, 0u);

  for (auto& sec : secondaries) EXPECT_EQ(sec->Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

/// A KiB field ("VmRSS:", "VmHWM:") of another process's
/// /proc/<pid>/status; -1 when absent.
long StatusKibOf(pid_t pid, const std::string& field) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stol(line.substr(field.size()));
  }
  return -1;
}

/// Resident set size of another process in KiB.
long RssKibOf(pid_t pid) { return StatusKibOf(pid, "VmRSS:"); }

TEST_F(ProcClusterTest, SecondaryRssLevelsOffUnderOverwrites) {
  // Ten rounds each overwrite the same 4 MiB of rows. A secondary that kept
  // its logical log, or every version, would grow by 4 MiB per round for
  // each; with the reclaim pass its RSS after the last round stays within
  // kSlackKib of its RSS after round 2 (by which point the heap has seen a
  // full working set plus one round of garbage).
  constexpr int kRounds = 10;
  constexpr int kRows = 1024;
  constexpr int kRowsPerTxn = 16;
  constexpr long kSlackKib = 6 * 1024;
  const std::string pad(4096, 'p');
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // The servers share this build's flags, and a sanitizer's allocator
  // quarantines freed blocks and ignores malloc_trim.
  GTEST_SKIP() << "RSS is the sanitizer allocator's, not the server's";
#endif

  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess sec;
  ASSERT_TRUE(sec.Spawn("secondary", primary_proc.repl_port()));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
  RemoteSession session;

  std::vector<long> rss_kib;
  for (int round = 0; round < kRounds; ++round) {
    for (int row = 0; row < kRows; row += kRowsPerTxn) {
      ASSERT_TRUE(session.Begin(&primary, /*read_only=*/false).ok());
      for (int i = row; i < row + kRowsPerTxn; ++i) {
        ASSERT_TRUE(primary
                        .Put("row-" + std::to_string(i),
                             std::to_string(round) + pad)
                        .ok());
      }
      ASSERT_TRUE(session.Commit(&primary).ok());
    }
    ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
    // Let a few reclaim passes (one per 100 ms) run over the round.
    std::this_thread::sleep_for(400ms);
    rss_kib.push_back(RssKibOf(sec.pid()));
    ASSERT_GT(rss_kib.back(), 0);
  }

  std::string trace;
  for (long kib : rss_kib) trace += " " + std::to_string(kib / 1024);
  EXPECT_LE(rss_kib.back() - rss_kib[1], kSlackKib)
      << "secondary RSS per round (MiB):" << trace;

  // Still serving the last round's values.
  ASSERT_TRUE(session.Begin(&replica, /*read_only=*/true).ok());
  auto value = replica.Get("row-" + std::to_string(kRows - 1));
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, std::to_string(kRounds - 1) + pad);
  EXPECT_TRUE(replica.Commit().ok());

  EXPECT_EQ(sec.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

TEST_F(ProcClusterTest, PrimaryRssLevelsOffUnderOverwrites) {
  // The secondary test's workload, measured at an in-memory primary. Its
  // logical log holds a copy of every value written; kept whole for a
  // replay from LSN 0 it grew by 4 MiB per round. Truncated behind the
  // secondary's acks, it stays within kSlackKib of round 2.
  constexpr int kRounds = 10;
  constexpr int kRows = 1024;
  constexpr int kRowsPerTxn = 16;
  constexpr long kSlackKib = 6 * 1024;
  const std::string pad(4096, 'p');
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS is the sanitizer allocator's, not the server's";
#endif

  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess sec;
  ASSERT_TRUE(sec.Spawn("secondary", primary_proc.repl_port()));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
  RemoteSession session;

  std::vector<long> rss_kib;
  for (int round = 0; round < kRounds; ++round) {
    for (int row = 0; row < kRows; row += kRowsPerTxn) {
      ASSERT_TRUE(session.Begin(&primary, /*read_only=*/false).ok());
      for (int i = row; i < row + kRowsPerTxn; ++i) {
        ASSERT_TRUE(primary
                        .Put("row-" + std::to_string(i),
                             std::to_string(round) + pad)
                        .ok());
      }
      ASSERT_TRUE(session.Commit(&primary).ok());
    }
    ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
    std::this_thread::sleep_for(400ms);
    rss_kib.push_back(RssKibOf(primary_proc.pid()));
    ASSERT_GT(rss_kib.back(), 0);
  }

  std::string trace;
  for (long kib : rss_kib) trace += " " + std::to_string(kib / 1024);
  EXPECT_LE(rss_kib.back() - rss_kib[1], kSlackKib)
      << "primary RSS per round (MiB):" << trace;

  EXPECT_EQ(sec.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

/// Lowest LSN the durable log under `data_dir` still holds a segment for.
std::uint64_t OldestSegmentLsn(const std::string& data_dir) {
  std::uint64_t oldest = UINT64_MAX;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(data_dir + "/wal", ec)) {
    if (entry.path().extension() != ".seg") continue;
    oldest = std::min<std::uint64_t>(
        oldest, std::stoull(entry.path().stem().string()));
  }
  return oldest;
}

/// How long the primary holds a closed replication connection's ack floor
/// (ReplicationListener::kResumeGrace).
constexpr auto kResumeGrace = 3s;

TEST_F(ProcClusterTest, FreshSecondaryRejoinsTruncatedPrimary) {
  // A secondary dies with kill -9; writes go on until the primary's log no
  // longer reaches back to LSN 0; a fresh secondary must then join from a
  // snapshot and land on the primary's exact state. In memory, the log is
  // truncated by the primary's reclaim pass once the dead connection's
  // grace has passed; with --data-dir, by the checkpointer, a 4 MiB log
  // segment at a time.
  const std::string pad(16 << 10, 'd');
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable primary" : "in-memory primary");
    const std::string dir = testing::TempDir() + "lazysi_rejoin_" +
                            std::to_string(::getpid()) +
                            (durable ? "_durable" : "_memory");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> primary_flags;
    if (durable) {
      primary_flags = {"--data-dir=" + dir + "/data", "--fsync-mode=never",
                       "--checkpoint-interval-ms=200"};
    }
    ServerProcess primary_proc;
    ASSERT_TRUE(primary_proc.Spawn("primary", 0, 1, primary_flags));
    ServerProcess sec;
    ASSERT_TRUE(sec.Spawn("secondary", primary_proc.repl_port(), 1));

    RemoteSite primary;
    ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
    RemoteSession session;
    PutN(&primary, &session, 25, "v", 0);
    {
      RemoteSite replica;
      ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
      ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
    }
    sec.Kill9();

    // 8 MiB of overwrites (two log segments' worth), then a pause past the
    // dead connection's grace, then one more round, after which the log no
    // longer holds LSN 0: in memory once a reclaim pass has run, on disk
    // once a checkpoint dropped the first segment.
    auto overwrite_round = [&](int round) {
      for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(session.Begin(&primary, /*read_only=*/false).ok());
        ASSERT_TRUE(primary
                        .Put("big-" + std::to_string(i),
                             std::to_string(round) + pad)
                        .ok());
        ASSERT_TRUE(session.Commit(&primary).ok());
      }
    };
    for (int round = 0; round < 8; ++round) overwrite_round(round);
    std::this_thread::sleep_for(kResumeGrace + 500ms);
    overwrite_round(8);
    if (durable) {
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (OldestSegmentLsn(dir + "/data") == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the checkpointer never truncated the log";
        std::this_thread::sleep_for(20ms);
      }
    }
    // Lets the truncation that started finish, memory included.
    std::this_thread::sleep_for(500ms);

    const std::string fresh_log = dir + "/fresh.log";
    ServerProcess fresh;
    ASSERT_TRUE(fresh.Spawn("secondary", primary_proc.repl_port(), 2, {},
                            fresh_log));
    RemoteSite replica;
    ASSERT_TRUE(replica.Connect("127.0.0.1", fresh.client_port()).ok());
    ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
    auto primary_stats = primary.Stats();
    auto replica_stats = replica.Stats();
    ASSERT_TRUE(primary_stats.ok()) << primary_stats.status();
    ASSERT_TRUE(replica_stats.ok()) << replica_stats.status();
    EXPECT_EQ(replica_stats->content_hash, primary_stats->content_hash);
    EXPECT_EQ(replica_stats->applied_seq, session.seq());

    // The stream goes on from the snapshot.
    PutN(&primary, &session, 10, "after", 100);
    ASSERT_TRUE(replica.WaitSeq(session.seq()).ok());
    ASSERT_TRUE(replica.Begin(/*read_only=*/true).ok());
    auto value = replica.Get("key-109");
    ASSERT_TRUE(value.ok()) << value.status();
    EXPECT_EQ(*value, "after-109");
    EXPECT_TRUE(replica.Commit().ok());

    EXPECT_EQ(fresh.Terminate(), 0);
    EXPECT_EQ(primary_proc.Terminate(), 0);
    std::ifstream log(fresh_log);
    const std::string text((std::istreambuf_iterator<char>(log)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("installed a snapshot"), std::string::npos) << text;
    std::filesystem::remove_all(dir);
  }
}

/// Loads `rows` 1 KiB rows into the primary the way bench/e2e does: four
/// connections, each a contiguous share of the rows in transactions of 256
/// Puts. Returns the last commit's primary timestamp.
Timestamp BulkLoad(std::uint16_t primary_port, int rows) {
  constexpr int kConns = 4;
  constexpr int kPutsPerTxn = 256;
  std::vector<Timestamp> last(kConns, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      RemoteSite site;
      ASSERT_TRUE(site.Connect("127.0.0.1", primary_port).ok());
      const int lo = rows / kConns * c;
      const int hi = c + 1 == kConns ? rows : rows / kConns * (c + 1);
      for (int first = lo; first < hi; first += kPutsPerTxn) {
        ASSERT_TRUE(site.Begin(/*read_only=*/false).ok());
        for (int row = first; row < std::min(first + kPutsPerTxn, hi); ++row) {
          char key[16];
          std::snprintf(key, sizeof(key), "k%08d", row);
          ASSERT_TRUE(
              site.Put(key, std::string(1024, static_cast<char>('a' + row % 26)))
                  .ok());
        }
        auto commit = site.Commit();
        ASSERT_TRUE(commit.ok()) << commit.status();
        last[c] = std::max(last[c], *commit);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return *std::max_element(last.begin(), last.end());
}

/// Waits until the site at `port` has applied `seq` (WaitSeq gives up after
/// the server's read-block timeout, so it is retried up to 60 s).
void WaitApplied(std::uint16_t port, Timestamp seq) {
  RemoteSite site;
  ASSERT_TRUE(site.Connect("127.0.0.1", port).ok());
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!site.WaitSeq(seq).ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "site never applied seq " << seq;
  }
}

TEST_F(ProcClusterTest, PrimaryRssTracksSecondariesAfterBulkLoad) {
  // Every site holds the same 32 MiB of rows. A primary that also kept a
  // copy of each value per log record and per queued commit freed those
  // copies only after they had been laid down between the live versions,
  // and carried the scattered free space as resident memory: 1.2x a
  // secondary. Sharing one buffer per value leaves nothing to scatter.
  constexpr int kRows = 32 * 1024;
  constexpr double kMaxRatio = 1.10;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS is the sanitizer allocator's, not the server's";
#endif
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess sec1;
  ServerProcess sec2;
  ASSERT_TRUE(sec1.Spawn("secondary", primary_proc.repl_port(), 1));
  ASSERT_TRUE(sec2.Spawn("secondary", primary_proc.repl_port(), 2));

  const Timestamp last = BulkLoad(primary_proc.client_port(), kRows);
  ASSERT_GT(last, 0u);
  WaitApplied(sec1.client_port(), last);
  WaitApplied(sec2.client_port(), last);
  // Two reclaim passes (one per 100 ms) after the catch-up.
  std::this_thread::sleep_for(300ms);

  const long primary_kib = RssKibOf(primary_proc.pid());
  const long sec1_kib = RssKibOf(sec1.pid());
  const long sec2_kib = RssKibOf(sec2.pid());
  ASSERT_GT(primary_kib, 0);
  ASSERT_GT(sec1_kib, 0);
  ASSERT_GT(sec2_kib, 0);
  const double mean_secondary_kib = (sec1_kib + sec2_kib) / 2.0;
  EXPECT_LE(primary_kib, kMaxRatio * mean_secondary_kib)
      << "VmRSS KiB: primary " << primary_kib << ", secondaries " << sec1_kib
      << " and " << sec2_kib;

  EXPECT_EQ(sec1.Terminate(), 0);
  EXPECT_EQ(sec2.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

TEST_F(ProcClusterTest, SnapshotJoinPeaksNearReplayJoin) {
  // One secondary follows a 32 MiB load as it streams in; a second joins
  // after the in-memory primary truncated its log, so it installs a
  // snapshot. Staged rows share their decoded buffers with the staging
  // write set, the secondary's log and its store, so the snapshot join
  // peaks near the streamed one instead of at twice the data.
  constexpr int kRows = 32 * 1024;
  constexpr double kMaxRatio = 1.3;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS is the sanitizer allocator's, not the server's";
#endif
  const std::string dir = testing::TempDir() + "lazysi_snapshot_peak_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));
  ServerProcess streamed;
  ASSERT_TRUE(streamed.Spawn("secondary", primary_proc.repl_port(), 1));

  const Timestamp last = BulkLoad(primary_proc.client_port(), kRows);
  ASSERT_GT(last, 0u);
  WaitApplied(streamed.client_port(), last);
  // Reclaim passes truncate the log behind the only secondary's acks.
  std::this_thread::sleep_for(500ms);

  const std::string log_path = dir + "/joined.log";
  ServerProcess joined;
  ASSERT_TRUE(
      joined.Spawn("secondary", primary_proc.repl_port(), 2, {}, log_path));
  WaitApplied(joined.client_port(), last);
  std::this_thread::sleep_for(300ms);

  const long streamed_hwm = StatusKibOf(streamed.pid(), "VmHWM:");
  const long joined_hwm = StatusKibOf(joined.pid(), "VmHWM:");
  ASSERT_GT(streamed_hwm, 0);
  ASSERT_GT(joined_hwm, 0);
  EXPECT_LE(joined_hwm, kMaxRatio * streamed_hwm)
      << "VmHWM KiB: snapshot join " << joined_hwm << ", streamed "
      << streamed_hwm;

  RemoteSite primary;
  RemoteSite replica;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  ASSERT_TRUE(replica.Connect("127.0.0.1", joined.client_port()).ok());
  auto primary_stats = primary.Stats();
  auto replica_stats = replica.Stats();
  ASSERT_TRUE(primary_stats.ok()) << primary_stats.status();
  ASSERT_TRUE(replica_stats.ok()) << replica_stats.status();
  EXPECT_EQ(replica_stats->content_hash, primary_stats->content_hash);

  EXPECT_EQ(joined.Terminate(), 0);
  EXPECT_EQ(streamed.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
  std::ifstream log(log_path);
  const std::string text((std::istreambuf_iterator<char>(log)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("installed a snapshot"), std::string::npos) << text;
  std::filesystem::remove_all(dir);
}

TEST_F(ProcClusterTest, SessionBeginBlocksUntilSecondaryCatchesUp) {
  ServerProcess primary_proc;
  ASSERT_TRUE(primary_proc.Spawn("primary"));

  RemoteSite primary;
  ASSERT_TRUE(primary.Connect("127.0.0.1", primary_proc.client_port()).ok());
  RemoteSession session;
  PutN(&primary, &session, 40, "v");

  // Start the secondary only after the updates exist: its first snapshot
  // trails the session, so the session's Begin must block on WaitForSeq
  // until the installed prefix (the primary's snapshot or a log replay,
  // whichever the primary's log allows) reaches seq(c) — not return a stale
  // snapshot.
  ServerProcess sec;
  ASSERT_TRUE(sec.Spawn("secondary", primary_proc.repl_port()));
  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", sec.client_port()).ok());
  auto prefix = session.Begin(&replica, /*read_only=*/true);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_GE(*prefix, session.seq());
  auto value = replica.Get("key-39");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v-39");
  EXPECT_TRUE(replica.Commit().ok());

  EXPECT_EQ(sec.Terminate(), 0);
  EXPECT_EQ(primary_proc.Terminate(), 0);
}

}  // namespace
}  // namespace system
}  // namespace lazysi
