#ifndef LAZYSI_SYSTEM_SITE_SERVER_H_
#define LAZYSI_SYSTEM_SITE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/stats.h"
#include "common/status.h"
#include "engine/checkpointer.h"
#include "engine/database.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/framed_socket.h"
#include "replication/primary.h"
#include "replication/secondary.h"
#include "replication/tcp_replication.h"

namespace lazysi {
namespace system {

/// One site of the lazy-master architecture as a network server: a primary
/// (database + propagator + replication listener) or a secondary (database +
/// refresh machinery + replication receiver dialing the primary), each also
/// serving the client wire API (wire_api.h) on its own port. This is the
/// process-per-site deployment shape of Figure 1 — lazysi_server wraps one
/// of these per process, and scripts/run_cluster.sh starts a fleet.
///
/// All of the site's sockets — the replication stream and every client
/// connection — are registered on one shared net::EventLoop; requests are
/// executed by a small fixed worker pool (client begins may legitimately
/// block on the freshness rule, so they cannot run on the loop thread). The
/// process's I/O thread count is therefore O(1) in the number of
/// connections: loop + workers + the replication attach worker, regardless
/// of how many clients or secondaries attach.
///
/// Memory: every kReclaimInterval a loop timer queues one reclaim pass on
/// the worker pool (no thread of its own). A secondary truncates its whole
/// logical log, which nothing in this deployment reads, and drops the
/// local->primary timestamp translations below its oldest open reader. An
/// in-memory primary truncates its log below the sync point its secondaries
/// still need to resync (ReplicationListener::MinAckFloor); a fresh
/// secondary joins from a snapshot instead of a replay from LSN 0. A
/// durable primary's log is truncated by its checkpointer only. Every site
/// prunes the versions no open snapshot can see (Database::GarbageCollect),
/// and a pass that freed anything hands free heap pages back to the kernel.
class SiteServer {
 public:
  enum class Role { kPrimary, kSecondary };

  struct Options {
    Role role = Role::kPrimary;
    SiteId site_id = kPrimarySiteId;
    std::string host = "127.0.0.1";
    /// Client wire-API port; 0 = ephemeral (see client_port()).
    std::uint16_t client_port = 0;
    /// Primary only: replication stream port; 0 = ephemeral (repl_port()).
    std::uint16_t repl_port = 0;
    /// Secondary only: where the primary's replication listener lives.
    std::string primary_host = "127.0.0.1";
    std::uint16_t primary_repl_port = 0;
    /// Bound on the ALG-STRONG-SESSION-SI begin block (Section 4).
    std::chrono::milliseconds read_block_timeout{10000};
    /// Primary only: data directory for the durable commit log + periodic
    /// checkpoints. Empty = in-memory only (acks never touch disk). When
    /// set, Start() restores the database from the directory's checkpoint +
    /// log suffix, seeds the propagator at the truncated log's base so
    /// reconnecting secondaries can resync by record seq, and gates every
    /// commit ack on the flushed-LSN watermark.
    std::string data_dir;
    /// "always" | "group" | "never" (DurableLog::FsyncMode).
    std::string fsync_mode = "group";
    std::chrono::microseconds group_flush_interval{0};
    std::size_t max_group_bytes = 1 << 20;
    /// Checkpoint-and-truncate cadence; 0 = no background checkpoints.
    std::chrono::milliseconds checkpoint_interval{0};
    /// Request-execution pool width. A worker is held for the duration of
    /// one request, including a begin/wait blocked on the freshness rule,
    /// so this bounds the number of concurrently *blocked* clients, not
    /// just concurrently computing ones.
    std::size_t worker_threads = 4;
    /// Propagation-wire batching knobs (primary only; see
    /// ReplicationListener::Options).
    std::size_t max_batch_records = 128;
    std::size_t max_batch_bytes = 256 * 1024;
    std::chrono::milliseconds batch_flush_interval{0};
    std::size_t max_output_bytes = 1 << 20;
    /// Per-client bound on queued-but-unserved request frames: at or above
    /// it the server stops reading that connection (EPOLLIN disarmed, TCP
    /// backpressures the client), resuming once the workers drain the queue
    /// to half — the read-side counterpart of max_output_bytes, so a client
    /// pipelining faster than the worker pool cannot buffer unboundedly.
    /// The default is at least twice RemoteSite's write window
    /// (wire_api::kMaxPipelinedWrites), so a pipelining client's writes
    /// never trip it.
    std::size_t max_pending_requests = 256;
  };

  /// Role-neutral wire counters of the site's replication endpoint, shipped
  /// in the kOpStats reply next to the state ContentHash. On a primary they
  /// describe the outbound propagation stream (sent); on a secondary the
  /// inbound one (received).
  struct WireStats {
    std::uint64_t frames = 0;  // BATCH frames sent / received
    std::uint64_t batch_frames = 0;  // == frames; kept for the stats wire
    std::uint64_t records = 0;  // streamed / delivered
    std::uint64_t bytes = 0;
    std::uint64_t writev_calls = 0;         // primary flush syscalls
    std::uint64_t flushes = 0;              // full-drain flushes
    std::uint64_t backpressure_stalls = 0;  // primary pump pauses
    std::uint64_t connections = 0;          // accepted / reconnects
  };

  /// Counters of the periodic reclaim pass. A tick that finds the commit
  /// watermark and the oldest active snapshot where the last pass left them
  /// has nothing new to free; it is skipped and not counted.
  struct ReclaimStats {
    std::uint64_t passes = 0;
    std::uint64_t log_records_dropped = 0;  // own log truncation
    std::uint64_t versions_pruned = 0;
    std::uint64_t trims = 0;  // passes that returned free pages (malloc_trim)
    double pass_p50_us = 0;   // pass duration, trim included
    double pass_max_us = 0;
  };

  /// Period of the reclaim pass.
  static constexpr std::chrono::milliseconds kReclaimInterval{100};

  explicit SiteServer(Options options);
  ~SiteServer();

  SiteServer(const SiteServer&) = delete;
  SiteServer& operator=(const SiteServer&) = delete;

  Status Start();
  void Stop();

  std::uint16_t client_port() const { return client_port_; }
  /// Primary only; 0 on secondaries.
  std::uint16_t repl_port() const;

  engine::Database* db() { return &db_; }
  /// Null unless this is a primary with a data_dir.
  wal::DurableLog* durable_log() { return durable_log_.get(); }
  engine::Checkpointer* checkpointer() { return checkpointer_.get(); }
  /// Null unless this is a secondary.
  replication::Secondary* secondary() { return secondary_.get(); }
  /// What Start() restored from the data directory.
  const engine::Database::RestoreReport& restore_report() const {
    return restore_report_;
  }
  WireStats wire_stats() const;
  /// How many times a client connection's reads were paused because its
  /// pending-request queue hit Options::max_pending_requests.
  std::uint64_t read_pauses() const {
    return read_pauses_.load(std::memory_order_relaxed);
  }
  ReclaimStats reclaim_stats() const;

 private:
  struct ClientConn {
    std::shared_ptr<net::Connection> nc;
    net::TcpFramer framer;  // loop thread only

    std::mutex mu;
    std::deque<std::string> pending;  // complete request frames, in order
    bool running = false;             // a worker is draining this connection
    bool closed = false;
    bool read_paused = false;  // EPOLLIN disarmed: pending hit the cap

    /// The connection's at-most-one in-flight transaction. Touched only by
    /// the worker currently draining the connection (`running` serializes).
    std::unique_ptr<txn::Transaction> txn;
  };

  void OnClientAcceptable();
  void OnClientBytes(const std::shared_ptr<ClientConn>& conn,
                     std::string_view bytes);
  void OnClientClosed(const std::shared_ptr<ClientConn>& conn);
  /// Worker task: drains the connection's pending requests in order, one
  /// worker at a time per connection, coalescing the burst's replies into
  /// one write; aborts the in-flight transaction once the connection is
  /// closed and drained.
  void PumpClient(const std::shared_ptr<ClientConn>& conn);
  /// True for requests that can park the worker: begin/wait at a secondary
  /// (the freshness rule) and commit at a durable primary (the fsync).
  bool MayBlock(const std::string& request) const;
  /// Builds the reply frame for one request. `txn` is the connection's
  /// at-most-one in-flight transaction.
  std::string HandleRequest(const std::string& request,
                            std::unique_ptr<txn::Transaction>* txn);
  /// Arms the loop timer that queues the next reclaim pass.
  void ScheduleReclaim();
  /// One reclaim pass (see the class comment); worker thread, one at a time.
  void Reclaim();

  Options options_;
  engine::Database db_;

  // Exactly one of the two role bundles is populated.
  std::unique_ptr<replication::Primary> primary_;
  std::unique_ptr<replication::ReplicationListener> repl_listener_;
  /// Primary durability (only with Options::data_dir).
  std::unique_ptr<wal::DurableLog> durable_log_;
  std::unique_ptr<engine::Checkpointer> checkpointer_;
  engine::Database::RestoreReport restore_report_;
  std::unique_ptr<replication::Secondary> secondary_;
  std::unique_ptr<replication::ReplicationReceiver> repl_receiver_;

  /// The site's one reactor: replication stream + every client connection.
  std::unique_ptr<net::EventLoop> loop_;
  std::vector<std::thread> workers_;
  BlockingQueue<std::function<void()>> work_q_;

  int client_listen_fd_ = -1;
  std::uint16_t client_port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> read_pauses_{0};
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<ClientConn>> conns_;

  /// Commit watermark, oldest active snapshot and (in-memory primary) log
  /// floor the last reclaim pass saw; touched only by the pass.
  Timestamp reclaim_seen_commit_ = kInvalidTimestamp;
  Timestamp reclaim_seen_min_active_ = kInvalidTimestamp;
  std::uint64_t reclaim_seen_log_floor_ = 0;
  mutable std::mutex reclaim_mu_;  // guards the two below
  ReclaimStats reclaim_;
  Histogram reclaim_pass_us_{0, 2000, 400};
};

}  // namespace system
}  // namespace lazysi

#endif  // LAZYSI_SYSTEM_SITE_SERVER_H_
