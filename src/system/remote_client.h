#ifndef LAZYSI_SYSTEM_REMOTE_CLIENT_H_
#define LAZYSI_SYSTEM_REMOTE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "net/framed_socket.h"

namespace lazysi {
namespace system {

/// Client-side stub of the wire API (wire_api.h): one TCP connection to one
/// site server, at most one transaction in flight. Not thread-safe — one
/// client session drives one stub at a time, mirroring the paper's
/// one-connection-per-client workload model.
///
/// Writes are pipelined: Put and Delete queue their request on the stub
/// instead of waiting for a reply, and the next call that needs an answer
/// sends the queue and its own request together, in one send. A bulk load
/// of N Puts therefore costs about N / wire_api::kMaxPipelinedWrites round
/// trips instead of N.
class RemoteSite {
 public:
  /// Every protocol step is bounded: connects time out and retry with
  /// jittered exponential backoff up to max_attempts; each send and each
  /// reply has a deadline. Without deadlines a hung or silent peer wedges
  /// the client forever — with them the worst case is a bounded, observable
  /// TimedOut/Unavailable.
  struct ConnectOptions {
    std::chrono::milliseconds connect_timeout{2000};
    /// Total dial attempts before Connect gives up (>= 1).
    int max_attempts = 5;
    /// Delay before the 2nd attempt; doubles per failure up to the cap,
    /// randomized to delay * (1 ± jitter) so a fleet of clients does not
    /// redial a recovering site in lock-step.
    std::chrono::milliseconds backoff_initial{50};
    std::chrono::milliseconds backoff_max{1000};
    double jitter = 0.2;
    /// Deadline for each send and each reply; 0 = wait forever. Must
    /// comfortably exceed the server's read_block_timeout (10s default) — a
    /// begin blocked on the freshness rule is the protocol working, not a
    /// hang. On expiry the call returns TimedOut and drops the connection.
    std::chrono::milliseconds op_timeout{30000};
  };

  RemoteSite() = default;

  /// Dials the site's client port (bounded retry per `options`). Discards
  /// any writes still queued on the previous connection.
  Status Connect(const std::string& host, std::uint16_t port,
                 const ConnectOptions& options);
  Status Connect(const std::string& host, std::uint16_t port) {
    return Connect(host, port, ConnectOptions());
  }
  bool connected() const { return sock_ != nullptr && sock_->valid(); }
  /// Closes the connection and discards the queued writes unsent; the
  /// server aborts the open transaction.
  void Disconnect() { Drop(); }

  /// Begins a transaction; `min_seq` is the session's seq(c) — a secondary
  /// blocks until it has applied that prefix (ALG-STRONG-SESSION-SI).
  /// Returns the snapshot's primary-coordinate prefix.
  Result<Timestamp> Begin(bool read_only, Timestamp min_seq = 0);
  Result<std::string> Get(const std::string& key);

  /// Put and Delete queue the write and return OK without waiting for the
  /// server; they return Unavailable when the stub is not connected. The
  /// write's own outcome is deferred: the next Begin, Get, Scan, WaitSeq,
  /// Stats or Commit that reads the reply returns the first failed queued
  /// write's status in place of its own result (Abort discards it). When
  /// wire_api::kMaxPipelinedWrites are queued the write settles the queue
  /// itself, and then returns TimedOut/Unavailable if the connection fails
  /// doing so.
  /// Reads in the same transaction see every earlier write: a request
  /// always travels behind the writes queued before it.
  Status Put(const std::string& key, const std::string& value);
  Status Delete(const std::string& key);
  Result<std::vector<std::pair<std::string, std::string>>> Scan(
      const std::string& begin, const std::string& end);
  /// Returns the commit's primary timestamp (the session's new seq(c));
  /// 0 for read-only commits. Settles the queued writes first and sends
  /// COMMIT only if all of them succeeded; otherwise returns the first
  /// failure and leaves the transaction open — call Abort.
  Result<Timestamp> Commit();
  /// Sends ABORT behind the queued writes and discards any deferred write
  /// failure: it belonged to the transaction being aborted.
  Status Abort();
  /// Blocks until the site has applied `seq` (no-op at the primary).
  Status WaitSeq(Timestamp seq);

  struct SiteStats {
    std::uint64_t role = 0;  // wire_api::kRolePrimary / kRoleSecondary
    Timestamp applied_seq = 0;
    Timestamp latest_commit_ts = 0;
    /// Order-independent hash of the site's committed state (equal hashes
    /// across sites == equal materialized databases).
    std::uint64_t content_hash = 0;
    /// Replication-wire counters of the site's stream endpoint: a primary
    /// reports the outbound (sent) direction, a secondary the inbound
    /// (received) one. `connections` is accepted connections on a primary,
    /// reconnects on a secondary.
    std::uint64_t wire_frames = 0;
    std::uint64_t wire_batch_frames = 0;
    std::uint64_t wire_records = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t wire_writev_calls = 0;
    std::uint64_t wire_flushes = 0;
    std::uint64_t wire_backpressure_stalls = 0;
    std::uint64_t wire_connections = 0;
  };
  Result<SiteStats> Stats();

 private:
  /// Queues one write request; settles the queue once it is full.
  Status QueueWrite(const std::string& request);
  /// Sends the queued writes, followed by `request` unless it is null, in
  /// one send; reads the writes' replies (the first failure lands in
  /// write_error_) and then the request's own into *reply. Returns the
  /// transport status: a failure has dropped the connection.
  Status Exchange(const std::string* request, std::string* reply);
  Status Settle() { return Exchange(nullptr, nullptr); }
  /// Exchange for one request; fills *reply (status already consumed) and
  /// *offset with the payload start. Returns the request's own status, or
  /// the transport failure.
  Status RoundTrip(const std::string& request, std::string* reply,
                   std::size_t* offset);
  /// RoundTrip, with a deferred write failure reported in place of the
  /// request's own status.
  Status Call(const std::string& request, std::string* reply,
              std::size_t* offset);
  /// Returns and clears the deferred write failure.
  Status TakeWriteError();
  /// Closes the connection and forgets everything queued on it.
  void Drop();

  std::unique_ptr<net::FramedSocket> sock_;
  ConnectOptions options_;
  Rng rng_{0xc11e47d1a1};
  std::string queued_;  // framed write requests, not yet sent
  std::size_t queued_writes_ = 0;
  Status write_error_;  // first failed settled write, not yet reported
};

/// A client session roaming across sites (Section 4): tracks seq(c) — the
/// commit timestamp of the session's latest update transaction — and feeds
/// it into every Begin so strong session SI holds wherever the read lands.
class RemoteSession {
 public:
  Timestamp seq() const { return seq_; }
  void ObserveCommit(Timestamp commit_seq) {
    if (commit_seq > seq_) seq_ = commit_seq;
  }
  Result<Timestamp> Begin(RemoteSite* site, bool read_only) {
    return site->Begin(read_only, seq_);
  }
  Result<Timestamp> Commit(RemoteSite* site) {
    auto seq = site->Commit();
    if (seq.ok()) ObserveCommit(*seq);
    return seq;
  }

 private:
  Timestamp seq_ = 0;
};

}  // namespace system
}  // namespace lazysi

#endif  // LAZYSI_SYSTEM_REMOTE_CLIENT_H_
