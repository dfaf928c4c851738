#include "system/site_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <string>
#include <utility>

#include "common/logging.h"
#include "system/wire_api.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace lazysi {
namespace system {

namespace {

using namespace wire_api;

/// A pump writes its coalesced replies once they reach this size, even
/// mid-burst.
constexpr std::size_t kMaxCoalescedReplyBytes = 64 * 1024;

// A client's full write window must never trip the default read pause.
static_assert(2 * kMaxPipelinedWrites <=
              SiteServer::Options{}.max_pending_requests);

/// Heap bytes in use, in KiB: what malloc handed out and has not had back
/// (glibc only; -1 elsewhere).
long HeapInUseKib() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<long>((info.uordblks + info.hblkhd) / 1024);
#else
  return -1;
#endif
}

/// This process's resident set in KiB, from /proc/self/status; -1 when it
/// cannot be read.
long VmRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stol(line.substr(sizeof("VmRSS:") - 1));
    }
  }
  return -1;
}

engine::DatabaseOptions DbOptionsFor(const SiteServer::Options& options) {
  engine::DatabaseOptions db;
  db.site_id = options.site_id;
  db.name = options.role == SiteServer::Role::kPrimary
                ? "primary"
                : "secondary-" + std::to_string(options.site_id);
  // Nothing in a server reads the per-commit chain history, and it would
  // grow by one entry per update commit for the life of the process.
  db.record_state_chain = false;
  return db;
}

}  // namespace

SiteServer::SiteServer(Options options)
    : options_(std::move(options)), db_(DbOptionsFor(options_)) {
  if (options_.max_pending_requests == 0) options_.max_pending_requests = 1;
}

SiteServer::~SiteServer() { Stop(); }

std::uint16_t SiteServer::repl_port() const {
  return repl_listener_ ? repl_listener_->port() : 0;
}

Status SiteServer::Start() {
  if (started_) return Status::FailedPrecondition("site server started twice");
  started_ = true;
  // One reactor for the whole site: the replication endpoint and every
  // client connection register here, so the process's I/O thread count does
  // not grow with either fleet size or client count.
  loop_ = std::make_unique<net::EventLoop>();
  loop_->Start();

  if (options_.role == Role::kPrimary) {
    // Durable primary: restore the database from the data directory before
    // the propagator exists, then seed the propagator at the truncated log's
    // base — it re-consumes the restored suffix, regenerating the exact
    // stream numbering the pre-restart process used, so a reconnecting
    // secondary's HELLO { expected_seq } resyncs at a sync point at or below
    // its position and dedups the overlap.
    std::uint64_t base_lsn = 0;
    std::uint64_t base_seq = 0;
    if (!options_.data_dir.empty()) {
      wal::DurableLog::Options lopts;
      if (!wal::ParseFsyncMode(options_.fsync_mode, &lopts.fsync_mode)) {
        return Status::InvalidArgument("unknown fsync mode '" +
                                       options_.fsync_mode + "'");
      }
      lopts.group_flush_interval = options_.group_flush_interval;
      lopts.max_group_bytes = options_.max_group_bytes;
      auto state = engine::OpenDataDir(&db_, options_.data_dir, lopts);
      if (!state.ok()) return state.status();
      durable_log_ = std::move(state->durable);
      restore_report_ = state->report;
      base_lsn = state->base_lsn;
      base_seq = state->base_record_seq;
      if (state->had_state) {
        LAZYSI_INFO("primary restored from '" << options_.data_dir << "': "
                    << restore_report_.records_replayed << " records, "
                    << restore_report_.commits_applied << " commits, "
                    << restore_report_.unresolved_aborted
                    << " unresolved aborted, visible ts "
                    << restore_report_.restored_visible);
      }
    }
    replication::PropagatorOptions popts;
    if (!options_.data_dir.empty()) {
      // Durability read barrier: replication stays behind the flushed-LSN
      // watermark, so no record reaches a secondary before it reaches disk.
      popts.read_limit = [this]() -> std::size_t {
        wal::DurableLog* durable = db_.durable();
        return durable != nullptr
                   ? static_cast<std::size_t>(durable->flushed_end())
                   : SIZE_MAX;
      };
    }
    primary_ = std::make_unique<replication::Primary>(&db_, popts);
    if (durable_log_) {
      primary_->propagator()->SeedForRecovery(base_lsn, base_seq);
    }
    replication::ReplicationListener::Options lo;
    lo.host = options_.host;
    lo.port = options_.repl_port;
    lo.loop = loop_.get();
    lo.max_batch_records = options_.max_batch_records;
    lo.max_batch_bytes = options_.max_batch_bytes;
    lo.batch_flush_interval = options_.batch_flush_interval;
    lo.max_output_bytes = options_.max_output_bytes;
    repl_listener_ = std::make_unique<replication::ReplicationListener>(
        primary_.get(), lo);
    LAZYSI_RETURN_NOT_OK(repl_listener_->Start());
    primary_->Start();
    if (durable_log_) {
      engine::Checkpointer::Options copts;
      copts.data_dir = options_.data_dir;
      copts.interval = options_.checkpoint_interval;
      // Truncation floor: never beyond what the propagator has consumed,
      // and held back by the least-acked connected secondary (its next
      // resync replays from a sync point at or below its ack).
      copts.log_floor = [this] {
        return std::min<std::uint64_t>(primary_->propagator()->position(),
                                       repl_listener_->MinAckFloor());
      };
      checkpointer_ = std::make_unique<engine::Checkpointer>(
          &db_, durable_log_.get(), copts);
      checkpointer_->Start();
    }
  } else {
    secondary_ = std::make_unique<replication::Secondary>(&db_);
    replication::ReplicationReceiver::Options ro;
    ro.primary_host = options_.primary_host;
    ro.primary_port = options_.primary_repl_port;
    ro.loop = loop_.get();
    repl_receiver_ = std::make_unique<replication::ReplicationReceiver>(
        secondary_.get(), ro);
    secondary_->Start();
    repl_receiver_->Start();
  }

  client_listen_fd_ =
      net::ListenOn(options_.host, options_.client_port,
                            &client_port_);
  if (client_listen_fd_ < 0) {
    return Status::Unavailable("site server: cannot bind client port on " +
                               options_.host);
  }
  net::SetNonBlocking(client_listen_fd_);
  loop_->RunInLoop([this] {
    loop_->AddFd(client_listen_fd_, EPOLLIN,
                 [this](std::uint32_t) { OnClientAcceptable(); });
  });

  const std::size_t workers = std::max<std::size_t>(1, options_.worker_threads);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      while (auto task = work_q_.Pop()) (*task)();
    });
  }
  ScheduleReclaim();
  return Status::OK();
}

void SiteServer::ScheduleReclaim() {
  if (stopping_.load(std::memory_order_acquire)) return;
  // The timer only queues the pass: it runs on a worker, never on the
  // reactor, and arms the next timer when done, so passes never overlap.
  // Once Stop closes the work queue the push fails and the chain ends.
  loop_->ScheduleAfter(kReclaimInterval, [this] {
    work_q_.Push([this] {
      Reclaim();
      ScheduleReclaim();
    });
  });
}

void SiteServer::Reclaim() {
  // With none of these values moved, the last pass already dropped every
  // log record and version this one could. A pinned reader's release moves
  // the oldest active snapshot, so the versions it held still get a pass;
  // a secondary's ack moves an in-memory primary's log floor, so the records
  // it held are dropped even when no commit follows.
  const Timestamp latest = db_.LatestCommitTs();
  const Timestamp min_active = db_.txn_manager()->MinActiveSnapshot();
  const bool truncates_log = options_.role == Role::kPrimary && !durable_log_;
  const std::uint64_t log_floor =
      truncates_log ? repl_listener_->MinAckFloor() : 0;
  if (latest == reclaim_seen_commit_ &&
      min_active == reclaim_seen_min_active_ &&
      log_floor == reclaim_seen_log_floor_) {
    return;
  }
  reclaim_seen_commit_ = latest;
  reclaim_seen_min_active_ = min_active;
  reclaim_seen_log_floor_ = log_floor;
  const auto start = std::chrono::steady_clock::now();
  std::size_t log_dropped = 0;
  if (options_.role == Role::kSecondary) {
    // The receiver feeds the update queue straight from the wire; nothing
    // in this deployment tails a secondary's own log.
    wal::LogicalLog* log = db_.log();
    const std::size_t base = log->base_lsn();
    log->TruncateBelow(log->Size());
    log_dropped = log->base_lsn() - base;
    // Every open reader's snapshot is at or above min_active, so its
    // primary prefix is at or above this horizon and stays resolvable.
    secondary_->PruneTranslations(secondary_->PrimaryPrefixAtLocal(min_active));
  } else if (truncates_log) {
    // Only secondaries that may still resync hold the log back; a fresh
    // one joins from a snapshot.
    log_dropped = primary_->propagator()->TruncateLogBelow(
        static_cast<std::size_t>(log_floor));
  }
  const std::size_t pruned = db_.GarbageCollect();
  bool trimmed = false;
#if defined(__GLIBC__)
  // Freed records and versions go back to malloc's free lists; trimming
  // returns the whole free pages among them to the kernel.
  if (log_dropped + pruned > 0) {
    ::malloc_trim(0);
    trimmed = true;
  }
#endif
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::lock_guard<std::mutex> lock(reclaim_mu_);
  ++reclaim_.passes;
  reclaim_.log_records_dropped += log_dropped;
  reclaim_.versions_pruned += pruned;
  if (trimmed) ++reclaim_.trims;
  reclaim_.pass_max_us = std::max(reclaim_.pass_max_us, us);
  reclaim_pass_us_.Add(us);
}

SiteServer::ReclaimStats SiteServer::reclaim_stats() const {
  std::lock_guard<std::mutex> lock(reclaim_mu_);
  ReclaimStats stats = reclaim_;
  stats.pass_p50_us =
      reclaim_pass_us_.count() > 0 ? reclaim_pass_us_.Quantile(0.5) : 0;
  return stats;
}

void SiteServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (!loop_) return;
  // Stop accepting and sever every client connection on the loop. Each
  // close fires OnClientClosed inline here, which queues one final pump
  // task per connection (aborting its in-flight transaction) — all before
  // this barrier returns, so closing the work queue next loses nothing.
  loop_->PostAndWait([this] {
    if (client_listen_fd_ >= 0) {
      loop_->RemoveFd(client_listen_fd_);
      ::close(client_listen_fd_);
      client_listen_fd_ = -1;
    }
    std::vector<std::shared_ptr<ClientConn>> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns = conns_;
    }
    for (auto& conn : conns) conn->nc->Close();
  });
  work_q_.Close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  if (repl_receiver_) repl_receiver_->Stop();
  if (secondary_) secondary_->Stop();
  if (checkpointer_) checkpointer_->Stop();
  if (repl_listener_) repl_listener_->Stop();
  if (primary_) primary_->Stop();
  if (durable_log_) durable_log_->Close();
  loop_->Stop();
  const ReclaimStats reclaim = reclaim_stats();
  // Resident memory far above the heap in use is free memory scattered
  // among live blocks, which no trim can return.
  LAZYSI_INFO(db_.options().name
              << " reclaim: " << reclaim.passes << " passes (p50 "
              << reclaim.pass_p50_us << " us, max " << reclaim.pass_max_us
              << " us), " << reclaim.log_records_dropped
              << " log records dropped, " << reclaim.versions_pruned
              << " versions pruned, " << reclaim.trims << " trims; heap in use "
              << HeapInUseKib() << " KiB, VmRSS " << VmRssKib() << " KiB");
}

SiteServer::WireStats SiteServer::wire_stats() const {
  WireStats wire;
  if (repl_listener_) {
    const auto stats = repl_listener_->stats();
    wire.frames = stats.frames_sent;
    wire.batch_frames = stats.frames_sent;
    wire.records = stats.records_streamed;
    wire.bytes = stats.bytes_sent;
    wire.writev_calls = stats.writev_calls;
    wire.flushes = stats.flushes;
    wire.backpressure_stalls = stats.backpressure_stalls;
    wire.connections = stats.connections_accepted;
  } else if (repl_receiver_) {
    const auto stats = repl_receiver_->stats();
    wire.frames = stats.frames_received;
    wire.batch_frames = stats.frames_received;
    wire.records = stats.records_delivered;
    wire.bytes = stats.bytes_received;
    wire.connections = stats.reconnects;
  }
  return wire;
}

void SiteServer::OnClientAcceptable() {
  for (;;) {
    int fd;
    do {
      fd = ::accept(client_listen_fd_, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return;  // EAGAIN: drained the backlog
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    net::SetTcpNoDelay(fd);
    auto conn = std::make_shared<ClientConn>();
    std::weak_ptr<ClientConn> weak = conn;
    net::Connection::Callbacks cbs;
    cbs.on_bytes = [this, weak](net::Connection&, std::string_view bytes) {
      if (auto conn = weak.lock()) OnClientBytes(conn, bytes);
    };
    cbs.on_close = [this, weak](net::Connection&) {
      if (auto conn = weak.lock()) OnClientClosed(conn);
    };
    conn->nc = net::Connection::Adopt(loop_.get(), fd,
                                      net::Connection::Options{}, cbs);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
  }
}

void SiteServer::OnClientBytes(const std::shared_ptr<ClientConn>& conn,
                               std::string_view bytes) {
  if (!conn->framer.Feed(bytes)) {
    conn->nc->Close();
    return;
  }
  bool added = false;
  bool pause = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (auto frame = conn->framer.Next()) {
      conn->pending.push_back(std::move(*frame));
      added = true;
    }
    // Read-side backpressure: a client pipelining faster than the worker
    // pool drains gets its reads parked (TCP then throttles it) instead of
    // growing `pending` without bound. PumpClient re-arms at half the cap.
    if (!conn->read_paused &&
        conn->pending.size() >= options_.max_pending_requests) {
      conn->read_paused = true;
      pause = true;
    }
  }
  if (pause) {
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
    conn->nc->PauseReads(true);
  }
  if (conn->framer.poisoned()) {
    conn->nc->Close();
    // Fall through: frames decoded before the poison still get answered.
  }
  if (!added) return;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->running) {
      conn->running = true;
      schedule = true;
    }
  }
  if (schedule) work_q_.Push([this, conn] { PumpClient(conn); });
}

void SiteServer::OnClientClosed(const std::shared_ptr<ClientConn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (it->get() == conn.get()) {
        conns_.erase(it);
        break;
      }
    }
  }
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    if (!conn->running) {
      conn->running = true;
      schedule = true;
    }
  }
  // One final pump aborts the in-flight transaction once the queue drains
  // (SI: nothing the transaction wrote was installed).
  if (schedule) work_q_.Push([this, conn] { PumpClient(conn); });
}

bool SiteServer::MayBlock(const std::string& request) const {
  if (request.empty()) return false;
  switch (request[0]) {
    case kOpBegin:
    case kOpWaitSeq:
      return options_.role == Role::kSecondary;  // the freshness rule
    case kOpCommit:
      return durable_log_ != nullptr;  // the ack waits for the fsync
    default:
      return false;
  }
}

void SiteServer::PumpClient(const std::shared_ptr<ClientConn>& conn) {
  // Replies to one drained burst go out as one Connection::Write. They are
  // written early at kMaxCoalescedReplyBytes, and before any request that
  // can block, so a parked begin never holds earlier replies back.
  std::string replies;
  auto flush = [&] {
    conn->nc->Write(std::move(replies));
    replies.clear();
  };
  for (;;) {
    std::string request;
    bool have = false;
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->pending.empty()) {
        request = std::move(conn->pending.front());
        conn->pending.pop_front();
        have = true;
        if (conn->read_paused &&
            conn->pending.size() <= options_.max_pending_requests / 2) {
          conn->read_paused = false;
          resume = true;
        }
      } else if (!conn->closed && replies.empty()) {
        conn->running = false;
        return;
      }
    }
    if (resume) conn->nc->PauseReads(false);
    if (!have && !replies.empty()) {
      // Burst drained. Write while still `running`, so the next worker to
      // pump this connection cannot overtake these replies; then look for
      // requests that arrived meanwhile.
      flush();
      continue;
    }
    if (!have) {
      // Closed and drained: connection gone mid-transaction, abandon it.
      if (conn->txn) {
        conn->txn->Abort();
        conn->txn.reset();
      }
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->running = false;
      return;
    }
    if (!replies.empty() && MayBlock(request)) flush();
    net::AppendTcpFrame(&replies, HandleRequest(request, &conn->txn));
    if (replies.size() >= kMaxCoalescedReplyBytes) flush();
  }
}

std::string SiteServer::HandleRequest(
    const std::string& request, std::unique_ptr<txn::Transaction>* txn) {
  std::string reply;
  if (request.empty()) {
    PutStatus(&reply, Status::InvalidArgument("empty request"));
    return reply;
  }
  const char op = request[0];
  std::size_t off = 1;
  switch (op) {
    case kOpBegin: {
      std::uint64_t min_seq = 0;
      off = 2;
      if (request.size() < 2 ||
          !replication::GetVarint(request, &off, &min_seq)) {
        PutStatus(&reply, Status::InvalidArgument("malformed begin"));
        return reply;
      }
      const bool read_only = request[1] != 0;
      if (*txn) {
        PutStatus(&reply,
                  Status::FailedPrecondition("transaction already open"));
        return reply;
      }
      if (options_.role == Role::kSecondary) {
        if (!read_only) {
          // Lazy master: all update transactions execute at the primary.
          PutStatus(&reply, Status::FailedPrecondition(
                                "updates execute at the primary"));
          return reply;
        }
        // ALG-STRONG-SESSION-SI blocking rule: do not start while
        // seq(c) > seq(DBsec).
        if (min_seq > 0 &&
            !secondary_->WaitForSeq(min_seq, options_.read_block_timeout)) {
          PutStatus(&reply,
                    Status::TimedOut("secondary lagging behind session"));
          return reply;
        }
        *txn = db_.Begin(/*read_only=*/true);
        PutStatus(&reply, Status::OK());
        replication::PutVarint(
            &reply, secondary_->PrimaryPrefixAtLocal((*txn)->snapshot_ts()));
      } else {
        *txn = db_.Begin(read_only);
        PutStatus(&reply, Status::OK());
        // Primary snapshots are already in primary timestamp coordinates.
        replication::PutVarint(&reply, (*txn)->snapshot_ts());
      }
      return reply;
    }
    case kOpGet: {
      std::string key;
      if (!GetString(request, &off, &key)) {
        PutStatus(&reply, Status::InvalidArgument("malformed get"));
        return reply;
      }
      if (!*txn) {
        PutStatus(&reply, Status::FailedPrecondition("no open transaction"));
        return reply;
      }
      auto value = (*txn)->Get(key);
      PutStatus(&reply, value.ok() ? Status::OK() : value.status());
      if (value.ok()) PutString(&reply, *value);
      return reply;
    }
    case kOpPut: {
      std::string key;
      storage::Value value;
      if (!GetString(request, &off, &key) ||
          !GetString(request, &off, &value)) {
        PutStatus(&reply, Status::InvalidArgument("malformed put"));
        return reply;
      }
      PutStatus(&reply, *txn ? (*txn)->Put(key, std::move(value))
                             : Status::FailedPrecondition(
                                   "no open transaction"));
      return reply;
    }
    case kOpDelete: {
      std::string key;
      if (!GetString(request, &off, &key)) {
        PutStatus(&reply, Status::InvalidArgument("malformed delete"));
        return reply;
      }
      PutStatus(&reply, *txn ? (*txn)->Delete(key)
                             : Status::FailedPrecondition(
                                   "no open transaction"));
      return reply;
    }
    case kOpScan: {
      std::string begin;
      std::string end;
      if (!GetString(request, &off, &begin) ||
          !GetString(request, &off, &end)) {
        PutStatus(&reply, Status::InvalidArgument("malformed scan"));
        return reply;
      }
      if (!*txn) {
        PutStatus(&reply, Status::FailedPrecondition("no open transaction"));
        return reply;
      }
      auto rows = (*txn)->Scan(begin, end);
      PutStatus(&reply, rows.ok() ? Status::OK() : rows.status());
      if (rows.ok()) {
        replication::PutVarint(&reply, rows->size());
        for (const auto& [key, value] : *rows) {
          PutString(&reply, key);
          PutString(&reply, value);
        }
      }
      return reply;
    }
    case kOpCommit: {
      if (!*txn) {
        PutStatus(&reply, Status::FailedPrecondition("no open transaction"));
        return reply;
      }
      const Status status = (*txn)->Commit();
      // commit_seq in primary coordinates: the session's new seq(c) after an
      // update commit. Read-only commits report 0 (seq(c) unchanged).
      const Timestamp seq =
          status.ok() && !(*txn)->read_only() ? (*txn)->commit_ts() : 0;
      txn->reset();
      PutStatus(&reply, status);
      if (status.ok()) replication::PutVarint(&reply, seq);
      return reply;
    }
    case kOpAbort: {
      if (*txn) (*txn)->Abort();
      txn->reset();
      PutStatus(&reply, Status::OK());
      return reply;
    }
    case kOpWaitSeq: {
      std::uint64_t seq = 0;
      if (!replication::GetVarint(request, &off, &seq)) {
        PutStatus(&reply, Status::InvalidArgument("malformed wait"));
        return reply;
      }
      if (options_.role == Role::kPrimary) {
        PutStatus(&reply, Status::OK());  // the primary is never stale
      } else {
        PutStatus(&reply,
                  secondary_->WaitForSeq(seq, options_.read_block_timeout)
                      ? Status::OK()
                      : Status::TimedOut("secondary lagging"));
      }
      return reply;
    }
    case kOpStats: {
      PutStatus(&reply, Status::OK());
      if (options_.role == Role::kPrimary) {
        replication::PutVarint(&reply, kRolePrimary);
        replication::PutVarint(&reply, db_.LatestCommitTs());
      } else {
        replication::PutVarint(&reply, kRoleSecondary);
        replication::PutVarint(&reply, secondary_->applied_seq());
      }
      replication::PutVarint(&reply, db_.LatestCommitTs());
      // Order-independent hash of the committed state, for cross-site and
      // cross-restart equality checks.
      replication::PutVarint(&reply, db_.ContentHash());
      // Replication-wire counters ride along with the hash: frames,
      // batch frames, records, bytes, writev calls, full-drain flushes,
      // backpressure stalls, connections/reconnects (wire_api.h).
      const WireStats wire = wire_stats();
      replication::PutVarint(&reply, wire.frames);
      replication::PutVarint(&reply, wire.batch_frames);
      replication::PutVarint(&reply, wire.records);
      replication::PutVarint(&reply, wire.bytes);
      replication::PutVarint(&reply, wire.writev_calls);
      replication::PutVarint(&reply, wire.flushes);
      replication::PutVarint(&reply, wire.backpressure_stalls);
      replication::PutVarint(&reply, wire.connections);
      return reply;
    }
    default:
      PutStatus(&reply, Status::InvalidArgument("unknown op"));
      return reply;
  }
}

}  // namespace system
}  // namespace lazysi
