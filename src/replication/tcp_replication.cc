#include "replication/tcp_replication.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "replication/primary.h"
#include "replication/secondary.h"
#include "replication/wire.h"

namespace lazysi {
namespace replication {

void SealReplFrame(std::string* frame) {
  AppendCrc32(frame, Crc32c(*frame));
}

bool UnsealReplFrame(std::string* frame) {
  if (frame->size() < 4) return false;
  const std::size_t body = frame->size() - 4;
  if (Crc32c(std::string_view(*frame).substr(0, body)) !=
      ReadCrc32(*frame, body)) {
    return false;
  }
  frame->resize(body);
  return true;
}

std::string EncodeBatchFramePayload(
    const std::vector<PropagationRecord>& records) {
  std::string payload(1, kReplBatchTag);
  PutVarint(&payload, records.size());
  for (const auto& record : records) EncodeRecord(record, &payload);
  return payload;
}

bool DecodeBatchFramePayload(const std::string& frame, std::size_t* offset,
                             std::vector<PropagationRecord>* out) {
  if (*offset >= frame.size() || frame[*offset] != kReplBatchTag) {
    return false;
  }
  ++*offset;
  std::uint64_t count = 0;
  if (!GetVarint(frame, offset, &count)) return false;
  // No reserve(count): the claim crossed the wire unverified, and each
  // record must decode anyway before it costs memory.
  for (std::uint64_t i = 0; i < count; ++i) {
    auto record = DecodeRecord(frame, offset);
    if (!record.ok()) return false;
    out->push_back(std::move(*record));
  }
  return *offset == frame.size();
}

bool DecodeSnapshotFramePayload(std::string_view frame, std::size_t* offset,
                                Timestamp* as_of,
                                const engine::SnapshotRowFn& row) {
  if (*offset >= frame.size() || frame[*offset] != kReplSnapshotTag) {
    return false;
  }
  ++*offset;
  return GetVarint(frame, offset, as_of) &&
         engine::DecodeSnapshotChunk(frame, offset, row);
}

// ---------------------------------------------------------------------------
// ReplicationListener

ReplicationListener::ReplicationListener(Primary* primary, Options options)
    : ReplicationListener(primary->propagator(), std::move(options)) {
  db_ = primary->db();
}

ReplicationListener::ReplicationListener(Propagator* propagator,
                                         Options options)
    : propagator_(propagator), options_(std::move(options)) {
  if (options_.max_batch_records == 0) options_.max_batch_records = 1;
  if (options_.max_batch_bytes == 0) options_.max_batch_bytes = 1;
  if (options_.faults.any()) {
    shim_ = std::make_unique<FaultShim>(options_.faults, options_.fault_seed);
  }
  if (options_.loop != nullptr) {
    loop_ = options_.loop;
  } else {
    owned_loop_ = std::make_unique<net::EventLoop>();
    loop_ = owned_loop_.get();
  }
}

ReplicationListener::~ReplicationListener() { Stop(); }

Status ReplicationListener::Start() {
  listen_fd_ = net::ListenOn(options_.host, options_.port, &port_);
  if (listen_fd_ < 0) {
    return Status::Unavailable("replication listener: cannot bind " +
                               options_.host);
  }
  net::SetNonBlocking(listen_fd_);
  attach_q_.Reopen();
  attach_worker_ = std::thread([this] {
    while (auto task = attach_q_.Pop()) (*task)();
  });
  if (owned_loop_) owned_loop_->Start();
  loop_->RunInLoop([this] {
    loop_->AddFd(listen_fd_, EPOLLIN,
                 [this](std::uint32_t) { OnAcceptable(); });
  });
  started_ = true;
  return Status::OK();
}

void ReplicationListener::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (!started_) return;
  // Deregister the acceptor and sever every connection on the loop thread;
  // the close handlers detach the propagator sinks, so no new pump tasks
  // can be scheduled after this barrier.
  loop_->PostAndWait([this] {
    if (listen_fd_ >= 0) {
      loop_->RemoveFd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<std::shared_ptr<Conn>> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns = conns_;
    }
    for (auto& conn : conns) {
      if (conn->nc) conn->nc->Close();  // runs OnConnClosed inline
    }
  });
  attach_q_.Close();
  if (attach_worker_.joinable()) attach_worker_.join();
  // Flush any pump/flush tasks still queued behind the close barrier, then
  // (if the loop is ours) stop it.
  loop_->PostAndWait([] {});
  if (owned_loop_) owned_loop_->Stop();
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.clear();
}

std::uint64_t ReplicationListener::MinAckFloor() const {
  std::uint64_t floor = UINT64_MAX;
  auto hold = [&](std::uint64_t acked) {
    floor = std::min<std::uint64_t>(
        floor, propagator_->SyncPointAtOrBefore(acked).lsn);
  };
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (conn->done.load(std::memory_order_acquire)) continue;
    // A connection that has not attached yet (acked 0) maps to the oldest
    // retained sync point, which conservatively pins the floor at the
    // current log base — truncation merely pauses until it attaches.
    hold(conn->acked.load(std::memory_order_relaxed));
  }
  std::erase_if(lingering_,
                [now](const Lingering& l) { return l.until <= now; });
  for (const auto& l : lingering_) hold(l.acked);
  return floor;
}

ReplicationListener::Stats ReplicationListener::stats() const {
  Stats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.records_streamed = records_streamed_.load(std::memory_order_relaxed);
  s.replay_attaches = replay_attaches_.load(std::memory_order_relaxed);
  s.attach_refusals = attach_refusals_.load(std::memory_order_relaxed);
  s.snapshot_attaches = snapshot_attaches_.load(std::memory_order_relaxed);
  s.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
  s.resume_refusals = resume_refusals_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  if (shim_) s.faults = shim_->counters();
  s.bytes_sent = retired_bytes_sent_.load(std::memory_order_relaxed);
  s.writev_calls = retired_writev_calls_.load(std::memory_order_relaxed);
  s.flushes = retired_flushes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (!conn->nc) continue;
    const auto c = conn->nc->counters();
    s.bytes_sent += c.bytes_sent;
    s.writev_calls += c.writev_calls;
    s.flushes += c.flushes;
  }
  return s;
}

void ReplicationListener::OnAcceptable() {
  for (;;) {
    int fd;
    do {
      fd = ::accept(listen_fd_, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return;  // EAGAIN (drained) or listener closed
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    net::SetTcpNoDelay(fd);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>();
    std::weak_ptr<Conn> weak = conn;
    net::Connection::Options copts;
    copts.low_watermark = std::max<std::size_t>(1, options_.max_output_bytes / 2);
    net::Connection::Callbacks cbs;
    cbs.on_bytes = [this, weak](net::Connection&, std::string_view bytes) {
      if (auto c = weak.lock()) OnConnBytes(c, bytes);
    };
    cbs.on_drain = [this, weak](net::Connection&) {
      auto c = weak.lock();
      if (!c) return;
      {
        std::lock_guard<std::mutex> lock(c->room_mu);
      }
      c->room_cv.notify_all();
      if (!c->stalled) return;
      c->stalled = false;
      PumpConn(c);
    };
    cbs.on_close = [this, weak](net::Connection&) {
      if (auto c = weak.lock()) OnConnClosed(c);
    };
    conn->nc = net::Connection::Adopt(loop_, fd, copts, std::move(cbs));
    // The propagator wakes the pump through the sink's hook — no parked
    // consumer thread per connection.
    conn->sink.SetWakeup([this, weak] { SchedulePump(weak); });
    // Published only once `nc` is set: stats() reads it off-loop. No
    // callback can run before this, since they all run on this thread.
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
  }
}

void ReplicationListener::SchedulePump(const std::weak_ptr<Conn>& weak) {
  auto conn = weak.lock();
  if (!conn) return;
  if (conn->pump_scheduled.exchange(true, std::memory_order_acq_rel)) return;
  loop_->Post([this, weak] {
    auto c = weak.lock();
    if (!c) return;
    c->pump_scheduled.store(false, std::memory_order_release);
    PumpConn(c);
  });
}

void ReplicationListener::OnConnBytes(const std::shared_ptr<Conn>& conn,
                                      std::string_view bytes) {
  if (!conn->framer.Feed(bytes)) {
    conn->nc->Close();
    return;
  }
  while (auto frame = conn->framer.Next()) {
    HandleFrame(conn, std::move(*frame));
    if (conn->done.load(std::memory_order_acquire)) return;
  }
  if (conn->framer.poisoned()) conn->nc->Close();
}

void ReplicationListener::HandleFrame(const std::shared_ptr<Conn>& conn,
                                      std::string frame) {
  if (!UnsealReplFrame(&frame) || frame.empty()) {
    LAZYSI_WARN("replication listener: damaged frame, dropping connection");
    conn->nc->Close();
    return;
  }
  if (!conn->hello_done) {
    if (frame[0] != kReplHelloTag) {
      conn->nc->Close();  // wrong protocol; drop silently
      return;
    }
    std::size_t off = 1;
    std::uint64_t expected = 0;
    std::uint64_t from_lsn = 0;
    if (!GetVarint(frame, &off, &expected) ||
        !GetVarint(frame, &off, &from_lsn)) {
      LAZYSI_WARN(
          "replication listener: malformed HELLO, dropping connection");
      conn->nc->Close();
      return;
    }
    conn->hello_done = true;
    // Attaching may replay a large log suffix; keep it off the loop.
    attach_q_.Push([this, conn, expected, from_lsn] {
      HandleAttach(conn, expected, from_lsn);
    });
    return;
  }
  if (frame[0] != kReplAckTag) return;
  std::size_t off = 1;
  std::uint64_t acked = 0;
  if (GetVarint(frame, &off, &acked)) {
    // The receiver has delivered `acked` and resumes at the next seq, the
    // position its HELLO would name: hold the floor at the sync point a
    // resync from there replays from, as the attach base does.
    conn->acked.store(acked + 1, std::memory_order_relaxed);
  }
}

void ReplicationListener::HandleAttach(const std::shared_ptr<Conn>& conn,
                                       std::uint64_t expected,
                                       std::uint64_t from_lsn) {
  if (conn->done.load(std::memory_order_acquire)) return;
  // A resuming secondary (expected > 0) replays from the latest quiesced
  // point at or below its position; a fresh one (expected == 0, e.g. after
  // kill -9) replays the log from its checkpoint LSN — 0 = everything, or
  // a snapshot once the log no longer starts there. Any other position the
  // log lost is refused.
  std::size_t attach_lsn = static_cast<std::size_t>(from_lsn);
  Result<std::uint64_t> base = Status::NotFound("resync point truncated");
  if (expected > 0) {
    const Propagator::SyncPoint point =
        propagator_->SyncPointAtOrBefore(expected);
    attach_lsn = point.lsn;
    // A point past `expected` means every point at or below it was
    // forgotten along with its log records.
    if (point.record_seq <= expected) {
      base = propagator_->AttachSinkAt(&conn->sink, attach_lsn,
                                       options_.filter);
    }
  } else {
    base = propagator_->AttachSinkAt(&conn->sink, attach_lsn, options_.filter);
  }
  std::string welcome(1, kReplWelcomeTag);
  std::string snapshot_tail;
  if (base.status().IsNotFound() && expected == 0 && from_lsn == 0 &&
      db_ != nullptr) {
    // A fresh secondary holds nothing, so it can start from a snapshot.
    base = StreamSnapshot(conn, &snapshot_tail);
    if (base.status().IsAborted()) return;  // the connection closed
  }
  if (base.status().IsNotFound()) {
    Refuse(conn, expected > 0
                     ? "resync point for seq " + std::to_string(expected) +
                           " is truncated"
                     : "log truncated past lsn " + std::to_string(from_lsn));
    return;
  }
  if (!base.ok()) {
    attach_refusals_.fetch_add(1, std::memory_order_relaxed);
    LAZYSI_WARN("replication listener: attach at lsn " << attach_lsn
                << " failed: " << base.status());
    conn->nc->Close();
    return;
  }
  if (snapshot_tail.empty()) {
    replay_attaches_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->resume_seq = expected;
  // Holds the truncation floor at the attach point until acks move it.
  conn->acked.store(*base, std::memory_order_relaxed);
  // WELCOME is queued before the pump may run, so no BATCH overtakes it.
  PutVarint(&welcome, *base);
  welcome += snapshot_tail;
  WriteFrame(conn.get(), std::move(welcome));
  conn->attached.store(true, std::memory_order_release);
  if (conn->done.load(std::memory_order_acquire)) {
    // Lost a race with the close handler (or the fault shim cut the
    // connection), whose detach may have been a no-op; undo the attach
    // ourselves.
    propagator_->DetachSink(&conn->sink);
    return;
  }
  // The replay burst is already sitting in the sink; pump it.
  std::weak_ptr<Conn> weak = conn;
  SchedulePump(weak);
}

Result<std::uint64_t> ReplicationListener::StreamSnapshot(
    const std::shared_ptr<Conn>& conn, std::string* welcome) {
  auto point =
      propagator_->AttachSinkAtLatestSyncPoint(&conn->sink, options_.filter);
  if (!point.ok()) return point.status();
  // While the snapshot streams, the truncation floor stays at the point.
  conn->acked.store(point->record_seq, std::memory_order_relaxed);
  // Every commit record below the point is at or below the pin's as_of
  // (PinCheckpoint's contract), so the snapshot plus the sink's records
  // from the point on cover the whole history. The commits in both are the
  // ones at or below as_of; the receiver turns those into aborts.
  const engine::Database::CheckpointPin pin = db_->PinCheckpoint();
  auto rows = engine::EncodeSnapshotChunks(
      db_, pin, options_.max_batch_bytes, options_.filter.KeyPredicate(),
      [&](std::string chunk) {
        std::string frame(1, kReplSnapshotTag);
        PutVarint(&frame, pin.as_of);
        frame += chunk;
        const std::size_t bytes = frame.size();
        if (!WaitForRoom(conn.get()) ||
            !WriteFrame(conn.get(), std::move(frame))) {
          return Status::Aborted("connection closed during the snapshot");
        }
        snapshot_bytes_.fetch_add(bytes, std::memory_order_relaxed);
        return Status::OK();
      });
  if (!rows.ok()) {
    propagator_->DetachSink(&conn->sink);
    return rows.status();
  }
  PutVarint(welcome, pin.as_of);
  PutVarint(welcome, *rows);
  snapshot_attaches_.fetch_add(1, std::memory_order_relaxed);
  return point->record_seq;
}

bool ReplicationListener::WaitForRoom(Conn* conn) {
  std::unique_lock<std::mutex> lock(conn->room_mu);
  while (conn->nc->output_bytes() >= options_.max_output_bytes) {
    if (conn->done.load(std::memory_order_acquire)) return false;
    // The drain and close callbacks notify; the timeout only bounds a
    // wakeup lost between the check and the wait.
    conn->room_cv.wait_for(lock, std::chrono::milliseconds(50));
  }
  return !conn->done.load(std::memory_order_acquire);
}

void ReplicationListener::Refuse(const std::shared_ptr<Conn>& conn,
                                 const std::string& reason) {
  const std::uint64_t n =
      resume_refusals_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  std::int64_t last = last_refusal_log_ns_.load(std::memory_order_relaxed);
  if ((last == 0 || now - last >= 1'000'000'000) &&
      last_refusal_log_ns_.compare_exchange_strong(last, now)) {
    LAZYSI_WARN("replication listener: refusing a resync (" << n
                << " so far): " << reason);
  }
  std::string refuse(1, kReplRefuseTag);
  PutString(&refuse, reason);
  // The close runs on the loop after the queued flush of the frame, so the
  // receiver reads the reason before the end of the stream.
  if (WriteFrame(conn.get(), std::move(refuse))) conn->nc->Close();
}

bool ReplicationListener::WriteFrame(Conn* conn, std::string payload) {
  SealReplFrame(&payload);
  const int copies = shim_ ? shim_->Apply(&payload) : 1;
  if (copies == 0) {
    conn->nc->Close();
    return false;
  }
  std::string wire;
  wire.reserve(copies * (payload.size() + 4));
  for (int i = 0; i < copies; ++i) net::AppendTcpFrame(&wire, payload);
  conn->nc->Write(std::move(wire));
  return true;
}

bool ReplicationListener::EmitBatch(Conn* conn) {
  if (conn->pending_n == 0) return true;
  std::string payload(1, kReplBatchTag);
  PutVarint(&payload, conn->pending_n);
  payload.append(conn->pending_body);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  records_streamed_.fetch_add(conn->pending_n, std::memory_order_relaxed);
  conn->pending_body.clear();
  conn->pending_n = 0;
  return WriteFrame(conn, std::move(payload));
}

void ReplicationListener::PumpConn(const std::shared_ptr<Conn>& conn) {
  if (!conn->attached.load(std::memory_order_acquire) ||
      conn->done.load(std::memory_order_acquire)) {
    return;
  }
  for (;;) {
    if (conn->nc->output_bytes() >= options_.max_output_bytes) {
      // Stop pulling from the propagator for this sink; the drain callback
      // resumes the pump. Records stay queued in the sink meanwhile.
      if (!conn->stalled) {
        conn->stalled = true;
        backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    auto batch =
        conn->sink.TryPopBatch(options_.max_batch_records - conn->pending_n);
    if (batch.empty()) break;
    for (auto& record : batch) {
      // Under a cut storm the overlap could be longer than the stream
      // survives between cuts; skipping it keeps every resync progressing.
      if (RecordSeq(record) < conn->resume_seq) continue;
      EncodeRecord(record, &conn->pending_body);
      ++conn->pending_n;
      if ((conn->pending_n >= options_.max_batch_records ||
           conn->pending_body.size() >= options_.max_batch_bytes) &&
          !EmitBatch(conn.get())) {
        return;
      }
    }
  }
  // Sink ran dry. Flush the partial batch now, or hold it briefly if the
  // deployment prefers fuller frames over latency.
  if (conn->pending_n > 0) {
    if (options_.batch_flush_interval.count() <= 0) {
      EmitBatch(conn.get());
    } else if (!conn->flush_timer_armed) {
      conn->flush_timer_armed = true;
      std::weak_ptr<Conn> weak = conn;
      conn->flush_timer = loop_->ScheduleAfter(
          options_.batch_flush_interval, [this, weak] {
            auto c = weak.lock();
            if (!c || c->done.load(std::memory_order_acquire)) return;
            c->flush_timer_armed = false;
            if (c->nc->output_bytes() >= options_.max_output_bytes) {
              // The deadline does not override the output ceiling: stall,
              // and let the drain callback's pump emit (or re-arm for) the
              // held batch once the buffer comes back under the watermark.
              if (!c->stalled) {
                c->stalled = true;
                backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
              }
              return;
            }
            EmitBatch(c.get());
          });
    }
  }
}

void ReplicationListener::OnConnClosed(const std::shared_ptr<Conn>& conn) {
  conn->done.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(conn->room_mu);
  }
  conn->room_cv.notify_all();
  conn->sink.SetWakeup(nullptr);
  conn->sink.Close();
  // Safe even when the attach worker has not attached (no-op) or is racing
  // us (it re-checks done after attaching and detaches itself).
  propagator_->DetachSink(&conn->sink);
  if (conn->flush_timer_armed) {
    loop_->CancelTimer(conn->flush_timer);
    conn->flush_timer_armed = false;
  }
  // Retire the connection's wire counters and drop it from the live set
  // under one lock hold so stats() never sees the counters twice.
  std::lock_guard<std::mutex> lock(conns_mu_);
  if (conn->attached.load(std::memory_order_acquire)) {
    // A cut secondary redials within the grace and resumes from its ack.
    const auto now = std::chrono::steady_clock::now();
    std::erase_if(lingering_,
                  [now](const Lingering& l) { return l.until <= now; });
    lingering_.push_back(
        Lingering{now + kResumeGrace,
                  conn->acked.load(std::memory_order_relaxed)});
  }
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn.get()) {
      conns_.erase(it);
      if (conn->nc) {
        const auto c = conn->nc->counters();
        retired_bytes_sent_.fetch_add(c.bytes_sent,
                                      std::memory_order_relaxed);
        retired_writev_calls_.fetch_add(c.writev_calls,
                                        std::memory_order_relaxed);
        retired_flushes_.fetch_add(c.flushes, std::memory_order_relaxed);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// ReplicationReceiver

ReplicationReceiver::ReplicationReceiver(
    BlockingQueue<PropagationRecord>* downstream, Options options)
    : downstream_(downstream),
      options_(std::move(options)),
      backoff_(options_.reconnect_backoff,
               options_.reconnect_backoff_max > options_.reconnect_backoff
                   ? options_.reconnect_backoff_max
                   : options_.reconnect_backoff),
      rng_(options_.jitter_seed) {
  if (options_.ack_interval == 0) options_.ack_interval = 1;
  loop_ = options_.loop;
}

ReplicationReceiver::ReplicationReceiver(Secondary* secondary, Options options)
    : ReplicationReceiver(secondary->update_queue(), std::move(options)) {
  secondary_ = secondary;
}

ReplicationReceiver::~ReplicationReceiver() { Stop(); }

void ReplicationReceiver::Start() {
  stopping_.store(false, std::memory_order_release);
  refused_.store(false, std::memory_order_release);
  if (options_.loop == nullptr) {
    owned_loop_ = std::make_unique<net::EventLoop>();
    loop_ = owned_loop_.get();
    owned_loop_->Start();
  }
  started_ = true;
  loop_->RunInLoop([this] { StartDial(); });
}

void ReplicationReceiver::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (!started_) return;
  loop_->PostAndWait([this] {
    if (redial_timer_ != 0) {
      loop_->CancelTimer(redial_timer_);
      redial_timer_ = 0;
    }
    if (pending_fd_ >= 0) {
      loop_->RemoveFd(pending_fd_);
      ::close(pending_fd_);
      pending_fd_ = -1;
    }
    if (current_) current_->Close();
  });
  if (owned_loop_) owned_loop_->Stop();
  started_ = false;
}

void ReplicationReceiver::CutConnection() {
  // Synchronous (when called off-loop, as fault-injecting tests do): once
  // this returns, nothing more can arrive on the severed connection.
  auto cut = [this] {
    if (current_) current_->Close();
  };
  if (loop_->InLoop()) {
    cut();
  } else {
    loop_->PostAndWait(cut);
  }
}

ReplicationReceiver::Stats ReplicationReceiver::stats() const {
  Stats s;
  s.records_delivered = records_delivered_.load(std::memory_order_relaxed);
  s.duplicates_dropped = duplicates_dropped_.load(std::memory_order_relaxed);
  s.decode_rejected = decode_rejected_.load(std::memory_order_relaxed);
  s.crc_rejected = crc_rejected_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.dial_attempts = dial_attempts_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.snapshots_installed = snapshots_installed_.load(std::memory_order_relaxed);
  s.refusals = refusals_.load(std::memory_order_relaxed);
  return s;
}

void ReplicationReceiver::StartDial() {
  if (stopping_.load(std::memory_order_acquire)) return;
  dial_attempts_.fetch_add(1, std::memory_order_relaxed);
  bool in_progress = false;
  const int fd = net::StartDialTcp(options_.primary_host,
                                   options_.primary_port, &in_progress);
  if (fd < 0) {
    ScheduleRedial();
    return;
  }
  if (!in_progress) {
    OnDialDone(fd, true);
    return;
  }
  pending_fd_ = fd;
  const std::uint64_t epoch = ++conn_epoch_;
  loop_->AddFd(fd, EPOLLOUT, [this, fd, epoch](std::uint32_t) {
    if (epoch != conn_epoch_ || pending_fd_ != fd) return;
    loop_->RemoveFd(fd);
    pending_fd_ = -1;
    OnDialDone(fd, net::FinishDial(fd));
  });
}

void ReplicationReceiver::OnDialDone(int fd, bool ok) {
  if (stopping_.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  if (!ok) {
    ::close(fd);
    ScheduleRedial();
    return;
  }
  framer_ = net::TcpFramer();
  handshaken_ = false;
  since_ack_ = 0;
  net::Connection::Callbacks cbs;
  cbs.on_bytes = [this](net::Connection&, std::string_view bytes) {
    OnBytes(bytes);
  };
  cbs.on_close = [this](net::Connection&) { OnClosed(); };
  current_ = net::Connection::Adopt(loop_, fd, net::Connection::Options{},
                                    std::move(cbs));
  std::string hello(1, kReplHelloTag);
  PutVarint(&hello, next_expected_.load(std::memory_order_acquire));
  PutVarint(&hello, options_.from_lsn);
  WriteFrame(std::move(hello));
}

void ReplicationReceiver::WriteFrame(std::string payload) {
  // A write that failed inline may already have torn the connection down
  // (current_ reset by OnClosed); the reconnect handshake covers the loss.
  if (!current_) return;
  SealReplFrame(&payload);
  std::string wire;
  net::AppendTcpFrame(&wire, payload);
  current_->Write(std::move(wire));
}

void ReplicationReceiver::OnBytes(std::string_view bytes) {
  bytes_received_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (!framer_.Feed(bytes)) {
    if (current_) current_->Close();
    return;
  }
  while (auto frame = framer_.Next()) {
    HandleFrame(std::move(*frame));
    if (!current_ || current_->closed()) return;
  }
  if (framer_.poisoned() && current_) current_->Close();
}

void ReplicationReceiver::HandleFrame(std::string frame) {
  if (!UnsealReplFrame(&frame)) {
    // Corrupted in flight: nothing in it can be trusted, including the
    // frame boundary after it. Drop the connection; the re-HELLO replays a
    // clean suffix.
    crc_rejected_.fetch_add(1, std::memory_order_relaxed);
    LAZYSI_WARN("replication receiver: frame failed its CRC, resyncing");
    current_->Close();
    return;
  }
  if (frame.empty()) return;
  if (!handshaken_) {
    bool ok = true;
    switch (frame[0]) {
      case kReplWelcomeTag:
        ok = HandleWelcome(frame);
        break;
      case kReplSnapshotTag:
        ok = HandleSnapshotFrame(frame);
        break;
      case kReplRefuseTag: {
        std::size_t off = 1;
        std::string reason;
        if (!GetString(frame, &off, &reason)) reason = "(malformed reason)";
        Refused(reason);
        return;
      }
      default:
        return;  // tolerate stray frames
    }
    if (!ok) {
      decode_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (current_) current_->Close();
    }
    return;
  }
  // Duplicate WELCOMEs and unknown tags between handshakes are ignored.
  if (frame[0] != kReplBatchTag) return;
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  std::size_t off = 0;
  std::vector<PropagationRecord> records;
  if (!DecodeBatchFramePayload(frame, &off, &records)) {
    // Malformed count, record, or trailing garbage: damaged stream.
    // Nothing from the batch is applied — the reconnect replay
    // redelivers it cleanly and seq dedup drops any overlap.
    decode_rejected_.fetch_add(1, std::memory_order_relaxed);
    LAZYSI_WARN("replication receiver: undecodable batch frame");
    current_->Close();
    return;
  }
  for (auto& record : records) {
    if (!HandleRecord(std::move(record))) {
      if (current_) current_->Close();
      return;
    }
    // The ACK write inside HandleRecord can fail inline (peer reset),
    // which closes the connection and resets current_ via OnClosed; the
    // rest of the batch must not touch the dead connection — the
    // reconnect replay redelivers it and seq dedup drops the overlap.
    if (!current_ || current_->closed()) return;
  }
}

bool ReplicationReceiver::HandleWelcome(const std::string& frame) {
  std::size_t off = 1;
  std::uint64_t base = 0;
  if (!GetVarint(frame, &off, &base)) return false;
  if (off < frame.size()) {
    // { as_of, rows } after the base: the SNAPSHOT frames before this one
    // are the primary's state at as_of. All of them must have arrived.
    std::uint64_t as_of = 0;
    std::uint64_t rows = 0;
    if (!GetVarint(frame, &off, &as_of) || !GetVarint(frame, &off, &rows) ||
        off != frame.size() || secondary_ == nullptr ||
        next_expected_.load(std::memory_order_acquire) != 0 ||
        rows != snapshot_rows_ || (rows > 0 && as_of != snapshot_as_of_)) {
      LAZYSI_WARN("replication receiver: snapshot does not match its WELCOME");
      return false;
    }
    const Status installed = secondary_->CommitSnapshot(as_of);
    snapshot_rows_ = 0;
    if (!installed.ok()) {
      LAZYSI_WARN("replication receiver: snapshot install failed: "
                  << installed);
      return false;
    }
    covered_through_ = as_of;
    snapshots_installed_.fetch_add(1, std::memory_order_relaxed);
    LAZYSI_INFO("replication receiver: installed a snapshot of "
                << rows << " rows at primary ts " << as_of);
  } else if (snapshot_rows_ > 0) {
    return false;  // SNAPSHOT frames without a snapshot WELCOME
  }
  handshaken_ = true;
  if (welcomed_.exchange(true, std::memory_order_acq_rel)) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  // A receiver that has delivered nothing asked for a replay from
  // from_lsn (or took a snapshot); the stream resumes at the seq the
  // primary attached it at, which is past 0 whenever that LSN is.
  if (next_expected_.load(std::memory_order_acquire) == 0) {
    next_expected_.store(base, std::memory_order_release);
  }
  backoff_.Reset();
  return true;
}

bool ReplicationReceiver::HandleSnapshotFrame(const std::string& frame) {
  if (secondary_ == nullptr) {
    Refused("the primary sent a snapshot this receiver cannot install");
    return true;
  }
  // Only a receiver that holds nothing asks for one.
  if (next_expected_.load(std::memory_order_acquire) != 0) return false;
  // The frame's CRC held, so its rows are staged as they decode. A
  // malformed frame, or one of another snapshot, cuts the connection, which
  // abandons the snapshot.
  const bool first = snapshot_rows_ == 0;
  std::size_t off = 0;
  Timestamp as_of = kInvalidTimestamp;
  if (!DecodeSnapshotFramePayload(
          frame, &off, &as_of,
          [this](std::string_view key, std::string_view value) {
            ++snapshot_rows_;
            secondary_->StageSnapshotRow(std::string(key),
                                         storage::Value(value));
          }) ||
      (!first && as_of != snapshot_as_of_)) {
    return false;
  }
  snapshot_as_of_ = as_of;
  return true;
}

void ReplicationReceiver::Refused(const std::string& reason) {
  refusals_.fetch_add(1, std::memory_order_relaxed);
  if (!refused_.exchange(true, std::memory_order_acq_rel)) {
    LAZYSI_ERROR("replication receiver: the primary cannot resync this "
                 "secondary; it stops replicating and serves reads at its "
                 "last state. Reason: "
                 << reason);
  }
  if (current_) current_->Close();
}

void ReplicationReceiver::AbandonSnapshot() {
  if (snapshot_rows_ == 0) return;
  secondary_->AbandonSnapshot();
  snapshot_rows_ = 0;
}

bool ReplicationReceiver::HandleRecord(PropagationRecord record) {
  const std::uint64_t seq = RecordSeq(record);
  const std::uint64_t expected =
      next_expected_.load(std::memory_order_acquire);
  if (seq < expected) {
    // Replay overlap below our position: the sync point the primary
    // attached at quantizes downward. Idempotent to skip.
    duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (seq > expected) {
    // A gap inside one TCP connection should be impossible; treat it as a
    // damaged stream and resync via reconnect rather than applying out of
    // order.
    LAZYSI_WARN("replication receiver: seq gap (want " << expected
                << ", got " << seq << "), resyncing");
    return false;
  }
  if (const auto* commit = std::get_if<PropCommit>(&record);
      commit != nullptr && commit->commit_ts <= covered_through_) {
    // Installed with the snapshot already; the refresh must not apply it
    // again, but its start record went downstream and needs resolving.
    record = PropAbort{commit->txn_id, seq};
  }
  downstream_->Push(std::move(record));
  next_expected_.store(seq + 1, std::memory_order_release);
  records_delivered_.fetch_add(1, std::memory_order_relaxed);
  if (++since_ack_ >= options_.ack_interval) {
    std::string ack(1, kReplAckTag);
    PutVarint(&ack, seq);
    WriteFrame(std::move(ack));
    since_ack_ = 0;
  }
  return true;
}

void ReplicationReceiver::OnClosed() {
  current_.reset();
  ++conn_epoch_;
  AbandonSnapshot();
  if (!stopping_.load(std::memory_order_acquire) &&
      !refused_.load(std::memory_order_acquire)) {
    ScheduleRedial();
  }
}

void ReplicationReceiver::ScheduleRedial() {
  if (stopping_.load(std::memory_order_acquire) || redial_timer_ != 0) {
    return;
  }
  const auto delay =
      Jittered(backoff_.Next(), options_.reconnect_jitter, &rng_);
  redial_timer_ = loop_->ScheduleAfter(delay, [this] {
    redial_timer_ = 0;
    StartDial();
  });
}

}  // namespace replication
}  // namespace lazysi
