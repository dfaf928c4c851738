#include "system/remote_client.h"

#include <thread>

#include "common/backoff.h"
#include "system/wire_api.h"

namespace lazysi {
namespace system {

using namespace wire_api;

Status RemoteSite::Connect(const std::string& host, std::uint16_t port,
                           const ConnectOptions& options) {
  Drop();
  options_ = options;
  ExponentialBackoff backoff(options_.backoff_initial, options_.backoff_max);
  const int attempts = options_.max_attempts > 0 ? options_.max_attempts : 1;
  for (int attempt = 0;; ++attempt) {
    const int fd = net::DialTcp(host, port, options_.connect_timeout);
    if (fd >= 0) {
      sock_ = std::make_unique<net::FramedSocket>(fd);
      sock_->set_recv_timeout(options_.op_timeout);
      sock_->set_send_timeout(options_.op_timeout);
      return Status::OK();
    }
    if (attempt + 1 >= attempts) break;
    std::this_thread::sleep_for(
        Jittered(backoff.Next(), options_.jitter, &rng_));
  }
  return Status::Unavailable("cannot reach site at " + host + ":" +
                             std::to_string(port) + " after " +
                             std::to_string(attempts) + " attempts");
}

void RemoteSite::Drop() {
  sock_.reset();
  queued_.clear();
  queued_writes_ = 0;
  write_error_ = Status::OK();
}

Status RemoteSite::QueueWrite(const std::string& request) {
  if (!connected()) return Status::Unavailable("not connected");
  net::AppendTcpFrame(&queued_, request);
  if (++queued_writes_ < kMaxPipelinedWrites) return Status::OK();
  return Settle();
}

Status RemoteSite::Exchange(const std::string* request, std::string* reply) {
  if (!connected()) return Status::Unavailable("not connected");
  if (request != nullptr) net::AppendTcpFrame(&queued_, *request);
  if (queued_.empty()) return Status::OK();
  if (!sock_->SendFramed(queued_)) {
    const bool timed_out = sock_->send_timed_out();
    Drop();
    return timed_out ? Status::TimedOut("site send deadline exceeded")
                     : Status::Unavailable("site connection lost on send");
  }
  const std::size_t writes = queued_writes_;
  queued_.clear();
  queued_writes_ = 0;
  // Replies come back in request order: the writes' first, then ours.
  for (std::size_t i = 0; i < writes + (request != nullptr ? 1 : 0); ++i) {
    auto frame = sock_->Recv();
    if (!frame.has_value()) {
      const bool timed_out = sock_->timed_out();
      Drop();
      return timed_out
                 ? Status::TimedOut("site reply deadline exceeded")
                 : Status::Unavailable("site connection lost on receive");
    }
    if (i == writes) {
      *reply = std::move(*frame);
      break;
    }
    std::size_t off = 0;
    Status status;
    if (!GetStatus(*frame, &off, &status)) {
      Drop();
      return Status::Internal("malformed reply from site");
    }
    if (!status.ok() && write_error_.ok()) write_error_ = std::move(status);
  }
  return Status::OK();
}

Status RemoteSite::RoundTrip(const std::string& request, std::string* reply,
                             std::size_t* offset) {
  LAZYSI_RETURN_NOT_OK(Exchange(&request, reply));
  *offset = 0;
  Status status;
  if (!GetStatus(*reply, offset, &status)) {
    Drop();
    return Status::Internal("malformed reply from site");
  }
  return status;
}

Status RemoteSite::TakeWriteError() {
  Status error = std::move(write_error_);
  write_error_ = Status::OK();
  return error;
}

Status RemoteSite::Call(const std::string& request, std::string* reply,
                        std::size_t* offset) {
  Status status = RoundTrip(request, reply, offset);
  if (!write_error_.ok()) return TakeWriteError();
  return status;
}

Result<Timestamp> RemoteSite::Begin(bool read_only, Timestamp min_seq) {
  std::string request(1, kOpBegin);
  request.push_back(read_only ? 1 : 0);
  replication::PutVarint(&request, min_seq);
  std::string reply;
  std::size_t off = 0;
  LAZYSI_RETURN_NOT_OK(Call(request, &reply, &off));
  std::uint64_t prefix = 0;
  if (!replication::GetVarint(reply, &off, &prefix)) {
    return Status::Internal("malformed begin reply");
  }
  return static_cast<Timestamp>(prefix);
}

Result<std::string> RemoteSite::Get(const std::string& key) {
  std::string request(1, kOpGet);
  PutString(&request, key);
  std::string reply;
  std::size_t off = 0;
  LAZYSI_RETURN_NOT_OK(Call(request, &reply, &off));
  std::string value;
  if (!GetString(reply, &off, &value)) {
    return Status::Internal("malformed get reply");
  }
  return value;
}

Status RemoteSite::Put(const std::string& key, const std::string& value) {
  std::string request(1, kOpPut);
  PutString(&request, key);
  PutString(&request, value);
  return QueueWrite(request);
}

Status RemoteSite::Delete(const std::string& key) {
  std::string request(1, kOpDelete);
  PutString(&request, key);
  return QueueWrite(request);
}

Result<std::vector<std::pair<std::string, std::string>>> RemoteSite::Scan(
    const std::string& begin, const std::string& end) {
  std::string request(1, kOpScan);
  PutString(&request, begin);
  PutString(&request, end);
  std::string reply;
  std::size_t off = 0;
  LAZYSI_RETURN_NOT_OK(Call(request, &reply, &off));
  std::uint64_t n = 0;
  if (!replication::GetVarint(reply, &off, &n)) {
    return Status::Internal("malformed scan reply");
  }
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    std::string value;
    if (!GetString(reply, &off, &key) || !GetString(reply, &off, &value)) {
      return Status::Internal("malformed scan reply");
    }
    rows.emplace_back(std::move(key), std::move(value));
  }
  return rows;
}

Result<Timestamp> RemoteSite::Commit() {
  // Settle first: COMMIT is never sent behind a failed write, so a commit
  // can never install a write set missing one of the caller's writes.
  LAZYSI_RETURN_NOT_OK(Settle());
  if (!write_error_.ok()) return TakeWriteError();
  std::string reply;
  std::size_t off = 0;
  LAZYSI_RETURN_NOT_OK(RoundTrip(std::string(1, kOpCommit), &reply, &off));
  std::uint64_t seq = 0;
  if (!replication::GetVarint(reply, &off, &seq)) {
    return Status::Internal("malformed commit reply");
  }
  return static_cast<Timestamp>(seq);
}

Status RemoteSite::Abort() {
  std::string reply;
  std::size_t off = 0;
  Status status = RoundTrip(std::string(1, kOpAbort), &reply, &off);
  // A failed write belonged to the transaction just aborted.
  write_error_ = Status::OK();
  return status;
}

Status RemoteSite::WaitSeq(Timestamp seq) {
  std::string request(1, kOpWaitSeq);
  replication::PutVarint(&request, seq);
  std::string reply;
  std::size_t off = 0;
  return Call(request, &reply, &off);
}

Result<RemoteSite::SiteStats> RemoteSite::Stats() {
  std::string reply;
  std::size_t off = 0;
  LAZYSI_RETURN_NOT_OK(Call(std::string(1, kOpStats), &reply, &off));
  SiteStats stats;
  std::uint64_t applied = 0;
  std::uint64_t latest = 0;
  if (!replication::GetVarint(reply, &off, &stats.role) ||
      !replication::GetVarint(reply, &off, &applied) ||
      !replication::GetVarint(reply, &off, &latest) ||
      !replication::GetVarint(reply, &off, &stats.content_hash) ||
      !replication::GetVarint(reply, &off, &stats.wire_frames) ||
      !replication::GetVarint(reply, &off, &stats.wire_batch_frames) ||
      !replication::GetVarint(reply, &off, &stats.wire_records) ||
      !replication::GetVarint(reply, &off, &stats.wire_bytes) ||
      !replication::GetVarint(reply, &off, &stats.wire_writev_calls) ||
      !replication::GetVarint(reply, &off, &stats.wire_flushes) ||
      !replication::GetVarint(reply, &off, &stats.wire_backpressure_stalls) ||
      !replication::GetVarint(reply, &off, &stats.wire_connections)) {
    return Status::Internal("malformed stats reply");
  }
  stats.applied_seq = static_cast<Timestamp>(applied);
  stats.latest_commit_ts = static_cast<Timestamp>(latest);
  return stats;
}

}  // namespace system
}  // namespace lazysi
