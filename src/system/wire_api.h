#ifndef LAZYSI_SYSTEM_WIRE_API_H_
#define LAZYSI_SYSTEM_WIRE_API_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "replication/wire.h"

namespace lazysi {
namespace system {
namespace wire_api {

/// Client <-> site-server protocol, one length-prefixed frame (framed_socket)
/// per request and per reply. First byte of a request is the op tag; a reply
/// is varint(status code) + string(message) followed by op-specific payload
/// when OK. At most one transaction is in flight per connection. A server
/// answers a connection's requests in order, so a client may send requests
/// ahead of their replies (RemoteSite pipelines writes this way).
///
///   'B' ro(1) varint(min_seq)          -> varint(snapshot_prefix)
///   'G' str(key)                       -> str(value)
///   'P' str(key) str(value)            -> -
///   'X' str(key)                       -> -
///   'S' str(begin) str(end)            -> varint(n) n*(str(key) str(value))
///   'C'                                -> varint(commit_seq; 0 = read-only)
///   'A'                                -> -
///   'W' varint(seq)                    -> -           (block until applied)
///   'T'                                -> varint(role) varint(applied_seq)
///                                         varint(latest_commit_ts)
///                                         varint(content_hash)
///                                         8 * varint(wire counter)
///
/// min_seq is the session's seq(c): a secondary blocks the begin until
/// seq(DBsec) >= min_seq (ALG-STRONG-SESSION-SI's rule); the primary always
/// satisfies it trivially. snapshot_prefix and commit_seq are in primary
/// timestamp coordinates, so a client can carry its session across sites.
///
/// The 'T' reply's trailing wire counters describe the site's replication
/// stream endpoint, role-neutrally: frames, batch frames, records, bytes,
/// writev calls, full-drain flushes, backpressure stalls, connections. A
/// primary reports the outbound (sent) direction and accepted connections;
/// a secondary the inbound (received) direction and its reconnect count
/// (see SiteServer::WireStats).
inline constexpr char kOpBegin = 'B';
inline constexpr char kOpGet = 'G';
inline constexpr char kOpPut = 'P';
inline constexpr char kOpDelete = 'X';
inline constexpr char kOpScan = 'S';
inline constexpr char kOpCommit = 'C';
inline constexpr char kOpAbort = 'A';
inline constexpr char kOpWaitSeq = 'W';
inline constexpr char kOpStats = 'T';

/// Write requests ('P', 'X') a client may send ahead of their replies:
/// RemoteSite queues up to this many and then reads their replies together.
/// The server reads up to SiteServer::Options::max_pending_requests (256 by
/// default) unanswered requests per connection before it stops reading, so
/// the window stays at half of that at most.
inline constexpr std::size_t kMaxPipelinedWrites = 64;

inline constexpr std::uint64_t kRolePrimary = 0;
inline constexpr std::uint64_t kRoleSecondary = 1;

/// str(...) fields: the shared codec (common/codec.h). GetString into a
/// storage::Value parses a value straight out of the request frame into the
/// shared buffer the write set, the log and the store will hold.
using codec::GetString;
using codec::PutString;

inline void PutStatus(std::string* out, const Status& status) {
  replication::PutVarint(out, static_cast<std::uint64_t>(status.code()));
  PutString(out, status.message());
}

inline bool GetStatus(const std::string& data, std::size_t* offset,
                      Status* out) {
  std::uint64_t code = 0;
  std::string message;
  if (!replication::GetVarint(data, offset, &code) ||
      !GetString(data, offset, &message)) {
    return false;
  }
  *out = code == 0 ? Status::OK()
                   : Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

}  // namespace wire_api
}  // namespace system
}  // namespace lazysi

#endif  // LAZYSI_SYSTEM_WIRE_API_H_
