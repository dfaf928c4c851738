#ifndef LAZYSI_REPLICATION_MESSAGES_H_
#define LAZYSI_REPLICATION_MESSAGES_H_

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/timestamp.h"
#include "storage/write_set.h"

namespace lazysi {
namespace replication {

/// start_p(T): propagated as soon as the propagator encounters it in the
/// primary log, which keeps propagation live even while T is still running
/// (Section 3.2).
struct PropStart {
  TxnId txn_id = kInvalidTxnId;
  Timestamp start_ts = kInvalidTimestamp;
  /// Position of this record in the propagator's canonical broadcast stream
  /// (its records_broadcast counter at emission). Stamped once at the
  /// propagator, preserved across the wire and transport resyncs, so a
  /// replica can detect stream discontinuities end-to-end and the parallel
  /// replay pipeline can fan records out and re-sequence the decoded results
  /// by tag.
  std::uint64_t seq = 0;
};

/// commit_p(T) together with T's complete update list. Updates ride with the
/// commit record so that aborted transactions are never shipped or applied at
/// secondaries (Algorithm 3.1, line 8).
struct PropCommit {
  PropCommit() = default;
  PropCommit(TxnId txn, Timestamp ts, std::vector<storage::Write> writes = {},
             std::uint64_t stream_seq = 0, std::uint64_t filtered_out = 0)
      : txn_id(txn),
        commit_ts(ts),
        updates(std::move(writes)),
        seq(stream_seq),
        filtered(filtered_out) {}
  // Defined out of line (messages.cc). Inlined into std::variant's copy and
  // move, the implicit ones read this alternative's fields on paths where
  // another alternative is active, and GCC 12 reports those reads as
  // uninitialized at every place a PropagationRecord is moved.
  PropCommit(const PropCommit&);
  PropCommit(PropCommit&&) noexcept;
  PropCommit& operator=(const PropCommit&);
  PropCommit& operator=(PropCommit&&) noexcept;
  ~PropCommit();

  TxnId txn_id = kInvalidTxnId;
  Timestamp commit_ts = kInvalidTimestamp;
  /// T's updates in execution order. Under partial replication this is only
  /// the subset covered by the receiving sink's partitions.
  std::vector<storage::Write> updates;
  /// Broadcast-stream position; see PropStart::seq.
  std::uint64_t seq = 0;
  /// Coverage marker: how many of T's updates partial replication filtered
  /// out for this sink. updates.size() + filtered always equals the
  /// transaction's full update count, so a secondary can distinguish a
  /// genuinely small commit from a filtered one, and a fully filtered commit
  /// (updates empty, filtered > 0) still advances the seq/ack stream and the
  /// visibility watermark.
  std::uint64_t filtered = 0;
};

/// abort_p(T): tells refreshers to abandon the refresh transaction they
/// started when T's start record arrived.
struct PropAbort {
  TxnId txn_id = kInvalidTxnId;
  /// Broadcast-stream position; see PropStart::seq.
  std::uint64_t seq = 0;
};

/// One element of a secondary's FIFO update queue. Records arrive in primary
/// timestamp order and, per the paper's assumption, are never lost or
/// reordered in transit.
using PropagationRecord = std::variant<PropStart, PropCommit, PropAbort>;

/// Primary timestamp carried by a record (start_ts or commit_ts; 0 for
/// aborts, which carry none).
inline Timestamp RecordTimestamp(const PropagationRecord& record) {
  if (const auto* s = std::get_if<PropStart>(&record)) return s->start_ts;
  if (const auto* c = std::get_if<PropCommit>(&record)) return c->commit_ts;
  return kInvalidTimestamp;
}

inline TxnId RecordTxnId(const PropagationRecord& record) {
  return std::visit([](const auto& r) { return r.txn_id; }, record);
}

/// Broadcast-stream position carried by every record (see PropStart::seq).
inline std::uint64_t RecordSeq(const PropagationRecord& record) {
  return std::visit([](const auto& r) { return r.seq; }, record);
}

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_MESSAGES_H_
