#ifndef LAZYSI_TXN_TXN_OBSERVER_H_
#define LAZYSI_TXN_TXN_OBSERVER_H_

#include <string>

#include "common/timestamp.h"
#include "storage/write_set.h"

namespace lazysi {
namespace txn {

/// Receives transaction lifecycle events from a TxnManager.
///
/// The engine wires a site's logical log in as an observer: OnStart and
/// OnCommit fire while the manager holds its timestamp mutex, so the log
/// order of start/commit records is exactly timestamp order — the invariant
/// Algorithm 3.1's propagator relies on. OnUpdate fires on each buffered
/// write, producing the per-transaction update records of the paper's log.
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;

  /// An update transaction was assigned start_p(T). Called under the
  /// timestamp mutex.
  virtual void OnStart(TxnId txn_id, Timestamp start_ts) = 0;

  /// An update transaction buffered a write. Called from the transaction's
  /// own thread, after its OnStart and before its OnCommit/OnAbort.
  /// `value` is the write set's handle; keeping a copy shares its buffer.
  virtual void OnUpdate(TxnId txn_id, const std::string& key,
                        const storage::Value& value, bool deleted) = 0;

  /// An update transaction committed with commit_p(T) and the given final
  /// write set. Called under the timestamp mutex, after versions are
  /// installed.
  virtual void OnCommit(TxnId txn_id, Timestamp commit_ts,
                        const storage::WriteSet& writes) = 0;

  /// An update transaction aborted (FCW failure or client abort).
  virtual void OnAbort(TxnId txn_id) = 0;
};

}  // namespace txn
}  // namespace lazysi

#endif  // LAZYSI_TXN_TXN_OBSERVER_H_
