#ifndef LAZYSI_TXN_TRANSACTION_H_
#define LAZYSI_TXN_TRANSACTION_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "storage/versioned_store.h"
#include "storage/write_set.h"

namespace lazysi {
namespace txn {

class TxnManager;

/// One observed read: which key, and the commit timestamp of the version the
/// snapshot produced (kInvalidTimestamp when the key was absent). History
/// checkers use these observations to validate the SI guarantees of
/// Section 2 on real executions.
struct ReadObservation {
  std::string key;
  Timestamp version_commit_ts = kInvalidTimestamp;
  bool found = false;
  bool from_own_write = false;
};

/// A transaction handle running under the site's local strong SI control.
///
/// Lifecycle: Begin (via TxnManager) -> Get/Put/Delete/Scan -> Commit or
/// Abort. A handle may be passed between threads (the refresher begins a
/// refresh transaction and an applicator finishes it, Algorithms 3.2/3.3) but
/// must not be used from two threads concurrently.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  /// start_p(T): the clock value issued at Begin; orders this transaction's
  /// start against all other starts and commits (and is what the start log
  /// record carries).
  Timestamp start_ts() const { return start_ts_; }
  /// The snapshot this transaction reads: the visibility watermark at Begin
  /// time, i.e. the latest fully installed committed state. Under strong SI
  /// this includes every commit acknowledged before Begin (Definition 2.1).
  /// Also the first-committer-wins validation boundary.
  Timestamp snapshot_ts() const { return snapshot_ts_; }
  /// commit_p(T); kInvalidTimestamp until committed.
  Timestamp commit_ts() const { return commit_ts_; }
  bool read_only() const { return read_only_; }

  enum class State { kActive, kCommitted, kAborted };
  State state() const { return state_; }

  /// Snapshot read; sees the transaction's own buffered writes first
  /// (SI requires a transaction to see its own updates, Section 2.1). The
  /// result shares the stored buffer; no bytes are copied.
  Result<storage::Value> Get(const std::string& key);

  /// Buffers an update. InvalidArgument on read-only transactions,
  /// FailedPrecondition once no longer active. The write set and the log
  /// record share `value`'s buffer (a std::string argument is copied into
  /// one here).
  Status Put(const std::string& key, storage::Value value);
  Status Delete(const std::string& key);

  /// Key-ordered snapshot scan of [begin, end), own writes overlaid.
  Result<std::vector<std::pair<std::string, storage::Value>>> Scan(
      const std::string& begin, const std::string& end);

  /// First-committer-wins validation and atomic version installation.
  /// Returns WriteConflict (and the transaction is aborted) when an
  /// overlapping committed transaction wrote one of this transaction's keys.
  Status Commit();

  /// Voluntary abort; idempotent on non-active transactions.
  void Abort();

  const storage::WriteSet& write_set() const { return write_set_; }
  const std::vector<ReadObservation>& reads() const { return reads_; }

 private:
  friend class TxnManager;
  Transaction(TxnManager* manager, TxnId id, Timestamp start_ts,
              Timestamp snapshot_ts, bool read_only);

  TxnManager* manager_;
  TxnId id_;
  Timestamp start_ts_;
  Timestamp snapshot_ts_;
  Timestamp commit_ts_ = kInvalidTimestamp;
  bool read_only_;
  /// The transaction's slot in the TxnManager's lock-free active-snapshot
  /// bank chain, or nullptr when the snapshot is tracked in the mutex-guarded
  /// multiset (update transactions). Banks live as long as the manager, so
  /// the pointer stays valid for the transaction's whole lifetime.
  std::atomic<Timestamp>* active_slot_ = nullptr;
  /// Reads must take the shard lock: set for historical snapshots below the
  /// store's GC floor, where the lock-free reclamation contract does not
  /// cover the reader (see VersionedStore).
  bool locked_reads_ = false;
  State state_ = State::kActive;
  storage::WriteSet write_set_;
  std::vector<ReadObservation> reads_;
};

}  // namespace txn
}  // namespace lazysi

#endif  // LAZYSI_TXN_TRANSACTION_H_
