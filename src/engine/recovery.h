#ifndef LAZYSI_ENGINE_RECOVERY_H_
#define LAZYSI_ENGINE_RECOVERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/database.h"
#include "wal/log_record.h"

namespace lazysi {
namespace engine {

/// Durable site restart (complements the *replication-based* secondary
/// recovery of Section 3.4, which copies state from the live primary):
///
///   1. periodically SaveCheckpoint() while quiesced and persist the log
///      suffix with wal::LogFile;
///   2. after a crash, LoadCheckpoint() into a fresh Database and
///      ReplayLog() the persisted suffix.
///
/// Replay applies committed transactions in log order — equivalent to a
/// refresher running Algorithm 3.2/3.3 serially against the local store —
/// so the restored state-hash chain extends the checkpoint exactly as the
/// original site's did.

/// Serializes a checkpoint to `path` (atomic rename, checksummed).
Status SaveCheckpoint(const Database::Checkpoint& checkpoint,
                      const std::string& path);

/// Writes the state of `db` at `pin` (Database::PinCheckpoint) to `path` in
/// the same format, one store shard at a time, so the site never holds a
/// second copy of its state. Hold `pin` until this returns.
Status SaveCheckpoint(Database* db, const Database::CheckpointPin& pin,
                      const std::string& path);

/// Reads a checkpoint written by SaveCheckpoint.
Result<Database::Checkpoint> LoadCheckpoint(const std::string& path);

struct ReplayOptions {
  /// Group-apply engine: replayed write sets go through the externally-
  /// ordered commit protocol (TxnManager::BeginExternalCommit +
  /// VersionedStore::ApplyBatch), installing runs of consecutive commits in
  /// one store pass each — the same machinery the secondary's direct-apply
  /// refresher uses, so replay cost matches refresh cost instead of paying
  /// full Begin/Put/Commit concurrency control per transaction. False runs
  /// the legacy one-transaction-per-commit path.
  bool group_apply = false;
  /// Group-apply only: upper bound on commits installed per store pass.
  std::size_t group_limit = 32;
};

/// Applies the committed transactions found in `records` to `db`, one local
/// transaction per primary transaction, in commit order. Updates belonging
/// to transactions that aborted (or never committed within `records`) are
/// discarded. Returns the number of transactions applied. Both replay
/// engines produce the same state and state-hash chain (asserted
/// differentially in recovery_test).
Result<std::size_t> ReplayLog(Database* db,
                              const std::vector<wal::LogRecord>& records,
                              ReplayOptions options = ReplayOptions());

}  // namespace engine
}  // namespace lazysi

#endif  // LAZYSI_ENGINE_RECOVERY_H_
