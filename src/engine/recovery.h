#ifndef LAZYSI_ENGINE_RECOVERY_H_
#define LAZYSI_ENGINE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/database.h"
#include "wal/log_record.h"

namespace lazysi {
namespace engine {

/// State transfer (Section 3.4). Every copy of a site's state is the state
/// at a pinned snapshot (Database::PinCheckpoint), read once, one store
/// shard at a time, and cut into chunks:
///
///   chunk = varint(rows) + rows x (PutString(key) + PutString(value))
///
/// A SNAPSHOT frame of the replication stream carries one chunk, a
/// checkpoint file is a run of them, and an in-process secondary is built
/// from them. A site restart installs the last checkpoint, then replays the
/// durable log suffix after its LSN (Database::RestoreFromDurable, through
/// OpenDataDir in engine/checkpointer.h).

/// One decoded row; the views are valid only during the call.
using SnapshotRowFn =
    std::function<void(std::string_view key, std::string_view value)>;

/// Encodes the rows of `db` at `pin` into chunks, sealing one when its rows
/// reach `chunk_bytes` and at the end of every shard. Rows are encoded under
/// a shard's reader lock and each chunk is handed to `emit` after the lock
/// is released. `covers`, when set, keeps only the keys it accepts. Stops at
/// the first error `emit` returns; otherwise returns the number of rows
/// encoded. Hold `pin` until this returns.
Result<std::uint64_t> EncodeSnapshotChunks(
    Database* db, const Database::CheckpointPin& pin, std::size_t chunk_bytes,
    const std::function<bool(const std::string&)>& covers,
    const std::function<Status(std::string chunk)>& emit);

/// Decodes the chunk at data[*offset], which must run to the end of `data`,
/// handing each row to `row` as it decodes. False — with *offset wherever
/// the parse stopped, never past data.size() — on a malformed count or row
/// or on trailing bytes. Never allocates in proportion to the claimed count.
bool DecodeSnapshotChunk(std::string_view data, std::size_t* offset,
                         const SnapshotRowFn& row);

/// Writes the state of `db` at `pin` to `path`, atomically renamed into
/// place: magic "LZSICKP2", varint(as_of), varint(lsn), each chunk as a
/// length-prefixed string, an empty string, then the CRC-32C of everything
/// after the magic. Walks the store once. Hold `pin` until this returns.
Status SaveCheckpoint(Database* db, const Database::CheckpointPin& pin,
                      const std::string& path);

/// A checkpoint file read back one chunk at a time, so neither the file nor
/// the state it holds is ever in memory whole.
class CheckpointReader {
 public:
  /// Opens `path` and checks it end to end — magic, header, every chunk and
  /// the checksum — in one streaming pass that hands out no row. NotFound
  /// when the file is missing; InvalidArgument when it is damaged, cut
  /// short, or written in another format.
  static Result<std::unique_ptr<CheckpointReader>> Open(
      const std::string& path);

  Timestamp as_of() const { return as_of_; }
  std::size_t lsn() const { return lsn_; }

  /// Reads the file once more, handing `chunk` one chunk at a time (decode
  /// it with DecodeSnapshotChunk). Stops at the first error `chunk` returns.
  /// The checksum is checked only at the end of the pass.
  Status ForEachChunk(
      const std::function<Status(std::string_view chunk)>& chunk);

 private:
  explicit CheckpointReader(std::string path) : path_(std::move(path)) {}

  std::string path_;
  Timestamp as_of_ = kInvalidTimestamp;
  std::size_t lsn_ = 0;
};

/// Applies the committed transactions found in `records` to `db`, one local
/// transaction per primary transaction through the full Begin/Put/Commit
/// concurrency control, in commit order. Updates belonging to transactions
/// that aborted (or never committed within `records`) are discarded.
/// Returns the number of transactions applied. The independent oracle that
/// OpenDataDir's timestamp-preserving restore is checked against.
Result<std::size_t> ReplayLog(Database* db,
                              const std::vector<wal::LogRecord>& records);

}  // namespace engine
}  // namespace lazysi

#endif  // LAZYSI_ENGINE_RECOVERY_H_
