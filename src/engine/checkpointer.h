#ifndef LAZYSI_ENGINE_CHECKPOINTER_H_
#define LAZYSI_ENGINE_CHECKPOINTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "wal/durable_log.h"

namespace lazysi {
namespace engine {

/// The data-dir manifest: which checkpoint file (if any) is current, and the
/// log position recovery resumes replay from. Written durably (temp file +
/// fsync + rename + directory fsync), so after any crash the manifest names
/// either the old checkpoint or the new one, both fully on disk.
struct Manifest {
  std::uint64_t checkpoint_lsn = 0;
  std::string checkpoint_file;  // relative to the data dir; empty = none
};

Status WriteManifest(const std::string& data_dir, const Manifest& manifest);
/// NotFound when no manifest exists yet (fresh data dir).
Result<Manifest> LoadManifest(const std::string& data_dir);

/// Periodic checkpointing with changelog truncation (Section 3.4's "replay
/// the suffix of the log after the checkpoint", made bounded):
///
///   1. Database::PinCheckpoint() — a consistent (snapshot, LSN) pair at
///      the visibility watermark; non-quiescent, commits keep flowing.
///   2. DurableLog::Flush(lsn) — every record the checkpoint covers must be
///      on disk before anything references the checkpoint.
///   3. SaveCheckpoint streams the pinned snapshot to disk one store shard
///      at a time, then WriteManifest (both durable); drop the previous
///      checkpoint file.
///   4. Truncate log segments below floor = min(checkpoint LSN, the
///      propagation sinks' min-ack LSN from `log_floor`) — a secondary that
///      has not acked past the floor still needs those records for resync.
///   5. Mirror the truncation into the in-memory LogicalLog, which bounds
///      its memory to the live suffix.
class Checkpointer {
 public:
  struct Options {
    std::string data_dir;
    /// Cadence of the background thread; <= 0 means manual only
    /// (CheckpointNow).
    std::chrono::milliseconds interval{0};
    /// Lower bound on the truncation floor from the propagation side (min
    /// sink ack LSN); null means the checkpoint LSN alone is the floor.
    std::function<std::uint64_t()> log_floor;
  };

  Checkpointer(Database* db, wal::DurableLog* durable, Options options);
  ~Checkpointer();

  void Start();
  void Stop();

  /// One full checkpoint-and-truncate cycle (steps 1-5 above).
  Status CheckpointNow();

  std::uint64_t checkpoint_count() const {
    return checkpoint_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t last_checkpoint_lsn() const {
    return last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();

  Database* db_;
  wal::DurableLog* durable_;
  Options options_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
  std::string current_checkpoint_file_;  // relative; tracked for unlinking

  std::atomic<std::uint64_t> checkpoint_count_{0};
  std::atomic<std::uint64_t> last_checkpoint_lsn_{0};
};

/// Everything OpenDataDir recovered, handed to the caller for propagator
/// seeding; the DurableLog stays attached to the database for mirroring.
struct DataDirState {
  std::unique_ptr<wal::DurableLog> durable;
  Database::RestoreReport report;
  std::uint64_t base_lsn = 0;         // oldest retained LSN
  std::uint64_t base_record_seq = 0;  // propagation seq at base_lsn
  bool had_state = false;  // false: fresh data dir, nothing restored
  bool tail_truncated = false;  // a torn tail was dropped on open
};

/// Opens (creating if needed) a primary data directory: durable log under
/// `<data_dir>/wal`, checkpoint + MANIFEST at the top level. Restores `db`
/// (which must be fresh) from the manifest checkpoint plus the bounded log
/// suffix, then attaches the durable log so new commits are mirrored and
/// gated on the flushed watermark.
Result<DataDirState> OpenDataDir(Database* db, const std::string& data_dir,
                                 wal::DurableLog::Options log_options);

}  // namespace engine
}  // namespace lazysi

#endif  // LAZYSI_ENGINE_CHECKPOINTER_H_
