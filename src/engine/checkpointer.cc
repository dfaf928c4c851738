#include "engine/checkpointer.h"

#include <algorithm>
#include <cstdio>

#include <unistd.h>

#include "common/durable_file.h"
#include "common/logging.h"

namespace lazysi {
namespace engine {

namespace {
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestMagic[] = "LZSIMAN1";
}  // namespace

Status WriteManifest(const std::string& data_dir, const Manifest& manifest) {
  std::string text(kManifestMagic);
  text += "\ncheckpoint_lsn=" + std::to_string(manifest.checkpoint_lsn);
  text += "\ncheckpoint_file=" + manifest.checkpoint_file;
  text += "\n";
  return WriteFileDurably(data_dir + "/" + kManifestName, text);
}

Result<Manifest> LoadManifest(const std::string& data_dir) {
  std::string text;
  LAZYSI_RETURN_NOT_OK(ReadWholeFile(data_dir + "/" + kManifestName, &text));
  if (text.rfind(kManifestMagic, 0) != 0) {
    return Status::InvalidArgument("bad manifest magic in " + data_dir);
  }
  Manifest m;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "checkpoint_lsn") {
      m.checkpoint_lsn = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "checkpoint_file") {
      m.checkpoint_file = value;
    }
  }
  return m;
}

Checkpointer::Checkpointer(Database* db, wal::DurableLog* durable,
                           Options options)
    : db_(db), durable_(durable), options_(std::move(options)) {}

Checkpointer::~Checkpointer() { Stop(); }

void Checkpointer::Start() {
  if (options_.interval.count() <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread(&Checkpointer::Loop, this);
}

void Checkpointer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void Checkpointer::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, options_.interval, [this] { return stop_; })) {
        return;
      }
    }
    Status s = CheckpointNow();
    if (!s.ok()) {
      LAZYSI_WARN("checkpointer: cycle failed: " << s.ToString());
    }
  }
}

Status Checkpointer::CheckpointNow() {
  // 1. Consistent (snapshot, LSN) pair at the visibility watermark, pinned
  // against version GC until the snapshot is on disk.
  Database::CheckpointPin cp = db_->PinCheckpoint();

  // 2. The checkpoint claims "everything below cp.lsn is reflected here";
  // nothing may reference it until those records are actually on disk.
  LAZYSI_RETURN_NOT_OK(durable_->Flush(cp.lsn));

  // 3. Stream the pinned snapshot to disk, then swing the manifest (both
  // durable renames).
  const std::string file = "checkpoint-" + std::to_string(cp.lsn);
  LAZYSI_RETURN_NOT_OK(
      SaveCheckpoint(db_, cp, options_.data_dir + "/" + file));
  cp.txn.reset();
  Manifest m;
  m.checkpoint_lsn = cp.lsn;
  m.checkpoint_file = file;
  LAZYSI_RETURN_NOT_OK(WriteManifest(options_.data_dir, m));
  std::string previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous = current_checkpoint_file_;
    current_checkpoint_file_ = file;
  }
  if (!previous.empty() && previous != file) {
    ::unlink((options_.data_dir + "/" + previous).c_str());
  }

  // 4. Truncate the durable log below the floor: the checkpoint LSN, held
  // back by any propagation sink that still needs older records for resync.
  std::uint64_t floor = cp.lsn;
  if (options_.log_floor) {
    floor = std::min<std::uint64_t>(floor, options_.log_floor());
  }
  auto new_base = durable_->TruncateBelow(floor);
  if (!new_base.ok()) return new_base.status();

  // 5. Mirror into the in-memory log, bounding it to the live suffix.
  db_->log()->TruncateBelow(*new_base);

  checkpoint_count_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_lsn_.store(cp.lsn, std::memory_order_relaxed);
  return Status::OK();
}

Result<DataDirState> OpenDataDir(Database* db, const std::string& data_dir,
                                 wal::DurableLog::Options log_options) {
  LAZYSI_RETURN_NOT_OK(EnsureDirectory(data_dir));
  log_options.dir = data_dir + "/wal";

  DataDirState state;
  wal::DurableLog::Recovered recovered;
  auto durable = wal::DurableLog::Open(log_options, &recovered);
  if (!durable.ok()) return durable.status();
  state.durable = std::move(durable).value();
  state.base_lsn = recovered.base_lsn;
  state.base_record_seq = recovered.base_record_seq;
  state.tail_truncated = recovered.tail_truncated;

  // The checkpoint is checked end to end before anything is installed, so
  // a damaged one leaves `db` untouched.
  std::unique_ptr<CheckpointReader> checkpoint;
  auto manifest = LoadManifest(data_dir);
  if (manifest.ok() && !manifest->checkpoint_file.empty()) {
    auto opened =
        CheckpointReader::Open(data_dir + "/" + manifest->checkpoint_file);
    if (!opened.ok()) return opened.status();
    checkpoint = std::move(opened).value();
  } else if (!manifest.ok() && !manifest.status().IsNotFound()) {
    return manifest.status();
  }

  state.had_state = checkpoint != nullptr || !recovered.records.empty();
  auto report = db->RestoreFromDurable(checkpoint.get(), recovered.records,
                                       recovered.base_lsn,
                                       state.durable.get());
  if (!report.ok()) return report.status();
  state.report = std::move(report).value();
  db->AttachDurableLog(state.durable.get());
  return state;
}

}  // namespace engine
}  // namespace lazysi
