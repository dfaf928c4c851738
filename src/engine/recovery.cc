#include "engine/recovery.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "common/codec.h"
#include "common/durable_file.h"
#include "common/hash.h"

namespace lazysi {
namespace engine {

using codec::GetString;
using codec::GetVarint;
using codec::PutString;
using codec::PutVarint;

namespace {

constexpr char kMagic[8] = {'L', 'Z', 'S', 'I', 'C', 'K', 'P', '1'};

void AppendLE64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t ReadLE64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

/// Writes the checkpoint format — magic, payload, FNV-1a of the payload —
/// to a durable file without holding the payload whole: entries collect in
/// a buffer that Flush hashes and writes out.
class CheckpointFileWriter {
 public:
  explicit CheckpointFileWriter(const std::string& path) : file_(path) {}

  /// Starts the file; the payload header declares `count` entries.
  Status Open(Timestamp as_of, std::size_t lsn, std::size_t count) {
    LAZYSI_RETURN_NOT_OK(file_.Open());
    LAZYSI_RETURN_NOT_OK(file_.Append({kMagic, sizeof(kMagic)}));
    PutVarint(&buffer_, as_of);
    PutVarint(&buffer_, lsn);
    PutVarint(&buffer_, count);
    return Status::OK();
  }

  void Add(std::string_view key, std::string_view value) {
    PutString(&buffer_, key);
    PutString(&buffer_, value);
  }

  std::size_t buffered() const { return buffer_.size(); }

  Status Flush() {
    hash_ = Fnv1a64(buffer_, hash_);
    Status s = file_.Append(buffer_);
    buffer_.clear();
    return s;
  }

  /// Appends the checksum and makes the file durable at its final name.
  Status Commit() {
    LAZYSI_RETURN_NOT_OK(Flush());
    AppendLE64(&buffer_, hash_);
    LAZYSI_RETURN_NOT_OK(file_.Append(buffer_));
    return file_.Commit();
  }

 private:
  DurableFileWriter file_;
  std::string buffer_;
  std::uint64_t hash_ = Fnv1a64({});
};

constexpr std::size_t kWriteChunk = 1 << 16;

}  // namespace

Status SaveCheckpoint(const Database::Checkpoint& checkpoint,
                      const std::string& path) {
  CheckpointFileWriter writer(path);
  LAZYSI_RETURN_NOT_OK(
      writer.Open(checkpoint.as_of, checkpoint.lsn, checkpoint.state.size()));
  for (const auto& [key, value] : checkpoint.state) {
    writer.Add(key, value);
    if (writer.buffered() >= kWriteChunk) LAZYSI_RETURN_NOT_OK(writer.Flush());
  }
  return writer.Commit();
}

Status SaveCheckpoint(Database* db, const Database::CheckpointPin& pin,
                      const std::string& path) {
  storage::VersionedStore* store = db->store();
  // The header declares the entry count, so a first pass counts. Both
  // passes read the pinned snapshot, which no commit or prune changes.
  std::size_t count = 0;
  for (std::size_t shard = 0; shard < store->shard_count(); ++shard) {
    store->ForEachVisibleInShard(
        shard, pin.as_of,
        [&count](const std::string&, const storage::Value&) { ++count; });
  }
  CheckpointFileWriter writer(path);
  LAZYSI_RETURN_NOT_OK(writer.Open(pin.as_of, pin.lsn, count));
  std::size_t written = 0;
  for (std::size_t shard = 0; shard < store->shard_count(); ++shard) {
    // Encode under the shard's lock, write after releasing it.
    store->ForEachVisibleInShard(
        shard, pin.as_of,
        [&](const std::string& key, const storage::Value& value) {
          writer.Add(key, value);
          ++written;
        });
    LAZYSI_RETURN_NOT_OK(writer.Flush());
  }
  if (written != count) {
    return Status::Internal("checkpoint snapshot changed while it was written");
  }
  return writer.Commit();
}

Result<Database::Checkpoint> LoadCheckpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open '" + path + "'");
  std::string file;
  char buffer[1 << 16];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    file.append(buffer, n);
  }
  std::fclose(f);

  if (file.size() < sizeof(kMagic) + 8 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a lazysi checkpoint");
  }
  const std::string payload =
      file.substr(sizeof(kMagic), file.size() - sizeof(kMagic) - 8);
  if (Fnv1a64(payload) != ReadLE64(file.data() + file.size() - 8)) {
    return Status::InvalidArgument("'" + path + "' failed checksum");
  }

  Database::Checkpoint cp;
  std::size_t offset = 0;
  std::uint64_t as_of = 0, lsn = 0, count = 0;
  if (!GetVarint(payload, &offset, &as_of) ||
      !GetVarint(payload, &offset, &lsn) ||
      !GetVarint(payload, &offset, &count)) {
    return Status::InvalidArgument("checkpoint header truncated");
  }
  cp.as_of = as_of;
  cp.lsn = lsn;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key;
    storage::Value value;
    if (!GetString(payload, &offset, &key) ||
        !GetString(payload, &offset, &value)) {
      return Status::InvalidArgument("checkpoint entry truncated");
    }
    cp.state[std::move(key)] = std::move(value);
  }
  if (offset != payload.size()) {
    return Status::InvalidArgument("checkpoint has trailing bytes");
  }
  return cp;
}

namespace {

/// Legacy replay engine: one full local transaction per committed primary
/// transaction, through the complete Begin/Put/Commit concurrency control.
Result<std::size_t> ReplayTransactional(
    Database* db, const std::vector<wal::LogRecord>& records) {
  // Rebuild per-transaction update lists exactly like the propagator
  // (Algorithm 3.1), then apply each committed transaction in log order.
  std::map<TxnId, std::vector<storage::Write>> lists;
  std::size_t applied = 0;
  for (const auto& record : records) {
    switch (record.type) {
      case wal::LogRecordType::kStart:
        lists[record.txn_id];
        break;
      case wal::LogRecordType::kUpdate:
        lists[record.txn_id].push_back(
            storage::Write{record.key, record.value, record.deleted});
        break;
      case wal::LogRecordType::kCommit: {
        auto it = lists.find(record.txn_id);
        if (it == lists.end()) {
          return Status::FailedPrecondition(
              "log replay: commit for a transaction whose start precedes "
              "the segment (checkpoint not quiesced)");
        }
        auto txn = db->Begin();
        for (const auto& w : it->second) {
          Status s = w.deleted ? txn->Delete(w.key) : txn->Put(w.key, w.value);
          if (!s.ok()) return s;
        }
        LAZYSI_RETURN_NOT_OK(txn->Commit());
        lists.erase(it);
        ++applied;
        break;
      }
      case wal::LogRecordType::kAbort:
        lists.erase(record.txn_id);
        break;
    }
  }
  return applied;
}

/// Group-apply replay engine: write sets go through the externally-ordered
/// commit protocol and runs of consecutive commits install in one
/// VersionedStore pass, exactly like the secondary's direct-apply refresher
/// (which is what replay simulates — see the file comment). FCW validation
/// is safely skipped: the records come from one site's log, where
/// conflicting transactions were never concurrent.
Result<std::size_t> ReplayGrouped(Database* db,
                                  const std::vector<wal::LogRecord>& records,
                                  const ReplayOptions& options) {
  struct Replaying {
    TxnId local_id = 0;
    std::vector<storage::Write> updates;
  };
  struct PendingInstall {
    std::unique_ptr<storage::WriteSet> writes;  // alive until Finish
    Timestamp local_commit_ts = kInvalidTimestamp;
  };
  txn::TxnManager* mgr = db->txn_manager();
  std::map<TxnId, Replaying> lists;
  std::vector<PendingInstall> group;
  const std::size_t group_limit = options.group_limit > 0 ? options.group_limit
                                                          : 1;
  // Installs the buffered run in one store pass, then publishes visibility
  // in allocation order (BeginExternalCommit was called in log order, so the
  // buffer is already sorted by commit timestamp as ApplyBatch requires).
  const auto flush = [&] {
    if (group.empty()) return;
    std::vector<storage::VersionedStore::TimestampedWrites> batch;
    batch.reserve(group.size());
    for (const auto& p : group) {
      batch.push_back({p.writes.get(), p.local_commit_ts});
    }
    db->store()->ApplyBatch(batch);
    for (const auto& p : group) {
      mgr->FinishExternalCommit(p.local_commit_ts);
    }
    group.clear();
  };
  std::size_t applied = 0;
  for (const auto& record : records) {
    switch (record.type) {
      case wal::LogRecordType::kStart: {
        Replaying& r = lists[record.txn_id];
        r.local_id = mgr->AllocateTxnId();
        mgr->ExternalStart(r.local_id);
        break;
      }
      case wal::LogRecordType::kUpdate:
        lists[record.txn_id].updates.push_back(
            storage::Write{record.key, record.value, record.deleted});
        break;
      case wal::LogRecordType::kCommit: {
        auto it = lists.find(record.txn_id);
        if (it == lists.end()) {
          flush();
          return Status::FailedPrecondition(
              "log replay: commit for a transaction whose start precedes "
              "the segment (checkpoint not quiesced)");
        }
        PendingInstall pending;
        pending.writes = std::make_unique<storage::WriteSet>();
        for (const auto& w : it->second.updates) {
          if (w.deleted) {
            pending.writes->Delete(w.key);
          } else {
            pending.writes->Put(w.key, w.value);
          }
        }
        pending.local_commit_ts =
            mgr->BeginExternalCommit(it->second.local_id, *pending.writes);
        group.push_back(std::move(pending));
        lists.erase(it);
        ++applied;
        if (group.size() >= group_limit) flush();
        break;
      }
      case wal::LogRecordType::kAbort: {
        auto it = lists.find(record.txn_id);
        if (it != lists.end()) {
          mgr->ExternalAbort(it->second.local_id);
          lists.erase(it);
        }
        break;
      }
    }
  }
  flush();
  // Transactions whose start is in the segment but whose outcome is not
  // (crash mid-transaction): never committed, so abort them locally.
  for (const auto& [id, r] : lists) mgr->ExternalAbort(r.local_id);
  return applied;
}

}  // namespace

Result<std::size_t> ReplayLog(Database* db,
                              const std::vector<wal::LogRecord>& records,
                              ReplayOptions options) {
  return options.group_apply ? ReplayGrouped(db, records, options)
                             : ReplayTransactional(db, records);
}

}  // namespace engine
}  // namespace lazysi
