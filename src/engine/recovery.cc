#include "engine/recovery.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <map>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/durable_file.h"

namespace lazysi {
namespace engine {

using codec::GetBytes;
using codec::GetVarint;
using codec::PutString;
using codec::PutVarint;

namespace {

constexpr char kMagic[8] = {'L', 'Z', 'S', 'I', 'C', 'K', 'P', '2'};

/// Rows per checkpoint chunk, by encoded size.
constexpr std::size_t kCheckpointChunkBytes = 1 << 16;

}  // namespace

Result<std::uint64_t> EncodeSnapshotChunks(
    Database* db, const Database::CheckpointPin& pin, std::size_t chunk_bytes,
    const std::function<bool(const std::string&)>& covers,
    const std::function<Status(std::string chunk)>& emit) {
  storage::VersionedStore* store = db->store();
  std::uint64_t total = 0;
  std::vector<std::string> chunks;
  std::string body;
  std::uint64_t rows = 0;
  const auto seal = [&] {
    std::string chunk;
    chunk.reserve(body.size() + 10);
    PutVarint(&chunk, rows);
    chunk += body;
    chunks.push_back(std::move(chunk));
    total += rows;
    body.clear();
    rows = 0;
  };
  for (std::size_t shard = 0; shard < store->shard_count(); ++shard) {
    store->ForEachVisibleInShard(
        shard, pin.as_of,
        [&](const std::string& key, const storage::Value& value) {
          if (covers && !covers(key)) return;
          PutString(&body, key);
          PutString(&body, value);
          ++rows;
          if (body.size() >= chunk_bytes) seal();
        });
    if (rows > 0) seal();
    for (std::string& chunk : chunks) {
      LAZYSI_RETURN_NOT_OK(emit(std::move(chunk)));
    }
    chunks.clear();
  }
  return total;
}

bool DecodeSnapshotChunk(std::string_view data, std::size_t* offset,
                         const SnapshotRowFn& row) {
  std::uint64_t rows = 0;
  if (!GetVarint(data, offset, &rows)) return false;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::string_view key;
    std::string_view value;
    if (!GetBytes(data, offset, &key) || !GetBytes(data, offset, &value)) {
      return false;
    }
    row(key, value);
  }
  return *offset == data.size();
}

Status SaveCheckpoint(Database* db, const Database::CheckpointPin& pin,
                      const std::string& path) {
  DurableFileWriter file(path);
  LAZYSI_RETURN_NOT_OK(file.Open());
  LAZYSI_RETURN_NOT_OK(file.Append({kMagic, sizeof(kMagic)}));
  std::uint32_t crc = 0;
  const auto append = [&](std::string_view bytes) {
    crc = Crc32c(bytes, crc);
    return file.Append(bytes);
  };
  std::string header;
  PutVarint(&header, pin.as_of);
  PutVarint(&header, pin.lsn);
  LAZYSI_RETURN_NOT_OK(append(header));
  auto rows = EncodeSnapshotChunks(
      db, pin, kCheckpointChunkBytes, nullptr, [&](std::string chunk) {
        std::string length;
        PutVarint(&length, chunk.size());
        LAZYSI_RETURN_NOT_OK(append(length));
        return append(chunk);
      });
  if (!rows.ok()) return rows.status();
  std::string end;
  PutVarint(&end, 0);
  LAZYSI_RETURN_NOT_OK(append(end));
  std::string trailer;
  AppendCrc32(&trailer, crc);
  LAZYSI_RETURN_NOT_OK(file.Append(trailer));
  return file.Commit();
}

Result<std::unique_ptr<CheckpointReader>> CheckpointReader::Open(
    const std::string& path) {
  std::unique_ptr<CheckpointReader> reader(new CheckpointReader(path));
  LAZYSI_RETURN_NOT_OK(reader->ForEachChunk([](std::string_view chunk) {
    std::size_t offset = 0;
    return DecodeSnapshotChunk(chunk, &offset,
                               [](std::string_view, std::string_view) {})
               ? Status::OK()
               : Status::InvalidArgument("malformed checkpoint chunk");
  }));
  return reader;
}

Status CheckpointReader::ForEachChunk(
    const std::function<Status(std::string_view chunk)>& chunk) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path_.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return Status::NotFound("cannot open '" + path_ + "'");
  struct stat st;
  if (::fstat(::fileno(f.get()), &st) != 0) {
    return Status::Internal("cannot stat '" + path_ + "'");
  }
  std::uint64_t left = static_cast<std::uint64_t>(st.st_size);
  const auto bad = [this](const std::string& why) {
    return Status::InvalidArgument("'" + path_ + "': " + why);
  };
  char magic[sizeof(kMagic)];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return bad("not a lazysi checkpoint of this format");
  }
  left -= sizeof(magic);
  std::uint32_t crc = 0;
  // Reads one varint a byte at a time, folding its bytes into the checksum.
  const auto read_varint = [&](std::uint64_t* v) {
    std::string bytes;
    for (;;) {
      const int c = std::getc(f.get());
      if (c == EOF || bytes.size() == 10) return false;
      bytes.push_back(static_cast<char>(c));
      if ((c & 0x80) == 0) break;
    }
    left -= bytes.size();
    crc = Crc32c(bytes, crc);
    std::size_t offset = 0;
    return GetVarint(bytes, &offset, v);
  };
  std::uint64_t as_of = 0;
  std::uint64_t lsn = 0;
  if (!read_varint(&as_of) || !read_varint(&lsn)) return bad("header cut");
  as_of_ = as_of;
  lsn_ = static_cast<std::size_t>(lsn);
  std::string buffer;
  for (;;) {
    std::uint64_t length = 0;
    if (!read_varint(&length)) return bad("chunk length cut");
    if (length == 0) break;
    if (length > left) return bad("chunk runs past the end of the file");
    buffer.resize(static_cast<std::size_t>(length));
    if (std::fread(buffer.data(), 1, buffer.size(), f.get()) !=
        buffer.size()) {
      return bad("chunk cut");
    }
    left -= length;
    crc = Crc32c(buffer, crc);
    LAZYSI_RETURN_NOT_OK(chunk(buffer));
  }
  char trailer[4];
  if (std::fread(trailer, 1, sizeof(trailer), f.get()) != sizeof(trailer) ||
      std::getc(f.get()) != EOF) {
    return bad("no checksum at the end");
  }
  if (ReadCrc32({trailer, sizeof(trailer)}, 0) != crc) {
    return bad("failed checksum");
  }
  return Status::OK();
}

Result<std::size_t> ReplayLog(Database* db,
                              const std::vector<wal::LogRecord>& records) {
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

}  // namespace engine
}  // namespace lazysi
