#ifndef LAZYSI_TESTS_ENGINE_CHECKPOINT_ROWS_H_
#define LAZYSI_TESTS_ENGINE_CHECKPOINT_ROWS_H_

#include <map>
#include <string>

#include "common/result.h"
#include "engine/recovery.h"
#include "storage/value.h"

namespace lazysi {
namespace engine {

/// A checkpoint file read back whole, for comparing against a model.
struct CheckpointRows {
  Timestamp as_of = kInvalidTimestamp;
  std::size_t lsn = 0;
  std::map<std::string, storage::Value> rows;
};

/// Reads the checkpoint at `path` through CheckpointReader.
inline Result<CheckpointRows> ReadCheckpointRows(const std::string& path) {
  auto reader = CheckpointReader::Open(path);
  if (!reader.ok()) return reader.status();
  CheckpointRows out;
  out.as_of = (*reader)->as_of();
  out.lsn = (*reader)->lsn();
  Status read = (*reader)->ForEachChunk([&out](std::string_view chunk) {
    std::size_t offset = 0;
    return DecodeSnapshotChunk(chunk, &offset,
                               [&out](std::string_view key,
                                      std::string_view value) {
                                 out.rows[std::string(key)] =
                                     storage::Value(value);
                               })
               ? Status::OK()
               : Status::InvalidArgument("malformed chunk");
  });
  if (!read.ok()) return read;
  return out;
}

}  // namespace engine
}  // namespace lazysi

#endif  // LAZYSI_TESTS_ENGINE_CHECKPOINT_ROWS_H_
