#ifndef LAZYSI_COMMON_DURABLE_FILE_H_
#define LAZYSI_COMMON_DURABLE_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace lazysi {

/// Crash-safe whole-file replacement: write `contents` to a temp file in the
/// same directory, fsync the temp file, rename() it over `path`, then fsync
/// the parent directory so the rename itself is durable. After a crash the
/// file at `path` is either the old contents or the new contents, never a
/// torn or zero-length intermediate.
Status WriteFileDurably(const std::string& path, const std::string& contents);

/// Streaming form of WriteFileDurably, for a file too large to build in
/// memory first: Open, Append any number of times, then Commit. Until
/// Commit succeeds `path` keeps its old contents; a writer destroyed
/// without a successful Commit removes its temp file.
class DurableFileWriter {
 public:
  explicit DurableFileWriter(std::string path);
  ~DurableFileWriter();

  DurableFileWriter(const DurableFileWriter&) = delete;
  DurableFileWriter& operator=(const DurableFileWriter&) = delete;

  Status Open();
  Status Append(std::string_view data);
  /// fsyncs the temp file, renames it over `path` and fsyncs the directory.
  Status Commit();

 private:
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
};

/// Reads an entire file into `out`. NotFound if the file does not exist.
Status ReadWholeFile(const std::string& path, std::string* out);

/// fsync() of a directory (makes renames/creates/unlinks inside it durable).
Status FsyncDirectory(const std::string& dir);

/// Returns the parent directory of `path` ("." if it has no separator).
std::string ParentDirectory(const std::string& path);

/// Creates `dir` (and missing parents). OK if it already exists.
Status EnsureDirectory(const std::string& dir);

}  // namespace lazysi

#endif  // LAZYSI_COMMON_DURABLE_FILE_H_
