#include "common/durable_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace lazysi {

std::string ParentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status EnsureDirectory(const std::string& dir) {
  if (dir.empty() || dir == "." || dir == "/") return Status::OK();
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  if (errno == ENOENT) {
    LAZYSI_RETURN_NOT_OK(EnsureDirectory(ParentDirectory(dir)));
    if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
      return Status::OK();
    }
  }
  return Status::Internal("mkdir " + dir + ": " + std::strerror(errno));
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync directory " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteFileDurably(const std::string& path, const std::string& contents) {
  DurableFileWriter writer(path);
  LAZYSI_RETURN_NOT_OK(writer.Open());
  LAZYSI_RETURN_NOT_OK(writer.Append(contents));
  return writer.Commit();
}

DurableFileWriter::DurableFileWriter(std::string path)
    : path_(std::move(path)), tmp_(path_ + ".tmp") {}

DurableFileWriter::~DurableFileWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(tmp_.c_str());
  }
}

Status DurableFileWriter::Open() {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Internal("open " + tmp_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status DurableFileWriter::Append(std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write " + tmp_ + ": " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status DurableFileWriter::Commit() {
  // fsync before rename: otherwise the rename can land on disk ahead of the
  // data and a crash leaves a zero-length or torn file at the final name.
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync " + tmp_ + ": " + std::strerror(errno));
  }
  ::close(fd_);
  fd_ = -1;
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp_.c_str());
    return Status::Internal("rename " + tmp_ + " -> " + path_ + ": " + err);
  }
  // fsync the directory so the rename itself survives a crash.
  return FsyncDirectory(ParentDirectory(path_));
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read " + path);
  return Status::OK();
}

}  // namespace lazysi
