#include "net/framed_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace lazysi {
namespace net {

namespace {

bool FillAddr(const std::string& host, std::uint16_t port,
              sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (host.empty() || host == "localhost") {
    addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

/// Polls `fd` for `events` until `deadline`: 1 when ready, 0 when the
/// deadline passed first, -1 on a poll error.
int PollUntil(int fd, short events,
              std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return 0;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0 && errno == EINTR) continue;
    return rc < 0 ? -1 : (rc == 0 ? 0 : 1);
  }
}

}  // namespace

void SetTcpNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int ListenOn(const std::string& host, std::uint16_t port,
             std::uint16_t* actual_port) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return -1;
  }
  if (actual_port != nullptr) *actual_port = ntohs(addr.sin_port);
  return fd;
}

int DialTcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return -1;
  }
  SetTcpNoDelay(fd);
  return fd;
}

int StartDialTcp(const std::string& host, std::uint16_t port,
                 bool* in_progress) {
  *in_progress = false;
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) {
    SetTcpNoDelay(fd);
    return fd;
  }
  if (errno == EINPROGRESS) {
    *in_progress = true;
    return fd;
  }
  ::close(fd);
  return -1;
}

bool FinishDial(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    return false;
  }
  SetTcpNoDelay(fd);
  return true;
}

int DialTcp(const std::string& host, std::uint16_t port,
            std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return DialTcp(host, port);
  bool in_progress = false;
  const int fd = StartDialTcp(host, port, &in_progress);
  if (fd < 0) return -1;
  if (in_progress) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    if (PollUntil(fd, POLLOUT, deadline) <= 0 || !FinishDial(fd)) {
      ::close(fd);
      return -1;
    }
  }
  // Back to blocking mode: FramedSocket's Send/Recv are blocking-style.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

int AcceptOn(int listen_fd) {
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) SetTcpNoDelay(fd);
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool FramedSocket::Send(std::string_view payload) {
  std::string wire;
  wire.reserve(payload.size() + 4);
  AppendTcpFrame(&wire, payload);
  return SendFramed(wire);
}

bool FramedSocket::SendFramed(std::string_view wire) {
  send_timed_out_ = false;
  if (fd_ < 0) return false;
  if (send_timeout_.count() <= 0) return SendAll(fd_, wire);
  const auto deadline = std::chrono::steady_clock::now() + send_timeout_;
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    // Socket buffer full: wait for room, but only until the deadline.
    const int ready = PollUntil(fd_, POLLOUT, deadline);
    if (ready <= 0) {
      send_timed_out_ = ready == 0;
      return false;
    }
  }
  return true;
}

std::optional<std::string> FramedSocket::Recv() {
  timed_out_ = false;
  if (fd_ < 0) return std::nullopt;
  const bool deadline_set = recv_timeout_.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + recv_timeout_;
  for (;;) {
    if (auto frame = framer_.Next()) return frame;
    if (framer_.poisoned()) return std::nullopt;
    if (deadline_set) {
      const int ready = PollUntil(fd_, POLLIN, deadline);
      if (ready <= 0) {
        timed_out_ = ready == 0;
        return std::nullopt;
      }
    }
    const ssize_t n = ::recv(fd_, buf_, sizeof(buf_), 0);
    if (n == 0) return std::nullopt;
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (!framer_.Feed(
            std::string_view(buf_, static_cast<std::size_t>(n)))) {
      return std::nullopt;
    }
  }
}

void FramedSocket::ShutdownNow() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void FramedSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace lazysi
