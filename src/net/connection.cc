#include "net/connection.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <utility>

namespace lazysi {
namespace net {

std::shared_ptr<Connection> Connection::Adopt(EventLoop* loop, int fd,
                                              Options options,
                                              Callbacks callbacks) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  std::shared_ptr<Connection> conn(
      new Connection(loop, fd, std::move(options), std::move(callbacks)));
  // The registration's callback holds a strong ref: the connection stays
  // alive until RemoveFd (in DoClose), even if the owner drops its handle.
  loop->AddFd(fd, EPOLLIN, [conn](std::uint32_t events) {
    conn->OnEvents(events);
  });
  return conn;
}

Connection::Connection(EventLoop* loop, int fd, Options options,
                       Callbacks callbacks)
    : loop_(loop),
      fd_(fd),
      options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      read_buf_(std::make_unique_for_overwrite<char[]>(options_.read_chunk)) {}

Connection::~Connection() {
  // DoClose already ran (it holds the only paths that release the epoll
  // registration's strong ref), so the fd is closed by now.
}

void Connection::Write(std::string bytes) {
  if (bytes.empty() || closed_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    // Re-check under the lock: DoClose sets closed_ before draining out_,
    // so a write racing the close either lands before the drain (and is
    // cleared by it) or observes closed_ here — never bytes left queued,
    // and never a nonzero output_bytes(), on a closed connection.
    if (closed_.load(std::memory_order_acquire)) return;
    output_bytes_.fetch_add(bytes.size(), std::memory_order_acq_rel);
    out_.push_back(std::move(bytes));
  }
  if (loop_->InLoop()) {
    if (!close_done_ && !epollout_armed_) Flush();
  } else if (!flush_posted_.exchange(true, std::memory_order_acq_rel)) {
    auto self = shared_from_this();
    loop_->Post([self] {
      self->flush_posted_.store(false, std::memory_order_release);
      if (!self->close_done_ && !self->epollout_armed_) self->Flush();
    });
  }
}

void Connection::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  auto self = shared_from_this();
  loop_->RunInLoop([self] { self->DoClose(); });
}

Connection::Counters Connection::counters() const {
  Counters c;
  c.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  c.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  c.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  c.flushes = flushes_.load(std::memory_order_relaxed);
  c.partial_flushes = partial_flushes_.load(std::memory_order_relaxed);
  return c;
}

void Connection::OnEvents(std::uint32_t events) {
  if (close_done_) return;
  if (events & EPOLLIN) ReadReady();
  if (close_done_) return;
  if (events & EPOLLOUT) Flush();
  if (close_done_) return;
  if ((events & (EPOLLHUP | EPOLLERR)) && !(events & EPOLLIN)) DoClose();
}

void Connection::ReadReady() {
  // A few reads per event keeps one chatty peer from starving the rest of
  // the loop; level-triggered epoll re-reports whatever is left.
  for (int round = 0; round < 4; ++round) {
    const ssize_t n = ::recv(fd_, read_buf_.get(), options_.read_chunk, 0);
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      if (callbacks_.on_bytes) {
        callbacks_.on_bytes(
            *this,
            std::string_view(read_buf_.get(), static_cast<std::size_t>(n)));
      }
      if (close_done_) return;
      if (static_cast<std::size_t>(n) < options_.read_chunk) return;
      continue;
    }
    if (n == 0) {
      DoClose();
      return;
    }
    if (errno == EINTR) {
      --round;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    DoClose();
    return;
  }
}

void Connection::PauseReads(bool paused) {
  auto self = shared_from_this();
  loop_->RunInLoop([self, paused] {
    if (self->close_done_ || self->read_paused_ == paused) return;
    self->read_paused_ = paused;
    self->UpdateEpollMask();
  });
}

void Connection::ArmWrite(bool enable) {
  if (enable == epollout_armed_) return;
  epollout_armed_ = enable;
  UpdateEpollMask();
}

void Connection::UpdateEpollMask() {
  // With reads paused and no flush pending the mask is empty, but EPOLLHUP /
  // EPOLLERR are always reported, so a dying peer still reaches OnEvents.
  std::uint32_t events = read_paused_ ? 0u : std::uint32_t{EPOLLIN};
  if (epollout_armed_) events |= EPOLLOUT;
  loop_->ModFd(fd_, events);
}

void Connection::Flush() {
  // Latch the high-water state up front: partial flushes return early, and
  // the eventual full drain must still know a producer may be stalled.
  if (output_bytes_.load(std::memory_order_acquire) >=
      options_.low_watermark) {
    above_low_ = true;
  }
  for (;;) {
    struct iovec iov[64];
    std::size_t niov = 0;
    std::size_t gathered = 0;
    {
      std::lock_guard<std::mutex> lock(out_mu_);
      if (out_.empty()) break;
      std::size_t off = out_front_off_;
      const std::size_t max_iov =
          std::min<std::size_t>(options_.max_writev_iovecs, 64);
      for (const auto& chunk : out_) {
        if (niov == max_iov) break;
        // Only the loop thread pops/shrinks entries and producers only
        // push_back, so these pointers stay valid after unlock.
        iov[niov].iov_base = const_cast<char*>(chunk.data()) + off;
        iov[niov].iov_len = chunk.size() - off;
        gathered += chunk.size() - off;
        off = 0;
        ++niov;
      }
    }
    // sendmsg rather than writev for MSG_NOSIGNAL: a peer that resets
    // mid-stream (connection cut, kill -9) must surface as EPIPE on this
    // connection, not SIGPIPE to the whole process.
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    ssize_t w;
    do {
      w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    } while (w < 0 && errno == EINTR);
    writev_calls_.fetch_add(1, std::memory_order_relaxed);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        partial_flushes_.fetch_add(1, std::memory_order_relaxed);
        ArmWrite(true);
        return;
      }
      DoClose();
      return;
    }
    bytes_sent_.fetch_add(static_cast<std::uint64_t>(w),
                          std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(out_mu_);
      std::size_t left = static_cast<std::size_t>(w);
      while (left > 0 && !out_.empty()) {
        const std::size_t avail = out_.front().size() - out_front_off_;
        if (left >= avail) {
          left -= avail;
          out_.pop_front();
          out_front_off_ = 0;
        } else {
          out_front_off_ += left;
          left = 0;
        }
      }
      output_bytes_.fetch_sub(static_cast<std::size_t>(w),
                              std::memory_order_acq_rel);
    }
    if (static_cast<std::size_t>(w) < gathered) {
      // Kernel buffer full mid-gather; wait for writable.
      partial_flushes_.fetch_add(1, std::memory_order_relaxed);
      ArmWrite(true);
      return;
    }
    // Full gather written; loop in case producers queued more than
    // max_writev_iovecs chunks.
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  ArmWrite(false);
  const std::size_t now_buffered =
      output_bytes_.load(std::memory_order_acquire);
  if (now_buffered < options_.low_watermark && above_low_) {
    above_low_ = false;
    if (callbacks_.on_drain) callbacks_.on_drain(*this);
  }
}

void Connection::DoClose() {
  if (close_done_) return;
  close_done_ = true;
  closed_.store(true, std::memory_order_release);
  loop_->RemoveFd(fd_);
  ::close(fd_);
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.clear();
    out_front_off_ = 0;
    output_bytes_.store(0, std::memory_order_release);
  }
  if (callbacks_.on_close) callbacks_.on_close(*this);
}

}  // namespace net
}  // namespace lazysi
