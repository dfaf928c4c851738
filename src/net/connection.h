#ifndef LAZYSI_NET_CONNECTION_H_
#define LAZYSI_NET_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "net/event_loop.h"

namespace lazysi {
namespace net {

/// One non-blocking socket registered on an EventLoop: reads are pushed to
/// the owner as raw bytes (framing stays with the protocol layer), writes
/// are buffered and flushed with writev (scatter-gather over the queued
/// chunks, so a burst of frames costs one syscall, not one per frame).
///
/// All callbacks run on the loop thread. Write() and Close() are safe from
/// any thread; everything else is loop-thread-only.
///
/// Output is *bounded by the caller's discipline*, not by dropping: the
/// owner checks output_bytes() against its own ceiling and stops producing
/// (backpressure); on_drain fires when a flush brings the buffer back under
/// low_watermark so the owner can resume.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  struct Options {
    std::size_t read_chunk = 64 * 1024;
    /// Max chunks gathered into one writev call.
    std::size_t max_writev_iovecs = 64;
    /// on_drain fires when a flush moves output_bytes from >= this to
    /// < this (edge-triggered resume signal for a stalled producer).
    std::size_t low_watermark = 64 * 1024;
  };

  struct Callbacks {
    /// Raw bytes off the socket, in order. May call Close().
    std::function<void(Connection&, std::string_view)> on_bytes;
    /// Output buffer fell below low_watermark after having been at/above it.
    std::function<void(Connection&)> on_drain;
    /// Connection is gone (peer EOF, error, or Close()); fires exactly once.
    /// The fd is already closed when this runs.
    std::function<void(Connection&)> on_close;
  };

  struct Counters {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t writev_calls = 0;
    /// Flushes that fully drained the buffer.
    std::uint64_t flushes = 0;
    /// writev calls cut short by a full socket buffer (EPOLLOUT armed).
    std::uint64_t partial_flushes = 0;
  };

  /// Takes ownership of a connected fd: sets O_NONBLOCK and registers for
  /// EPOLLIN. Loop-thread-only (or before the loop starts).
  static std::shared_ptr<Connection> Adopt(EventLoop* loop, int fd,
                                           Options options,
                                           Callbacks callbacks);

  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Appends to the output buffer and flushes opportunistically (inline
  /// when called on the loop thread and the socket is writable; otherwise a
  /// flush task is posted, which naturally coalesces cross-thread bursts
  /// into fewer writev calls). Bytes written after close are dropped.
  void Write(std::string bytes);

  /// Bytes buffered but not yet accepted by the kernel.
  std::size_t output_bytes() const {
    return output_bytes_.load(std::memory_order_acquire);
  }

  /// Pauses (or resumes) read-side delivery by disarming EPOLLIN, so the
  /// kernel socket buffer fills and TCP backpressures the peer — the
  /// read-side analogue of the output_bytes() discipline. Safe from any
  /// thread (applied on the loop thread); no-op after close. Bytes already
  /// read may still be delivered once more in the current event batch.
  void PauseReads(bool paused);

  /// Idempotent, any thread. on_close fires on the loop thread.
  void Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  int fd() const { return fd_; }
  EventLoop* loop() const { return loop_; }
  Counters counters() const;

 private:
  Connection(EventLoop* loop, int fd, Options options, Callbacks callbacks);

  void OnEvents(std::uint32_t events);
  void ReadReady();
  void Flush();
  void DoClose();
  void ArmWrite(bool enable);
  /// Re-derives the epoll interest mask from read_paused_ / epollout_armed_.
  void UpdateEpollMask();

  EventLoop* loop_;
  const int fd_;
  Options options_;
  Callbacks callbacks_;

  std::mutex out_mu_;
  std::deque<std::string> out_;     // guarded by out_mu_
  std::size_t out_front_off_ = 0;   // guarded by out_mu_
  std::atomic<std::size_t> output_bytes_{0};
  std::atomic<bool> flush_posted_{false};

  // Loop-thread-only state.
  /// options_.read_chunk bytes that every read of this connection lands in;
  /// allocated once, not zero-filled.
  std::unique_ptr<char[]> read_buf_;
  bool close_done_ = false;
  bool epollout_armed_ = false;
  bool read_paused_ = false;
  bool above_low_ = false;

  std::atomic<bool> closed_{false};

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> partial_flushes_{0};
};

}  // namespace net
}  // namespace lazysi

#endif  // LAZYSI_NET_CONNECTION_H_
