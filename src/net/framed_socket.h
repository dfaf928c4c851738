#ifndef LAZYSI_NET_FRAMED_SOCKET_H_
#define LAZYSI_NET_FRAMED_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lazysi {
namespace net {

/// Hard ceiling on one length-prefixed TCP frame. A propagation record is a
/// handful of keys and values; anything this large is a corrupt or hostile
/// length prefix, and honoring it would turn one flipped bit into a
/// multi-gigabyte allocation.
constexpr std::size_t kMaxTcpFrameBytes = 16u * 1024 * 1024;

/// Appends one wire frame — a 4-byte little-endian payload length followed
/// by the payload bytes — to `wire`. The inverse of TcpFramer.
inline void AppendTcpFrame(std::string* wire, std::string_view payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4];
  prefix[0] = static_cast<char>(len & 0xff);
  prefix[1] = static_cast<char>((len >> 8) & 0xff);
  prefix[2] = static_cast<char>((len >> 16) & 0xff);
  prefix[3] = static_cast<char>((len >> 24) & 0xff);
  wire->append(prefix, 4);
  wire->append(payload.data(), payload.size());
}

/// Incremental decoder for the length-prefixed TCP framing. Feed() raw bytes
/// exactly as they come off the socket — in any fragmentation, including one
/// byte at a time — and Next() yields each complete payload in order. A
/// length prefix above the clamp poisons the stream permanently: the prefix
/// itself carries no checksum (the replication stream checksums each
/// payload; see SealReplFrame), so after a bad length there is no way to
/// find the next frame boundary, and the only safe reaction is to drop the
/// connection.
class TcpFramer {
 public:
  explicit TcpFramer(std::size_t max_frame_bytes = kMaxTcpFrameBytes)
      : max_frame_(max_frame_bytes) {}

  /// Appends raw stream bytes. Returns false once the stream is poisoned
  /// (the bytes are discarded).
  bool Feed(std::string_view bytes) {
    if (poisoned_) return false;
    buf_.append(bytes.data(), bytes.size());
    return true;
  }

  /// Pops the next complete frame payload, nullopt when more bytes are
  /// needed (or the stream is poisoned).
  std::optional<std::string> Next() {
    if (poisoned_ || buf_.size() - pos_ < 4) return std::nullopt;
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
    const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
    if (len > max_frame_) {
      poisoned_ = true;
      buf_.clear();
      pos_ = 0;
      return std::nullopt;
    }
    if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) {
      return std::nullopt;
    }
    std::string payload = buf_.substr(pos_ + 4, len);
    pos_ += 4 + len;
    // Compact lazily: only when the dead prefix dominates the buffer.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return payload;
  }

  bool poisoned() const { return poisoned_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::size_t max_frame_;
  bool poisoned_ = false;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Plain-socket plumbing shared by every TCP-speaking component (the
/// replication stream, the client-API server and its client stub). IPv4
/// only — the deployment model is loopback or a trusted LAN, per the
/// paper's middleware assumption.

/// Binds + listens on host:port (port 0 = ephemeral); fills *actual_port.
/// Returns the listening fd, or -1.
int ListenOn(const std::string& host, std::uint16_t port,
             std::uint16_t* actual_port);

/// Blocking connect; returns the connected fd (TCP_NODELAY set), or -1.
int DialTcp(const std::string& host, std::uint16_t port);

/// Connect with a deadline: non-blocking connect + poll. Returns the
/// connected fd (blocking mode restored, TCP_NODELAY set), or -1 on
/// refusal, timeout, or bad address. The client-protocol fix for "a hung
/// peer wedges the client forever".
int DialTcp(const std::string& host, std::uint16_t port,
            std::chrono::milliseconds timeout);

/// Starts a non-blocking connect for reactor use: returns the fd with the
/// connect in flight (*in_progress = true; wait for writability, then
/// FinishDial) or already connected (*in_progress = false), or -1. The fd
/// stays non-blocking.
int StartDialTcp(const std::string& host, std::uint16_t port,
                 bool* in_progress);

/// Resolves an in-flight non-blocking connect once the fd polls writable:
/// true and sets TCP_NODELAY on success, false on connection failure.
bool FinishDial(int fd);

/// Sets O_NONBLOCK; returns false on fcntl failure.
bool SetNonBlocking(int fd);

/// Sets TCP_NODELAY (best effort).
void SetTcpNoDelay(int fd);

/// accept() riding out EINTR; returns the connected fd (TCP_NODELAY set),
/// or -1 when the listener is closed.
int AcceptOn(int listen_fd);

/// Writes the whole buffer with MSG_NOSIGNAL, riding out partial writes and
/// EINTR; false on a dead peer (EPIPE/ECONNRESET).
bool SendAll(int fd, std::string_view bytes);

/// One connected socket carrying length-prefixed frames (AppendTcpFrame /
/// TcpFramer) in both directions. Owns the fd: closes it on destruction.
/// Sending (Send, SendFramed) and Recv are each single-caller (one writer
/// thread, one reader thread); ShutdownNow may be called from anywhere to
/// wake the reader.
class FramedSocket {
 public:
  explicit FramedSocket(int fd) : fd_(fd) {}
  ~FramedSocket() { Close(); }

  FramedSocket(const FramedSocket&) = delete;
  FramedSocket& operator=(const FramedSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends one frame; false on a dead peer or — when a send timeout is
  /// set — deadline expiry (check send_timed_out()).
  bool Send(std::string_view payload);

  /// Sends bytes that are already framed (one or more AppendTcpFrame
  /// frames back to back, e.g. a pipelined batch of requests); same
  /// failure semantics as Send.
  bool SendFramed(std::string_view wire);

  /// Blocks for the next complete frame; nullopt on EOF, error, a
  /// poisoned frame stream (oversized length prefix), or — when a recv
  /// timeout is set — deadline expiry (check timed_out() to distinguish).
  std::optional<std::string> Recv();

  /// Per-Recv deadline; zero (the default) blocks forever. Applies to the
  /// whole frame: a peer trickling bytes still has to produce a complete
  /// frame within the window.
  void set_recv_timeout(std::chrono::milliseconds timeout) {
    recv_timeout_ = timeout;
  }

  /// Per-send deadline; zero (the default) blocks forever. Applies to the
  /// whole buffer: a peer that stops reading (its receive window and our
  /// send buffer full) fails the send once the window passes instead of
  /// blocking it forever.
  void set_send_timeout(std::chrono::milliseconds timeout) {
    send_timeout_ = timeout;
  }

  /// True when the last Recv returned nullopt because the deadline
  /// expired rather than because the peer vanished.
  bool timed_out() const { return timed_out_; }

  /// The same for the last send (kept apart: the sender and the reader may
  /// be different threads).
  bool send_timed_out() const { return send_timed_out_; }

  /// Wakes a blocked Recv/Send with EOF/EPIPE without closing the fd.
  void ShutdownNow();

  void Close();

 private:
  int fd_;
  TcpFramer framer_;
  std::chrono::milliseconds recv_timeout_{0};
  std::chrono::milliseconds send_timeout_{0};
  bool timed_out_ = false;
  bool send_timed_out_ = false;
  char buf_[64 * 1024];
};

}  // namespace net
}  // namespace lazysi

#endif  // LAZYSI_NET_FRAMED_SOCKET_H_
