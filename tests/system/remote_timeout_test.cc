// Client-protocol deadline regression tests: a silent or absent site server
// must surface as a bounded TimedOut/Unavailable at the RemoteSite stub, not
// wedge the client forever. These drive the real sockets — a listener that
// accepts (via the kernel backlog) but never replies, and a port nobody
// listens on — against the ConnectOptions deadlines.

#include <unistd.h>

#include <chrono>
#include <future>
#include <gtest/gtest.h>
#include <string>
#include <thread>

#include "net/framed_socket.h"
#include "system/remote_client.h"

namespace lazysi {
namespace system {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(RemoteTimeoutTest, SilentListenerYieldsTimedOutWithinDeadline) {
  // Listen but never accept: the kernel completes the TCP handshake from
  // the backlog, so Connect succeeds — then the Get's reply never comes.
  // Before op_timeout existed this blocked in recv() forever.
  std::uint16_t port = 0;
  const int listen_fd = net::ListenOn("127.0.0.1", 0, &port);
  ASSERT_GE(listen_fd, 0);

  RemoteSite site;
  RemoteSite::ConnectOptions options;
  options.connect_timeout = milliseconds(2000);
  options.op_timeout = milliseconds(200);
  ASSERT_TRUE(site.Connect("127.0.0.1", port, options).ok());

  const auto start = steady_clock::now();
  auto value = site.Get("k");
  const auto elapsed = steady_clock::now() - start;

  EXPECT_EQ(value.status().code(), StatusCode::kTimedOut) << value.status();
  // Bounded: well past the 200ms deadline is a regression back to "wait
  // for a reply that never comes". Generous ceiling for loaded CI.
  EXPECT_LT(elapsed, milliseconds(5000));
  // The dead connection is discarded; the stub is reconnectable, not wedged.
  EXPECT_FALSE(site.connected());
  ::close(listen_fd);
}

TEST(RemoteTimeoutTest, SendToWedgedPeerYieldsTimedOutWithinDeadline) {
  // Listen but never accept: nobody reads the connection, so a request
  // larger than both socket buffers can never drain. A 12 MiB value is
  // above both (and below the 16 MiB frame cap). Before sends had a
  // deadline the client blocked in send() forever.
  std::uint16_t port = 0;
  const int listen_fd = net::ListenOn("127.0.0.1", 0, &port);
  ASSERT_GE(listen_fd, 0);

  RemoteSite site;
  RemoteSite::ConnectOptions options;
  options.op_timeout = milliseconds(200);
  ASSERT_TRUE(site.Connect("127.0.0.1", port, options).ok());

  struct Outcome {
    Status status;
    bool connected;
  };
  std::promise<Outcome> done;
  auto outcome = done.get_future();
  const auto start = steady_clock::now();
  std::thread caller([&] {
    Status status = site.Put("k", std::string(12u << 20, 'v'));
    if (status.ok()) status = site.Commit().status();
    done.set_value({status, site.connected()});
  });
  if (outcome.wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    // Closing the listener resets the unaccepted connection, which fails
    // the stuck send: a hang becomes this failure, not a wedged binary.
    ::close(listen_fd);
    caller.join();
    FAIL() << "send to a peer that never reads did not time out";
  }
  caller.join();
  const Outcome result = outcome.get();
  EXPECT_EQ(result.status.code(), StatusCode::kTimedOut) << result.status;
  EXPECT_LT(steady_clock::now() - start, milliseconds(5000));
  EXPECT_FALSE(result.connected);
  ::close(listen_fd);
}

TEST(RemoteTimeoutTest, ConnectRetriesAreBoundedAndBackedOff) {
  // Grab an ephemeral port and release it: nothing listens there, so every
  // dial fails fast with ECONNREFUSED and the retry loop carries the delay.
  std::uint16_t port = 0;
  const int fd = net::ListenOn("127.0.0.1", 0, &port);
  ASSERT_GE(fd, 0);
  ::close(fd);

  RemoteSite site;
  RemoteSite::ConnectOptions options;
  options.max_attempts = 3;
  options.backoff_initial = milliseconds(30);
  options.backoff_max = milliseconds(1000);
  options.jitter = 0.0;  // deterministic delays for the timing bound

  const auto start = steady_clock::now();
  const Status status = site.Connect("127.0.0.1", port, options);
  const auto elapsed = steady_clock::now() - start;

  ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos) << status;
  EXPECT_FALSE(site.connected());
  // Three attempts sleep 30ms + 60ms between them...
  EXPECT_GE(elapsed, milliseconds(90));
  // ...and refused connections fail immediately, so the whole thing stays
  // far under the per-attempt connect timeout budget.
  EXPECT_LT(elapsed, milliseconds(5000));
}

TEST(RemoteTimeoutTest, SingleAttemptFailsWithoutSleeping) {
  std::uint16_t port = 0;
  const int fd = net::ListenOn("127.0.0.1", 0, &port);
  ASSERT_GE(fd, 0);
  ::close(fd);

  RemoteSite site;
  RemoteSite::ConnectOptions options;
  options.max_attempts = 1;
  options.backoff_initial = milliseconds(500);

  const auto start = steady_clock::now();
  EXPECT_EQ(site.Connect("127.0.0.1", port, options).code(),
            StatusCode::kUnavailable);
  // No retry, no backoff sleep.
  EXPECT_LT(steady_clock::now() - start, milliseconds(400));
}

}  // namespace
}  // namespace system
}  // namespace lazysi
