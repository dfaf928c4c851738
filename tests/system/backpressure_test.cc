#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "net/framed_socket.h"
#include "system/site_server.h"
#include "system/wire_api.h"

namespace lazysi {
namespace system {
namespace {

using namespace std::chrono_literals;

TEST(SiteServerBackpressureTest, PipelinedFloodPausesReadsAndStillAnswersAll) {
  // A client pipelining requests faster than the fixed worker pool drains
  // them must be throttled by parking its reads once `pending` hits
  // max_pending_requests (TCP then backpressures the socket), not buffered
  // without bound — and every request must still be answered, in order,
  // once the workers catch up.
  std::uint16_t silent_port = 0;
  const int silent = net::ListenOn("127.0.0.1", 0, &silent_port);
  ASSERT_GE(silent, 0);  // bound but never accepted: calm, futile dials

  SiteServer::Options o;
  o.role = SiteServer::Role::kSecondary;
  o.site_id = 1;
  o.primary_repl_port = silent_port;
  o.worker_threads = 1;
  o.max_pending_requests = 8;
  o.read_block_timeout = 1000ms;
  SiteServer server(o);
  ASSERT_TRUE(server.Start().ok());

  const int cfd = net::DialTcp("127.0.0.1", server.client_port());
  ASSERT_GE(cfd, 0);
  net::FramedSocket client(cfd);

  // Request 1 parks the only worker on the freshness wait (nothing ever
  // replicates here, so it blocks for the whole read_block_timeout)...
  std::string wait_req(1, wire_api::kOpWaitSeq);
  replication::PutVarint(&wait_req, 1);
  ASSERT_TRUE(client.Send(wait_req));
  // ...then a pipelined flood piles onto the connection's pending queue.
  constexpr int kFlood = 512;
  const std::string big_value(8 * 1024, 'v');
  std::thread sender([&] {
    for (int i = 0; i < kFlood; ++i) {
      std::string put(1, wire_api::kOpPut);
      wire_api::PutString(&put, "k" + std::to_string(i));
      wire_api::PutString(&put, big_value);
      if (!client.Send(put)) break;
    }
  });

  // The cap must trip while the worker is still parked.
  const auto pause_deadline = std::chrono::steady_clock::now() + 5s;
  while (server.read_pauses() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), pause_deadline)
        << "pending queue grew without tripping the read pause";
    std::this_thread::sleep_for(1ms);
  }

  // Once the wait times out the worker drains everything, reads resume as
  // the queue empties, and every request gets its reply (a TimedOut, then
  // per-put errors — the count and liveness are what matter here).
  client.set_recv_timeout(30000ms);
  for (int replies = 0; replies < 1 + kFlood; ++replies) {
    auto reply = client.Recv();
    ASSERT_TRUE(reply.has_value()) << "connection died after " << replies
                                   << " replies";
  }
  sender.join();
  EXPECT_GE(server.read_pauses(), 1u);
  client.Close();
  server.Stop();
  ::close(silent);
}

}  // namespace
}  // namespace system
}  // namespace lazysi
