// Pipelined client writes against in-process site servers: RemoteSite
// queues Put/Delete and sends them ahead of the next call that needs a
// reply, and SiteServer coalesces the replies of each drained burst. These
// cases pin the contract both halves rely on — replies in request order,
// reads seeing earlier queued writes, deferred write failures, COMMIT never
// sent behind a failed write, queues dropped with their connection, and a
// blocking request never holding earlier replies back.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/framed_socket.h"
#include "system/remote_client.h"
#include "system/site_server.h"
#include "system/wire_api.h"

namespace lazysi {
namespace system {
namespace {

using namespace std::chrono_literals;

SiteServer::Options PrimaryOptions() {
  SiteServer::Options o;
  o.role = SiteServer::Role::kPrimary;
  return o;
}

SiteServer::Options SecondaryOptions(std::uint16_t primary_repl_port) {
  SiteServer::Options o;
  o.role = SiteServer::Role::kSecondary;
  o.site_id = 1;
  o.primary_repl_port = primary_repl_port;
  return o;
}

std::string Key(int i) { return "row-" + std::to_string(1000 + i); }

TEST(RemotePipelineTest, QueuedWritesAreReadBackAndReplicated) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  SiteServer secondary(SecondaryOptions(primary.repl_port()));
  ASSERT_TRUE(secondary.Start().ok());

  RemoteSite site;
  ASSERT_TRUE(site.Connect("127.0.0.1", primary.client_port()).ok());
  ASSERT_TRUE(site.Begin(/*read_only=*/false).ok());

  // 3 windows + 1 of Puts and Deletes; the Gets every 70 writes land
  // after the window has already settled itself once, so both the
  // automatic settle and the read-behind-queue path are exercised.
  constexpr int kWrites =
      3 * static_cast<int>(wire_api::kMaxPipelinedWrites) + 1;
  std::map<std::string, std::optional<std::string>> model;
  auto expect_read = [&](const std::string& key) {
    auto value = site.Get(key);
    auto it = model.find(key);
    if (it != model.end() && it->second.has_value()) {
      ASSERT_TRUE(value.ok()) << key << ": " << value.status();
      EXPECT_EQ(*value, *it->second) << key;
    } else {
      EXPECT_EQ(value.status().code(), StatusCode::kNotFound) << key;
    }
  };
  for (int i = 0; i < kWrites; ++i) {
    // Every 7th write deletes the row put three writes earlier.
    const std::string key = Key(i % 7 == 6 ? i - 3 : i);
    if (i % 7 == 6) {
      ASSERT_TRUE(site.Delete(key).ok());
      model[key] = std::nullopt;
    } else {
      const std::string value = "v-" + std::to_string(i);
      ASSERT_TRUE(site.Put(key, value).ok());
      model[key] = value;
    }
    if (i % 70 == 69) {
      expect_read(key);  // the write just queued
      expect_read(Key(i - 1));
      expect_read(Key(i - 60));
    }
  }
  auto seq = site.Commit();
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_GT(*seq, 0u);

  RemoteSite replica;
  ASSERT_TRUE(replica.Connect("127.0.0.1", secondary.client_port()).ok());
  ASSERT_TRUE(replica.WaitSeq(*seq).ok());
  auto prefix = replica.Begin(/*read_only=*/true, *seq);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_GE(*prefix, *seq);
  for (const auto& [key, want] : model) {
    auto value = replica.Get(key);
    if (want.has_value()) {
      ASSERT_TRUE(value.ok()) << key << ": " << value.status();
      EXPECT_EQ(*value, *want) << key;
    } else {
      EXPECT_EQ(value.status().code(), StatusCode::kNotFound) << key;
    }
  }
  ASSERT_TRUE(replica.Commit().ok());

  auto primary_stats = site.Stats();
  auto replica_stats = replica.Stats();
  ASSERT_TRUE(primary_stats.ok() && replica_stats.ok());
  EXPECT_EQ(primary_stats->content_hash, replica_stats->content_hash);
  EXPECT_NE(primary_stats->content_hash, 0u);
}

TEST(RemotePipelineTest, FailedWriteFailsCommitWithoutSendingIt) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  RemoteSite site;
  ASSERT_TRUE(site.Connect("127.0.0.1", primary.client_port()).ok());

  ASSERT_TRUE(site.Begin(/*read_only=*/true).ok());
  // Queued, so the read-only violation is not known yet...
  EXPECT_TRUE(site.Put("k", "v").ok());
  // ...and surfaces at the commit, which is then never sent.
  auto commit = site.Commit();
  EXPECT_EQ(commit.status().code(), StatusCode::kInvalidArgument)
      << commit.status();
  // The server still holds the transaction open: it saw no COMMIT.
  auto again = site.Begin(/*read_only=*/false);
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(again.status().message(), "transaction already open");
  ASSERT_TRUE(site.Abort().ok());
  ASSERT_TRUE(site.Begin(/*read_only=*/false).ok());
  ASSERT_TRUE(site.Abort().ok());
  EXPECT_TRUE(site.connected());
}

TEST(RemotePipelineTest, ReconnectDiscardsQueuedWrites) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  RemoteSite site;
  ASSERT_TRUE(site.Connect("127.0.0.1", primary.client_port()).ok());

  ASSERT_TRUE(site.Begin(/*read_only=*/false).ok());
  ASSERT_TRUE(site.Put("stale", "x").ok());
  site.Disconnect();
  EXPECT_EQ(site.Put("stale", "y").code(), StatusCode::kUnavailable);

  ASSERT_TRUE(site.Connect("127.0.0.1", primary.client_port()).ok());
  ASSERT_TRUE(site.Begin(/*read_only=*/false).ok());
  ASSERT_TRUE(site.Put("fresh", "z").ok());
  ASSERT_TRUE(site.Commit().ok());

  ASSERT_TRUE(site.Begin(/*read_only=*/true).ok());
  EXPECT_EQ(site.Get("stale").status().code(), StatusCode::kNotFound);
  auto fresh = site.Get("fresh");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(*fresh, "z");
  ASSERT_TRUE(site.Commit().ok());
}

TEST(RemotePipelineTest, ServerStopWithQueuedWritesYieldsUnavailable) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  RemoteSite site;
  ASSERT_TRUE(site.Connect("127.0.0.1", primary.client_port()).ok());

  ASSERT_TRUE(site.Begin(/*read_only=*/false).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(site.Put(Key(i), "v").ok());
  primary.Stop();

  auto commit = site.Commit();
  EXPECT_EQ(commit.status().code(), StatusCode::kUnavailable)
      << commit.status();
  EXPECT_FALSE(site.connected());
}

/// Request and the reply it must get: a status code and, for a successful
/// Get, the value.
struct Expected {
  StatusCode code = StatusCode::kOk;
  std::string value;
};

TEST(RemotePipelineTest, ThousandPipelinedRequestsAnsweredInOrder) {
  SiteServer primary(PrimaryOptions());
  ASSERT_TRUE(primary.Start().ok());
  const int fd = net::DialTcp("127.0.0.1", primary.client_port());
  ASSERT_GE(fd, 0);
  net::FramedSocket client(fd);
  client.set_recv_timeout(30000ms);

  // Begin, 998 Puts/Gets/Deletes over 37 keys whose Get replies depend on
  // every write before them, then Commit — one batch of frames, so the
  // server drains it in bursts and coalesces the replies.
  constexpr int kRequests = 1000;
  std::string wire;
  std::vector<Expected> expected;
  std::map<std::string, std::string> model;
  std::string begin(1, wire_api::kOpBegin);
  begin.push_back(0);
  replication::PutVarint(&begin, 0);
  net::AppendTcpFrame(&wire, begin);
  expected.push_back({});
  for (int i = 0; i < kRequests - 2; ++i) {
    const std::string key = Key((i * 7) % 37);
    std::string request;
    if (i % 4 == 3) {
      request.push_back(wire_api::kOpDelete);
      wire_api::PutString(&request, key);
      model.erase(key);
      expected.push_back({});
    } else if (i % 2 == 0) {
      request.push_back(wire_api::kOpPut);
      wire_api::PutString(&request, key);
      const std::string value = "v-" + std::to_string(i);
      wire_api::PutString(&request, value);
      model[key] = value;
      expected.push_back({});
    } else {
      request.push_back(wire_api::kOpGet);
      wire_api::PutString(&request, key);
      auto it = model.find(key);
      expected.push_back(it == model.end()
                             ? Expected{StatusCode::kNotFound, ""}
                             : Expected{StatusCode::kOk, it->second});
    }
    net::AppendTcpFrame(&wire, request);
  }
  net::AppendTcpFrame(&wire, std::string(1, wire_api::kOpCommit));
  expected.push_back({});
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kRequests));

  std::thread sender([&] { EXPECT_TRUE(client.SendFramed(wire)); });
  for (int i = 0; i < kRequests; ++i) {
    auto reply = client.Recv();
    ASSERT_TRUE(reply.has_value()) << "connection died after " << i;
    std::size_t off = 0;
    Status status;
    ASSERT_TRUE(wire_api::GetStatus(*reply, &off, &status));
    ASSERT_EQ(status.code(), expected[i].code) << "request " << i << ": "
                                               << status;
    if (!expected[i].value.empty()) {
      std::string value;
      ASSERT_TRUE(wire_api::GetString(*reply, &off, &value));
      EXPECT_EQ(value, expected[i].value) << "request " << i;
    }
  }
  sender.join();
}

TEST(RemotePipelineTest, BlockedBeginDoesNotHoldEarlierReplies) {
  // A secondary whose primary never answers: a begin with min_seq 1 parks
  // on the freshness rule for the whole read_block_timeout.
  std::uint16_t silent_port = 0;
  const int silent = net::ListenOn("127.0.0.1", 0, &silent_port);
  ASSERT_GE(silent, 0);
  SiteServer::Options o = SecondaryOptions(silent_port);
  o.read_block_timeout = 1500ms;
  SiteServer secondary(o);
  ASSERT_TRUE(secondary.Start().ok());

  const int fd = net::DialTcp("127.0.0.1", secondary.client_port());
  ASSERT_GE(fd, 0);
  net::FramedSocket client(fd);
  // Stats and the blocking begin in one send: the server drains both in
  // one burst, so the stats reply must be written before the begin parks.
  std::string wire;
  net::AppendTcpFrame(&wire, std::string(1, wire_api::kOpStats));
  std::string begin(1, wire_api::kOpBegin);
  begin.push_back(1);
  replication::PutVarint(&begin, 1);
  net::AppendTcpFrame(&wire, begin);
  ASSERT_TRUE(client.SendFramed(wire));

  client.set_recv_timeout(700ms);
  auto stats = client.Recv();
  ASSERT_TRUE(stats.has_value()) << "stats reply held behind the begin";
  std::size_t off = 0;
  Status status;
  ASSERT_TRUE(wire_api::GetStatus(*stats, &off, &status));
  EXPECT_TRUE(status.ok()) << status;

  client.set_recv_timeout(10000ms);
  auto parked = client.Recv();
  ASSERT_TRUE(parked.has_value());
  off = 0;
  ASSERT_TRUE(wire_api::GetStatus(*parked, &off, &status));
  EXPECT_EQ(status.code(), StatusCode::kTimedOut) << status;
  client.Close();
  secondary.Stop();
  ::close(silent);
}

}  // namespace
}  // namespace system
}  // namespace lazysi
