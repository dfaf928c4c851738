// The length-prefixed TCP framing every socket in the system speaks: the
// framer survives arbitrary read fragmentation and refuses hostile length
// prefixes, and FramedSocket moves frames far larger than any socket buffer.

#include "net/framed_socket.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

namespace lazysi {
namespace net {
namespace {

TEST(TcpFramerTest, ReassemblesFramesFedOneByteAtATime) {
  std::vector<std::string> payloads = {"", "a", std::string(5000, 'x'),
                                       std::string("\x00\x01\xff", 3)};
  std::string wire;
  for (const auto& p : payloads) AppendTcpFrame(&wire, p);

  TcpFramer framer;
  std::vector<std::string> out;
  for (char c : wire) {
    ASSERT_TRUE(framer.Feed(std::string_view(&c, 1)));
    while (auto f = framer.Next()) out.push_back(std::move(*f));
  }
  EXPECT_EQ(out, payloads);
  EXPECT_EQ(framer.buffered(), 0u);
  EXPECT_FALSE(framer.poisoned());
}

TEST(TcpFramerTest, TruncatedPrefixYieldsNothing) {
  std::string wire;
  AppendTcpFrame(&wire, "hello");
  for (std::size_t cut = 0; cut < 4; ++cut) {
    TcpFramer framer;
    ASSERT_TRUE(framer.Feed(std::string_view(wire).substr(0, cut)));
    EXPECT_FALSE(framer.Next().has_value()) << "cut=" << cut;
    EXPECT_FALSE(framer.poisoned());
  }
}

TEST(TcpFramerTest, MidFramePayloadWaitsForTheRest) {
  std::string wire;
  AppendTcpFrame(&wire, "hello world");
  TcpFramer framer;
  ASSERT_TRUE(framer.Feed(std::string_view(wire).substr(0, 7)));
  EXPECT_FALSE(framer.Next().has_value());
  ASSERT_TRUE(framer.Feed(std::string_view(wire).substr(7)));
  auto f = framer.Next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, "hello world");
}

TEST(TcpFramerTest, OversizedLengthPoisonsTheStream) {
  // Length prefix claims 0xffffffff bytes: no allocation, no waiting — the
  // stream is dead and stays dead.
  TcpFramer framer;
  ASSERT_TRUE(framer.Feed(std::string("\xff\xff\xff\xff", 4)));
  EXPECT_FALSE(framer.Next().has_value());
  EXPECT_TRUE(framer.poisoned());
  EXPECT_FALSE(framer.Feed("more bytes"));
  EXPECT_FALSE(framer.Next().has_value());
}

TEST(TcpFramerTest, ClampIsExact) {
  TcpFramer small(8);
  std::string ok_wire;
  AppendTcpFrame(&ok_wire, std::string(8, 'y'));
  ASSERT_TRUE(small.Feed(ok_wire));
  EXPECT_TRUE(small.Next().has_value());

  TcpFramer small2(8);
  std::string bad_wire;
  AppendTcpFrame(&bad_wire, std::string(9, 'y'));
  ASSERT_TRUE(small2.Feed(bad_wire));
  EXPECT_FALSE(small2.Next().has_value());
  EXPECT_TRUE(small2.poisoned());
}

TEST(FramedSocketTest, LargeFrameSurvivesPartialReadsAndWrites) {
  // Far beyond any socket buffer: the write side must loop over partial
  // sends and the reader must reassemble across many recv() calls.
  std::uint16_t port = 0;
  const int lfd = ListenOn("127.0.0.1", 0, &port);
  ASSERT_GE(lfd, 0);
  FramedSocket client(DialTcp("127.0.0.1", port));
  ASSERT_TRUE(client.valid());
  FramedSocket server(AcceptOn(lfd));
  ASSERT_TRUE(server.valid());

  std::string big(6 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 2654435761u);
  }
  // Writer must run concurrently with the reader: a 6 MiB frame cannot sit
  // in the kernel buffers alone, so a same-thread send would deadlock.
  std::thread writer([&] { EXPECT_TRUE(client.Send(big)); });
  auto got = server.Recv();
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
  ::close(lfd);
}

}  // namespace
}  // namespace net
}  // namespace lazysi
