// TcpFramer reassembles the replication stream's length-prefixed frames
// from arbitrary socket fragmentation, and refuses an oversized length
// prefix without waiting for (or allocating) the claimed payload.

#include "replication/framed_socket.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace lazysi {
namespace replication {
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

}  // namespace
}  // namespace replication
}  // namespace lazysi
