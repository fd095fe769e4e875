// Unit tests for the packet model: flow keys and wire occupancy.
#include <gtest/gtest.h>

#include "net/packet.h"

namespace flowvalve::net {
namespace {

FiveTuple tcp_tuple() {
  FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0x0a000002;
  t.src_port = 31337;
  t.dst_port = 443;
  t.proto = IpProto::kTcp;
  return t;
}

TEST(FiveTupleTest, EqualityAndHash) {
  FiveTuple a = tcp_tuple();
  FiveTuple b = tcp_tuple();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.dst_port = 80;
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(FiveTupleTest, HashAvalanche) {
  // Flipping any single field should change the hash.
  const FiveTuple base = tcp_tuple();
  FiveTuple t = base;
  t.src_ip ^= 1;
  EXPECT_NE(t.hash(), base.hash());
  t = base;
  t.src_port ^= 1;
  EXPECT_NE(t.hash(), base.hash());
  t = base;
  t.proto = IpProto::kUdp;
  EXPECT_NE(t.hash(), base.hash());
}

TEST(FiveTupleTest, ToString) {
  EXPECT_EQ(tcp_tuple().to_string(), "10.0.0.1:31337->10.0.0.2:443/6");
}

TEST(PacketTest, WireOccupancyAddsPreambleAndIfg) {
  Packet p;
  p.wire_bytes = 64;
  EXPECT_EQ(p.wire_occupancy_bytes(), 84u);
}

TEST(PacketTest, LineRatePpsMatches40GbE) {
  // Classic numbers: 40GbE 64B → 59.52 Mpps; 1518B → 3.25 Mpps.
  EXPECT_NEAR(line_rate_pps(sim::Rate::gigabits_per_sec(40), 64) / 1e6, 59.52, 0.01);
  EXPECT_NEAR(line_rate_pps(sim::Rate::gigabits_per_sec(40), 1518) / 1e6, 3.25, 0.01);
  EXPECT_NEAR(line_rate_pps(sim::Rate::gigabits_per_sec(10), 1518) / 1e6, 0.8127, 0.001);
}

}  // namespace
}  // namespace flowvalve::net
