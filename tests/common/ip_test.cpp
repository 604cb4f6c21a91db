#include "common/ip.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace akadns {
namespace {

TEST(Ipv4Addr, ParseAndFormat) {
  const auto addr = Ipv4Addr::parse("192.168.1.42");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->to_string(), "192.168.1.42");
  EXPECT_EQ(addr->octets(), (std::array<std::uint8_t, 4>{192, 168, 1, 42}));
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse(""));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Addr::parse("256.1.1.1"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.x"));
  EXPECT_FALSE(Ipv4Addr::parse("1..2.3"));
}

TEST(Endpoint, ParseTakesAnAddressAndAPortInRange) {
  const auto ep = Endpoint::parse("127.0.0.1:5300");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->to_string(), "127.0.0.1:5300");
  EXPECT_EQ(Endpoint::parse("10.1.2.3:65535")->port, 65535);

  EXPECT_FALSE(Endpoint::parse("127.0.0.1:99999"));
  EXPECT_FALSE(Endpoint::parse("127.0.0.1:0"));
  EXPECT_FALSE(Endpoint::parse("127.0.0.1:5x"));
  EXPECT_FALSE(Endpoint::parse("127.0.0.1:"));
  EXPECT_FALSE(Endpoint::parse("127.0.0.1"));
  EXPECT_FALSE(Endpoint::parse(":53"));
  EXPECT_FALSE(Endpoint::parse("localhost:53"));
  EXPECT_FALSE(Endpoint::parse("1.2.3.4:53:53"));
}

TEST(Ipv4Addr, OrderingByValue) {
  EXPECT_LT(Ipv4Addr(1, 0, 0, 0), Ipv4Addr(2, 0, 0, 0));
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1), *Ipv4Addr::parse("10.0.0.1"));
}

TEST(Ipv6Addr, ParseFullForm) {
  const auto addr = Ipv6Addr::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->to_string(), "2001:db8::1");
}

TEST(Ipv6Addr, ParseCompressedForms) {
  EXPECT_TRUE(Ipv6Addr::parse("::"));
  EXPECT_TRUE(Ipv6Addr::parse("::1"));
  EXPECT_TRUE(Ipv6Addr::parse("fe80::"));
  EXPECT_TRUE(Ipv6Addr::parse("2001:db8::8a2e:370:7334"));
  EXPECT_EQ(Ipv6Addr::parse("::1")->to_string(), "::1");
  EXPECT_EQ(Ipv6Addr::parse("::")->to_string(), "::");
}

TEST(Ipv6Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv6Addr::parse("1:2:3:4:5:6:7"));        // too few groups
  EXPECT_FALSE(Ipv6Addr::parse("1:2:3:4:5:6:7:8:9"));    // too many
  EXPECT_FALSE(Ipv6Addr::parse("1::2::3"));              // double "::"... parsed as?
  EXPECT_FALSE(Ipv6Addr::parse("12345::"));              // hextet too long
  EXPECT_FALSE(Ipv6Addr::parse("gggg::"));               // bad hex
}

TEST(Ipv6Addr, RoundTripCanonicalization) {
  // RFC 5952: longest zero run compressed, lowercase hex.
  const auto addr = Ipv6Addr::from_hextets({0x2001, 0xdb8, 0, 0, 1, 0, 0, 1});
  EXPECT_EQ(addr.to_string(), "2001:db8::1:0:0:1");
}

TEST(Ipv6Addr, FromV4Mapped) {
  const auto v6 = Ipv6Addr::from_v4_mapped(Ipv4Addr(10, 1, 2, 3));
  EXPECT_EQ(v6.to_string(), "2001:db8::a01:203");
}

TEST(IpAddr, ParseDispatchesFamily) {
  const auto v4 = IpAddr::parse("1.2.3.4");
  ASSERT_TRUE(v4);
  EXPECT_TRUE(v4->is_v4());
  const auto v6 = IpAddr::parse("::1");
  ASSERT_TRUE(v6);
  EXPECT_TRUE(v6->is_v6());
  EXPECT_FALSE(IpAddr::parse("nonsense"));
}

TEST(IpAddr, HashDistinguishesFamilies) {
  // 0.0.0.0 and :: must not collide via trivial zero-hash.
  const IpAddr v4{Ipv4Addr(0)};
  const IpAddr v6{Ipv6Addr{}};
  EXPECT_NE(v4.hash(), v6.hash());
  EXPECT_NE(v4, v6);
}

TEST(IpAddr, HashStability) {
  const IpAddr a = *IpAddr::parse("10.0.0.1");
  const IpAddr b = *IpAddr::parse("10.0.0.1");
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<IpAddr> set{a};
  EXPECT_TRUE(set.contains(b));
}

TEST(IpPrefix, ContainsV4) {
  const auto pfx = IpPrefix::parse("10.1.0.0/16");
  ASSERT_TRUE(pfx);
  EXPECT_TRUE(pfx->contains(*IpAddr::parse("10.1.200.3")));
  EXPECT_FALSE(pfx->contains(*IpAddr::parse("10.2.0.1")));
  EXPECT_FALSE(pfx->contains(*IpAddr::parse("2001:db8::1")));
}

TEST(IpPrefix, ContainsV6) {
  const auto pfx = IpPrefix::parse("2001:db8:aa00::/40");
  ASSERT_TRUE(pfx);
  EXPECT_TRUE(pfx->contains(*IpAddr::parse("2001:db8:aa55::1")));
  EXPECT_FALSE(pfx->contains(*IpAddr::parse("2001:db8:ab00::1")));
}

TEST(IpPrefix, ZeroLengthMatchesEverythingInFamily) {
  const IpPrefix pfx(*IpAddr::parse("0.0.0.0"), 0);
  EXPECT_TRUE(pfx.contains(*IpAddr::parse("255.255.255.255")));
  EXPECT_FALSE(pfx.contains(*IpAddr::parse("::1")));
}

TEST(IpPrefix, ParseRejectsBadInput) {
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0"));      // no slash
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/33"));   // v4 length > 32
  EXPECT_FALSE(IpPrefix::parse("::/129"));        // v6 length > 128
  EXPECT_FALSE(IpPrefix::parse("bogus/8"));
}

TEST(IpPrefix, LengthOutOfRangeThrows) {
  EXPECT_THROW(IpPrefix(*IpAddr::parse("1.2.3.4"), 33), std::invalid_argument);
}

TEST(IpPrefix, HostEnumeration) {
  const auto pfx = IpPrefix::parse("10.0.0.0/24");
  ASSERT_TRUE(pfx);
  EXPECT_EQ(pfx->host(0).to_string(), "10.0.0.0");
  EXPECT_EQ(pfx->host(7).to_string(), "10.0.0.7");
  EXPECT_EQ(pfx->host(256).to_string(), "10.0.0.0");  // wraps within prefix
  const auto pfx6 = IpPrefix::parse("2001:db8::/64");
  ASSERT_TRUE(pfx6);
  EXPECT_EQ(pfx6->host(0x1234).to_string(), "2001:db8::1234");
}

TEST(Endpoint, EqualityAndFormat) {
  const Endpoint a{*IpAddr::parse("1.2.3.4"), 53};
  const Endpoint b{*IpAddr::parse("1.2.3.4"), 53};
  const Endpoint c{*IpAddr::parse("1.2.3.4"), 5353};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.to_string(), "1.2.3.4:53");
}

}  // namespace
}  // namespace akadns
