// The server-side half of the degradation ladder: the TCP idle reaper
// (a stalled peer cannot pin connection slots — slowloris protection)
// and the per-query freshness gate (stale zones serve and are counted;
// expired zones are withdrawn with REFUSED).

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "dns/wire.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::net {
namespace {

using dns::DnsName;
using dns::RecordType;

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);
const DnsName kApex = DnsName::from("live.example");
const DnsName kWww = DnsName::from("www.live.example");

zone::ZoneStore store_with_zone() {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("live.example", 1)
                    .soa("ns1.live.example", "hostmaster.live.example", 1)
                    .ns("@", "ns1.live.example")
                    .a("ns1", "10.0.0.1")
                    .a("www", "10.9.0.1")
                    .build());
  return store;
}

dns::SoaRecord zone_soa() {
  dns::SoaRecord soa;
  soa.mname = DnsName::from("ns1.live.example");
  soa.rname = DnsName::from("hostmaster.live.example");
  soa.serial = 1;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 604800;
  soa.minimum = 300;
  return soa;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StubClient open_client(std::uint16_t port, Transport transport) {
  return StubClient::open(Endpoint{IpAddr(kLoopback), port}, transport,
                          StubClient::deadline_in(Duration::seconds(3)))
      .take();
}

/// Asks `client` for www's A record; the decoded answer, or nullopt.
std::optional<dns::Message> ask(StubClient& client, std::uint16_t id) {
  const StubResult got = client.ask(dns::encode(dns::make_query(id, kWww, RecordType::A)),
                                    StubClient::deadline_in(Duration::seconds(3)));
  if (!got) return std::nullopt;
  auto decoded = dns::decode(got.reply);
  if (!decoded.ok()) return std::nullopt;
  return std::move(decoded).take();
}

/// The same over a client of its own.
std::optional<dns::Message> ask(std::uint16_t port, Transport transport, std::uint16_t id) {
  StubClient client = open_client(port, transport);
  return ask(client, id);
}

// The reaper's subjects misbehave on raw sockets: silence, half a prefix.
int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_storage dst{};
  const socklen_t len = sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), port}, dst);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&dst), len), 0);
  return fd;
}

// True when the fd reports EOF/reset within `timeout_ms`.
bool closed_within(int fd, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) == 1) {
      char buf[16];
      if (::recv(fd, buf, sizeof(buf), 0) <= 0) return true;
    }
  }
  return false;
}

TEST(TcpDeadline, IdleReaperClosesASilentConnection) {
  const zone::ZoneStore store = store_with_zone();
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.tcp_idle_timeout = Duration::millis(200);
  Server server(config, store);
  ASSERT_TRUE(server.start().ok());

  const int fd = connect_tcp(server.tcp_port());
  // Say nothing. The reaper must cut us loose, not wait forever.
  EXPECT_TRUE(closed_within(fd, 3000)) << "silent connection was never reaped";
  ::close(fd);

  server.stop();
  EXPECT_GE(server.stats().frontend.tcp_idle_reaped.value(), 1u);
}

TEST(TcpDeadline, PartialFrameSlowlorisIsReapedToo) {
  // A peer trickling half a length prefix then stalling is the classic
  // slowloris shape; byte movement stopped, so the reaper applies.
  const zone::ZoneStore store = store_with_zone();
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.tcp_idle_timeout = Duration::millis(200);
  Server server(config, store);
  ASSERT_TRUE(server.start().ok());

  const int fd = connect_tcp(server.tcp_port());
  const std::uint8_t half_prefix = 0x00;
  ASSERT_EQ(::send(fd, &half_prefix, 1, MSG_NOSIGNAL), 1);
  EXPECT_TRUE(closed_within(fd, 3000)) << "half-frame staller was never reaped";
  ::close(fd);

  server.stop();
  EXPECT_GE(server.stats().frontend.tcp_idle_reaped.value(), 1u);
}

TEST(TcpDeadline, ActiveConnectionOutlivesManyIdleWindows) {
  const zone::ZoneStore store = store_with_zone();
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.tcp_idle_timeout = Duration::millis(400);
  Server server(config, store);
  ASSERT_TRUE(server.start().ok());

  StubClient tcp = open_client(server.tcp_port(), Transport::Tcp);
  // Six exchanges over ~2x the idle window in total, each gap under the
  // window: byte movement keeps resetting the clock, so the reaper must
  // never fire.
  for (std::uint16_t i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const auto reply = ask(tcp, static_cast<std::uint16_t>(100 + i));
    ASSERT_TRUE(reply.has_value()) << "active connection lost at exchange " << i;
    EXPECT_EQ(reply->header.rcode, dns::Rcode::NoError);
  }

  server.stop();
  EXPECT_EQ(server.stats().frontend.tcp_idle_reaped.value(), 0u);
}

TEST(TcpDeadline, StaleZoneStillServesAndIsCounted) {
  const zone::ZoneStore store = store_with_zone();
  auto tracker = std::make_shared<propagation::FreshnessTracker>(
      propagation::FreshnessCaps{.refresh_cap = Duration::millis(50),
                                 .expire_cap = Duration::hours(1)});
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.freshness = tracker;
  Server server(config, store);
  ASSERT_TRUE(server.start().ok());

  tracker->confirm(kApex, zone_soa(), steady_now_ns());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(tracker->evaluate(steady_now_ns()), propagation::Freshness::Stale);

  // Serve-stale: the answer is still the real answer, over both paths.
  const auto udp = ask(server.udp_port(), Transport::Udp, 1);
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->header.rcode, dns::Rcode::NoError);
  ASSERT_FALSE(udp->answers.empty());

  const auto tcp = ask(server.tcp_port(), Transport::Tcp, 2);
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->header.rcode, dns::Rcode::NoError);

  server.stop();
  EXPECT_GE(server.stats().frontend.stale_served.value(), 2u);
  EXPECT_EQ(server.stats().frontend.expired_refused.value(), 0u);
}

TEST(TcpDeadline, ExpiredZoneIsWithdrawnWithRefused) {
  const zone::ZoneStore store = store_with_zone();
  auto tracker = std::make_shared<propagation::FreshnessTracker>(
      propagation::FreshnessCaps{.refresh_cap = Duration::millis(50),
                                 .expire_cap = Duration::millis(100)});
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.freshness = tracker;
  Server server(config, store);
  ASSERT_TRUE(server.start().ok());

  // Fresh first: the gate must not fire while within the caps.
  tracker->confirm(kApex, zone_soa(), steady_now_ns());
  ASSERT_EQ(tracker->evaluate(steady_now_ns()), propagation::Freshness::Fresh);
  const auto fresh = ask(server.udp_port(), Transport::Udp, 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->header.rcode, dns::Rcode::NoError);

  // Past expire: withdrawn — REFUSED per query, both transports.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(tracker->evaluate(steady_now_ns()), propagation::Freshness::Expired);

  const auto udp = ask(server.udp_port(), Transport::Udp, 2);
  ASSERT_TRUE(udp.has_value()) << "expired must answer REFUSED, not go dark";
  EXPECT_EQ(udp->header.rcode, dns::Rcode::Refused);
  EXPECT_TRUE(udp->answers.empty());

  const auto tcp = ask(server.tcp_port(), Transport::Tcp, 3);
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->header.rcode, dns::Rcode::Refused);

  server.stop();
  EXPECT_GE(server.stats().frontend.expired_refused.value(), 2u);
}

}  // namespace
}  // namespace akadns::net
