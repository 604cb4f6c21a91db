// The loopback differential suite: a real akadns-serve frontend on an
// ephemeral port must answer byte-identically to the simulator's
// Responder for a corpus spanning every response shape — plain answers,
// wildcards, delegations with glue, CNAME chains, NXDOMAIN/NODATA with
// SOA, REFUSED, and the EDNS/ECS variants (including advertisements the
// payload clamp rewrites). UDP and TCP are both exercised; TCP must
// deliver untruncated what UDP truncates.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "dns/wire.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
#include "net/tcp_framing.hpp"
#include "server/responder.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::net {
namespace {

using dns::DnsName;
using dns::RecordType;

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

zone::ZoneStore make_store() {
  zone::ZoneStore store;
  auto builder = zone::ZoneBuilder("example.com", 1)
                     .ns("@", "ns1.example.com")
                     .a("ns1", "10.0.0.1")
                     .a("www", "93.184.216.34")
                     .aaaa("www", "2606:2800:220:1::1")
                     .cname("alias", "www.example.com")
                     .cname("hop1", "hop2.example.com")
                     .cname("hop2", "www.example.com")
                     .cname("external", "cdn.example.net")
                     .a("*.wild", "198.18.0.99")
                     .ns("sub", "ns.sub.example.com")
                     .a("ns.sub", "10.0.1.1")
                     .mx("@", 10, "mail.example.com")
                     .a("mail", "10.0.0.25");
  // A fat TXT set: large enough that a 512-byte UDP answer truncates but
  // TCP (and a 1232+ advertisement) carries it whole.
  for (int i = 0; i < 6; ++i) {
    builder.txt("big", "segment-" + std::to_string(i) + "-" + std::string(60, 'x'));
  }
  store.publish(builder.build());
  store.publish(zone::ZoneBuilder("edgesuite.net", 1)
                    .ns("@", "ns1.edgesuite.net")
                    .a("ns1", "10.2.0.1")
                    .cname("ex", "a1.w10.akamai.net.")
                    .build());
  return store;
}

struct QueryCase {
  std::string label;
  std::vector<std::uint8_t> wire;
};

std::vector<QueryCase> make_corpus() {
  std::vector<QueryCase> corpus;
  std::uint16_t id = 100;
  const auto add = [&](std::string label, const char* qname, RecordType qtype,
                       std::optional<std::uint16_t> edns_size = std::nullopt,
                       bool with_ecs = false) {
    auto query = dns::make_query(id++, DnsName::from(qname), qtype);
    if (edns_size) {
      query.edns.emplace();
      query.edns->udp_payload_size = *edns_size;
      if (with_ecs) {
        query.edns->client_subnet =
            dns::ClientSubnet{IpAddr(Ipv4Addr(198, 51, 100, 0)), 24, 0};
      }
    }
    corpus.push_back({std::move(label), dns::encode(query)});
  };

  add("plain A", "www.example.com", RecordType::A);
  add("plain AAAA", "www.example.com", RecordType::AAAA);
  add("apex MX", "example.com", RecordType::MX);
  add("wildcard", "anything.wild.example.com", RecordType::A);
  add("wildcard deep", "a.b.wild.example.com", RecordType::A);
  add("delegation", "host.sub.example.com", RecordType::A);
  add("cname chase", "alias.example.com", RecordType::A);
  add("cname chain", "hop1.example.com", RecordType::A);
  add("cname out of zone", "external.example.com", RecordType::A);
  add("cross-zone cname", "ex.edgesuite.net", RecordType::A);
  add("nxdomain", "missing.example.com", RecordType::A);
  add("nodata", "www.example.com", RecordType::MX);
  add("refused", "www.not-hosted.org", RecordType::A);
  add("edns 512", "www.example.com", RecordType::A, 512);
  add("edns 1232", "www.example.com", RecordType::A, 1232);
  add("edns 4096", "www.example.com", RecordType::A, 4096);
  add("edns 65535", "www.example.com", RecordType::A, 65535);
  add("edns+ecs", "www.example.com", RecordType::A, 1232, true);
  add("big txt no edns", "big.example.com", RecordType::TXT);
  add("big txt edns 512", "big.example.com", RecordType::TXT, 512);
  add("big txt edns 1232", "big.example.com", RecordType::TXT, 1232);
  add("big txt edns 65535", "big.example.com", RecordType::TXT, 65535);
  add("big txt edns+ecs", "big.example.com", RecordType::TXT, 1232, true);
  return corpus;
}

struct LoopbackServer : ::testing::Test {
  zone::ZoneStore store = make_store();
  std::optional<Server> server;

  void SetUp() override {
    ServeConfig config;
    config.port = 0;  // ephemeral
    config.workers = 2;
    server.emplace(config, store);
    auto started = server->start();
    ASSERT_TRUE(started) << started.error();
  }

  void TearDown() override { server->stop(); }

  StubClient open_client(std::uint16_t port, Transport transport) {
    return StubClient::open(Endpoint{IpAddr(kLoopback), port}, transport,
                            StubClient::deadline_in(Duration::seconds(3)))
        .take();
  }

  /// One exchange through the real socket stack; empty when no answer
  /// came within 3 s.
  static std::vector<std::uint8_t> exchange(StubClient& client,
                                            const std::vector<std::uint8_t>& query) {
    const StubResult got = client.ask(query, StubClient::deadline_in(Duration::seconds(3)));
    return {got.reply.begin(), got.reply.end()};
  }

  std::vector<std::uint8_t> exchange_udp(const std::vector<std::uint8_t>& query) {
    StubClient udp = open_client(server->udp_port(), Transport::Udp);
    auto got = exchange(udp, query);
    EXPECT_FALSE(got.empty()) << "no UDP response";
    return got;
  }

  /// The next framed TCP answer; empty when none came within 3 s.
  static std::vector<std::uint8_t> read_frame(StubClient& tcp) {
    const StubResult got = tcp.receive(StubClient::deadline_in(Duration::seconds(3)));
    return {got.reply.begin(), got.reply.end()};
  }

  // The empty-frame test's peer misbehaves, so it keeps a raw socket.
  int connect_tcp() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_storage dst{};
    const socklen_t dst_len = sockaddr_from_endpoint(
        Endpoint{IpAddr(kLoopback), server->tcp_port()}, dst);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&dst), dst_len), 0);
    return fd;
  }
};

TEST_F(LoopbackServer, UdpByteIdenticalToSimResponder) {
  // The reference: the simulator's Responder over the identical store.
  // Transaction ids differ per corpus entry and are part of the compared
  // bytes, so identity here covers the full message.
  server::Responder reference(store);
  const Endpoint local_client{IpAddr(kLoopback), 1};  // port differs; responses
                                                      // must not depend on it
  for (const auto& q : make_corpus()) {
    const auto got = exchange_udp(q.wire);
    auto want = reference.respond_wire(q.wire, local_client);
    ASSERT_TRUE(want.has_value()) << q.label;
    EXPECT_EQ(got, *want) << "UDP response diverged from sim Responder: " << q.label;
  }
}

TEST_F(LoopbackServer, TcpByteIdenticalToSimResponder) {
  server::Responder reference(store);
  const Endpoint local_client{IpAddr(kLoopback), 1};
  StubClient tcp = open_client(server->tcp_port(), Transport::Tcp);
  for (const auto& q : make_corpus()) {
    const auto got = exchange(tcp, q.wire);
    ASSERT_FALSE(got.empty()) << "no TCP response: " << q.label;
    auto want = reference.respond_wire(q.wire, local_client, SimTime::origin(),
                                       dns::kMaxMessageSize);
    ASSERT_TRUE(want.has_value()) << q.label;
    EXPECT_EQ(got, *want) << "TCP response diverged from sim Responder: " << q.label;
  }
}

TEST_F(LoopbackServer, TruncatedOverUdpCompleteOverTcp) {
  // The TC-bit retry path end to end: a 512-limited UDP answer comes
  // back truncated, the same query over TCP carries the full record set.
  auto query = dns::make_query(7, DnsName::from("big.example.com"), RecordType::TXT);
  query.edns.emplace();
  query.edns->udp_payload_size = 512;
  const auto wire = dns::encode(query);

  const auto udp_response = exchange_udp(wire);
  const auto udp_decoded = dns::decode(udp_response);
  ASSERT_TRUE(udp_decoded.ok()) << udp_decoded.error();
  EXPECT_TRUE(udp_decoded.value().header.tc) << "512-byte limit must truncate the fat TXT";
  EXPECT_LE(udp_response.size(), 512u);

  StubClient tcp = open_client(server->tcp_port(), Transport::Tcp);
  const auto tcp_response = exchange(tcp, wire);
  const auto tcp_decoded = dns::decode(tcp_response);
  ASSERT_TRUE(tcp_decoded.ok()) << tcp_decoded.error();
  EXPECT_FALSE(tcp_decoded.value().header.tc);
  EXPECT_EQ(tcp_decoded.value().answers.size(), 6u);
  EXPECT_GT(tcp_response.size(), udp_response.size());
}

TEST_F(LoopbackServer, TcpPipeliningAnswersInOrder) {
  server::Responder reference(store);
  const Endpoint local_client{IpAddr(kLoopback), 1};
  const auto corpus = make_corpus();
  // All queries in one write: the frontend must answer each, in order.
  std::vector<std::uint8_t> burst;
  for (const auto& q : corpus) {
    const auto prefix = frame_prefix(q.wire.size());
    burst.insert(burst.end(), prefix.begin(), prefix.end());
    burst.insert(burst.end(), q.wire.begin(), q.wire.end());
  }
  StubClient tcp = open_client(server->tcp_port(), Transport::Tcp);
  ASSERT_EQ(::send(tcp.fd(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  for (const auto& q : corpus) {
    const auto got = read_frame(tcp);
    ASSERT_FALSE(got.empty()) << "pipelined response missing: " << q.label;
    auto want = reference.respond_wire(q.wire, local_client, SimTime::origin(),
                                       dns::kMaxMessageSize);
    EXPECT_EQ(got, *want) << "pipelined response diverged: " << q.label;
  }
}

TEST_F(LoopbackServer, TcpZeroLengthFrameClosesConnection) {
  const int fd = connect_tcp();
  const std::uint8_t empty_frame[2] = {0x00, 0x00};
  ASSERT_EQ(::send(fd, empty_frame, 2, 0), 2);
  // The server must drop the connection (RFC 7766 protocol error): the
  // next read sees EOF, not a response.
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 3000), 1);
  std::uint8_t buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0) << "expected EOF after protocol error";
  ::close(fd);
}

TEST_F(LoopbackServer, StatsAccountForEveryQuery) {
  const auto corpus = make_corpus();
  for (const auto& q : corpus) exchange_udp(q.wire);
  server->stop();
  const auto stats = server->stats();
  EXPECT_EQ(stats.frontend.udp_packets, corpus.size());
  EXPECT_EQ(stats.frontend.udp_responses, corpus.size());
  EXPECT_EQ(stats.responder.responses, corpus.size());
  EXPECT_EQ(stats.frontend.udp_malformed, 0u);
  EXPECT_EQ(stats.per_worker_udp.size(), 2u);
}

TEST_F(LoopbackServer, MalformedDatagramIsDroppedNotAnswered) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_storage dst{};
  const socklen_t dst_len =
      sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), server->udp_port()}, dst);
  const std::uint8_t junk[5] = {0x01, 0x02, 0x03, 0x04, 0x05};  // shorter than a header
  ASSERT_EQ(::sendto(fd, junk, sizeof(junk), 0, reinterpret_cast<const sockaddr*>(&dst),
                     dst_len),
            5);
  pollfd pfd{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 300), 0) << "malformed datagram must be dropped silently";
  ::close(fd);

  // A valid query still gets through afterwards (the worker survived).
  const auto query = dns::encode(dns::make_query(9, DnsName::from("www.example.com"),
                                                 RecordType::A));
  EXPECT_FALSE(exchange_udp(query).empty());
}

}  // namespace
}  // namespace akadns::net
