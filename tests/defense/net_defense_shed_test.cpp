// Loopback attack-shedding test: the socket frontend with the defense
// engine on must keep legitimate self-play traffic flowing while a
// random-subdomain flood sharing the same sockets is classified and
// shed. This is the real-socket rendition of the sim's §4.3.3 attack
// integration test — same filters, wall clock, kernel in the loop. TCP
// takes the same gates: the firewall, the scoring pipeline, and a bound
// on what a client that never reads can make a worker hold.
//
// Assertions are deliberately scale-free (class goodput ORDERING plus
// nonzero shed counters, not absolute rates) so the test holds under
// sanitizers and loaded CI machines.

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dns/wire.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
#include "net/tcp_framing.hpp"
#include "workload/population.hpp"
#include "workload/replay.hpp"
#include "workload/zones.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::net {
namespace {

using Steady = std::chrono::steady_clock;

StubClient open_tcp(std::uint16_t port) {
  return StubClient::open(Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), port}, Transport::Tcp,
                          StubClient::deadline_in(Duration::seconds(1)))
      .take();
}

void send(StubClient& tcp, const std::vector<std::uint8_t>& wire) {
  const StubResult sent = tcp.send(wire, StubClient::deadline_in(Duration::seconds(1)));
  EXPECT_TRUE(sent) << sent.error;
}

/// True when one whole answer arrives within `timeout_ms`.
bool answered(StubClient& tcp, int timeout_ms) {
  return static_cast<bool>(tcp.receive(StubClient::deadline_in(Duration::millis(timeout_ms))));
}

std::uint64_t frontend_event(const Server& server, const char* event) {
  return server.metrics_snapshot().sum("akadns_frontend_total",
                                       obs::labels({{"event", event}}));
}

std::uint64_t defense_drops(const Server& server, const char* reason) {
  return server.metrics_snapshot().sum("akadns_defense_drops_total",
                                       obs::labels({{"reason", reason}}));
}

std::vector<std::uint8_t> query(const std::string& name, std::uint16_t id) {
  return dns::encode(dns::make_query(id, dns::DnsName::from(name), dns::RecordType::A));
}

zone::ZoneStore example_store() {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("example.com", 1)
                    .ns("@", "ns1.example.com")
                    .a("ns1", "10.0.0.1")
                    .a("www", "93.184.216.34")
                    .build());
  return store;
}

TEST(NetDefenseShed, LegitGoodputSurvivesRandomSubdomainFlood) {
  workload::HostedZonesConfig zc;
  zc.zone_count = 60;
  workload::HostedZones zones(zc, 11);
  workload::PopulationConfig pc;
  pc.resolver_count = 1500;
  workload::ResolverPopulation population(pc, 11 ^ 0xC0FFEEULL);

  workload::ReplayMixConfig mix;
  mix.corpus_size = 2048;
  mix.attack_fraction = 0.5;
  mix.random_subdomain_weight = 1.0;  // the content-discriminable attack
  mix.direct_query_weight = 0.0;
  mix.spoofed_weight = 0.0;
  mix.seed = 11;
  workload::ReplayCorpus corpus(mix, population, zones);
  ASSERT_GT(corpus.attack_count(), 0u);

  ServeConfig config;
  config.port = 0;  // ephemeral
  config.workers = 2;
  config.defense.enabled = true;
  config.defense.compute_qps = 4000.0;
  config.defense.nxdomain_threshold = 4;
  config.defense.nxdomain_penalty = 200.0;  // >= S_max: discard outright

  Server server(config, zones.store());
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  LoadgenConfig lg;
  lg.target = Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), server.udp_port()};
  lg.sockets = 2;
  lg.batch = 32;
  lg.window = 512;
  lg.total_queries = 12000;
  lg.response_timeout = Duration::millis(400);

  Loadgen loadgen(lg, corpus, expected_responses(corpus, zones.store()));
  const auto report = loadgen.run();
  server.stop();

  // Both classes were actually exercised.
  EXPECT_GT(report.legit.sent, 0u);
  EXPECT_GT(report.attack.sent, 0u);

  // The defense discriminated: legitimate goodput strictly dominates
  // attack goodput, and every legit answer byte-matched the reference
  // responder (shedding must not corrupt the surviving datapath).
  EXPECT_GT(report.legit.goodput(), report.attack.goodput());
  EXPECT_EQ(report.legit.mismatched, 0u);

  // The shed is visible in the server's defense telemetry: queries were
  // scored, and armed-zone probes were discarded by score.
  const auto stats = server.stats();
  EXPECT_TRUE(stats.defense_enabled);
  EXPECT_GT(stats.defense.scored, 0u);
  EXPECT_GT(stats.defense.drops[DropReason::ScoreDiscard], 0u);
  EXPECT_EQ(stats.per_worker_defense.size(), config.workers);
}

TEST(NetDefenseShed, QueryOfDeathRulesDropOnTheReceivePath) {
  workload::HostedZonesConfig zc;
  zc.zone_count = 8;
  workload::HostedZones zones(zc, 3);
  workload::PopulationConfig pc;
  pc.resolver_count = 200;
  workload::ResolverPopulation population(pc, 3 ^ 0xC0FFEEULL);
  workload::ReplayMixConfig mix;
  mix.corpus_size = 256;
  mix.seed = 3;
  workload::ReplayCorpus corpus(mix, population, zones);

  // Firewall a qname the corpus provably replays: the first entry's.
  const auto& first = corpus.entries().front();
  auto view = dns::decode_query_view(first.wire);
  ASSERT_TRUE(view);
  const dns::DnsName qname = view.value().question.name;

  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.defense.enabled = false;  // rule table is consulted either way
  config.defense.qod_rules.push_back(qname);

  Server server(config, zones.store());
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  LoadgenConfig lg;
  lg.target = Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), server.udp_port()};
  lg.sockets = 1;
  lg.window = 64;
  lg.total_queries = 512;
  lg.response_timeout = Duration::millis(300);

  Loadgen loadgen(lg, corpus, {});
  const auto report = loadgen.run();

  // The same query over TCP meets the same rule: no answer, one more
  // Firewall drop.
  const std::uint64_t udp_firewalled = defense_drops(server, "firewall");
  StubClient tcp = open_tcp(server.tcp_port());
  send(tcp, first.wire);
  EXPECT_FALSE(answered(tcp, 500)) << "firewalled name answered over TCP";
  EXPECT_EQ(defense_drops(server, "firewall"), udp_firewalled + 1);
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.firewall_rules, 1u);
  // The firewalled name was queried (the corpus replays every entry at
  // least once) and silently dropped — visible only in defense drops.
  EXPECT_GT(udp_firewalled, 0u);
  EXPECT_EQ(report.received + report.dropped, report.sent);
}

TEST(NetDefenseShed, RandomSubdomainFloodOverTcpIsScoredAndShed) {
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.defense.enabled = true;
  config.defense.nxdomain_threshold = 1;
  config.defense.nxdomain_penalty = 200.0;  // >= S_max: discard outright

  const zone::ZoneStore store = example_store();
  Server server(config, store);
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  // The flood never touches UDP. Three sequential misses arm the zone
  // (later ones may already be shed), then 20 probes arrive pipelined.
  StubClient tcp = open_tcp(server.tcp_port());
  std::uint16_t id = 1;
  for (int i = 0; i < 3; ++i) {
    send(tcp, query("miss" + std::to_string(i) + ".example.com", ++id));
    answered(tcp, 250);
  }
  for (int i = 0; i < 20; ++i) send(tcp, query("probe" + std::to_string(i) + ".example.com", ++id));

  // Every flood query is scored once the worker has decoded it.
  const auto scored = [&] { return server.metrics_snapshot().sum("akadns_defense_scored_total"); };
  const auto deadline = Steady::now() + std::chrono::seconds(5);
  while (scored() < 23 && Steady::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(scored(), 23u);
  EXPECT_GT(defense_drops(server, "score-discard"), 0u);
  EXPECT_EQ(frontend_event(server, "udp_packets"), 0u);
  server.stop();
}

TEST(NetDefenseShed, TcpClientThatNeverReadsStopsBeingDecoded) {
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  const zone::ZoneStore store = example_store();
  Server server(config, store);
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  // Whole frames only, so the stream stays frame-aligned however much
  // of the burst each send takes.
  const auto wire = query("www.example.com", 7);
  const std::size_t frame_len = wire.size() + 2;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 1024; ++i) {
    const auto prefix = frame_prefix(wire.size());
    burst.insert(burst.end(), prefix.begin(), prefix.end());
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  // The client that never reads is the subject, so it is built by hand:
  // its small receive buffer has to be set before connect.
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  const int rcvbuf = 4096;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_storage dst{};
  const socklen_t len =
      sockaddr_from_endpoint(Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), server.tcp_port()}, dst);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&dst), len), 0);
  StubClient tcp(std::move(fd), Transport::Tcp);
  std::size_t bytes_sent = 0;
  const auto send_without_blocking = [&] {
    for (ssize_t n = 1; n > 0;) {
      const std::size_t off = bytes_sent % burst.size();
      n = ::send(tcp.fd(), burst.data() + off, burst.size() - off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) bytes_sent += static_cast<std::size_t>(n);
    }
  };

  // Pipeline without reading. The worker answers until it holds more
  // than one frame of unsent output, then pauses the connection. Without
  // that pause it would decode (and buffer answers for) all 8 MB.
  constexpr std::size_t kCap = 8u << 20;
  while (frontend_event(server, "tcp_read_paused") == 0 && bytes_sent < kCap) {
    send_without_blocking();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(frontend_event(server, "tcp_read_paused"), 1u)
      << "no pause after " << bytes_sent << " bytes of queries";

  // Paused means not decoded: more frames wait in the kernel, and the
  // decoded count stands still.
  send_without_blocking();
  const std::uint64_t decoded = frontend_event(server, "tcp_queries");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(frontend_event(server, "tcp_queries"), decoded);
  EXPECT_LT(decoded, bytes_sent / frame_len);

  // Reading resumes it: every whole frame sent is answered.
  std::size_t answers = 0;
  while (answers < bytes_sent / frame_len && answered(tcp, 2000)) ++answers;
  EXPECT_EQ(answers, bytes_sent / frame_len);
  server.stop();
}

}  // namespace
}  // namespace akadns::net
