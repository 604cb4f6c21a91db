// Live-export conservation on the real-socket path: a /metrics scrape
// taken from a running server must (a) parse as text exposition, (b)
// reconcile bit-for-bit with an in-process registry snapshot, and (c)
// satisfy the packet-conservation invariant per worker once the traffic
// quiesces — every datagram and every TCP query the kernel delivered is
// a response, a malformed drop, a send failure, exactly one defense-drop
// reason, or still sitting in a penalty queue. /healthz must report
// readiness.

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dns/wire.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
#include "obs/exposition.hpp"
#include "obs/stats_http.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::net {
namespace {

using dns::DnsName;
using dns::RecordType;

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

zone::ZoneStore make_store() {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("example.com", 1)
                    .ns("@", "ns1.example.com")
                    .a("ns1", "10.0.0.1")
                    .a("www", "93.184.216.34")
                    .build());
  return store;
}

/// A client conversation. Over UDP all datagrams share a source port,
/// so the kernel's reuseport hash pins them to a single worker — which
/// makes the per-worker reconciliation below exercise an uneven split;
/// a TCP connection's queries share the connection's worker.
StubClient open_client(std::uint16_t port, Transport transport) {
  return StubClient::open(Endpoint{IpAddr(kLoopback), port}, transport,
                          StubClient::deadline_in(Duration::seconds(1)))
      .take();
}

void send(StubClient& client, const std::vector<std::uint8_t>& wire) {
  const StubResult sent = client.send(wire, StubClient::deadline_in(Duration::seconds(1)));
  EXPECT_TRUE(sent) << sent.error;
}

/// Waits up to `timeout_ms` for one response; false on timeout.
bool recv_one(StubClient& client, int timeout_ms = 1000) {
  const auto deadline = StubClient::deadline_in(Duration::millis(timeout_ms));
  return static_cast<bool>(client.receive(deadline));
}

/// Drains whatever responses are ready without blocking long.
void drain(StubClient& client, int quiet_ms = 200) {
  while (recv_one(client, quiet_ms)) {
  }
}

std::vector<std::uint8_t> query(const char* name, std::uint16_t id) {
  return dns::encode(dns::make_query(id, DnsName::from(name), RecordType::A));
}

/// The net-path conservation sum over one label filter (a worker, or
/// everything): responses on either transport + malformed + send
/// failures + answers whose connection closed + defense sheds +
/// still-queued backlog.
std::uint64_t accounted(const obs::MetricsSnapshot& snap, const obs::LabelSet& filter) {
  const auto event = [&](const char* value) {
    return snap.sum("akadns_frontend_total", obs::with(filter, "event", value));
  };
  return event("udp_responses") + event("udp_malformed") + event("udp_send_failures") +
         event("tcp_responses") + event("tcp_closed_drops") +
         snap.sum("akadns_defense_drops_total", filter) +
         snap.sum("akadns_penalty_queue_depth", filter);
}

/// Datagrams plus TCP queries: what the conservation sum must cover.
std::uint64_t packets(const obs::MetricsSnapshot& snap, const obs::LabelSet& filter) {
  return snap.sum("akadns_frontend_total", obs::with(filter, "event", "udp_packets")) +
         snap.sum("akadns_frontend_total", obs::with(filter, "event", "tcp_queries"));
}

TEST(StatsEndpoint, LiveScrapeReconcilesPerWorkerConservation) {
  zone::ZoneStore store = make_store();
  ServeConfig config;
  config.port = 0;
  config.workers = 2;
  config.defense.enabled = true;
  config.defense.nxdomain_threshold = 2;   // arms after one NXDOMAIN per worker
  config.defense.nxdomain_penalty = 200.0;  // >= S_max: discard outright
  config.defense.qod_rules.push_back(DnsName::from("blocked.example.com"));

  Server server(config, store);
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  obs::StatsServer stats(
      [&server] { return server.metrics_snapshot(); },
      [&server] { return server.ready(); });
  std::string error;
  ASSERT_TRUE(stats.start(0, &error)) << error;
  const std::string base_url = "http://127.0.0.1:" + std::to_string(stats.port());

  // Readiness first: workers are up, no secondary to wait for.
  obs::HttpResponse health;
  ASSERT_TRUE(obs::http_get(base_url + "/healthz", &health, &error)) << error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  StubClient client = open_client(server.udp_port(), Transport::Udp);
  std::uint16_t id = 1;

  // 20 answerable queries; all must come back.
  for (int i = 0; i < 20; ++i) send(client, query("www.example.com", ++id));
  std::size_t answered = 0;
  for (int i = 0; i < 20; ++i) {
    if (recv_one(client)) ++answered;
  }
  EXPECT_EQ(answered, 20u);

  // 5 undecodable datagrams: counted as udp_malformed, never answered.
  for (int i = 0; i < 5; ++i) send(client, {0xde, 0xad, 0xbe});

  // 5 queries matching the query-of-death rule: firewall drops, silent.
  for (int i = 0; i < 5; ++i) send(client, query("blocked.example.com", ++id));

  // Arm the NXDOMAIN filter (3 sequential misses, each answered), then
  // probe 10 more random names — the armed worker sheds them by score.
  for (int i = 0; i < 3; ++i) {
    send(client, query(("miss" + std::to_string(i) + ".example.com").c_str(), ++id));
    recv_one(client);
  }
  for (int i = 0; i < 10; ++i) {
    send(client, query(("probe" + std::to_string(i) + ".example.com").c_str(), ++id));
  }
  drain(client);

  // Over TCP, 4 answerable queries and 1 firewalled one, pipelined: the
  // same gates, the same queue, answers framed back in order. The client
  // half-closes after its last query; the connection stays open until
  // the answers still queued for it are flushed.
  StubClient tcp = open_client(server.tcp_port(), Transport::Tcp);
  for (int i = 0; i < 4; ++i) send(tcp, query("www.example.com", ++id));
  send(tcp, query("blocked.example.com", ++id));
  ::shutdown(tcp.fd(), SHUT_WR);
  std::size_t tcp_answered = 0;
  for (int i = 0; i < 4; ++i) {
    if (recv_one(tcp)) ++tcp_answered;
  }
  EXPECT_EQ(tcp_answered, 4u);
  EXPECT_FALSE(recv_one(tcp, 200)) << "firewalled name answered over TCP";

  // Scrape at ~10 Hz until the traffic quiesces: every datagram and TCP
  // query landed (43 + 5) and the conservation sum catches up with the
  // packets counter. The scrape never blocks the workers, so
  // intermediate reads may legitimately be mid-flight — quiescence is
  // when they agree.
  const std::uint64_t expected_datagrams = 43;
  const std::uint64_t expected_packets = expected_datagrams + 5;
  obs::MetricsSnapshot snap;
  bool settled = false;
  for (int attempt = 0; attempt < 100 && !settled; ++attempt) {
    snap = server.metrics_snapshot();
    settled = packets(snap, {}) == expected_packets && accounted(snap, {}) == expected_packets;
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(settled) << "packets=" << packets(snap, {}) << " accounted="
                       << accounted(snap, {});

  // Per-worker reconciliation: the invariant holds on every shard
  // independently, not just in aggregate.
  for (std::size_t w = 0; w < config.workers; ++w) {
    const obs::LabelSet wl = obs::with({}, "worker", w);
    EXPECT_EQ(packets(snap, wl), accounted(snap, wl)) << "worker " << w;
  }

  // Every drop reason incremented exactly one counter: the taxonomy sums
  // reproduce the known traffic shape.
  const auto event = [&](const char* value) {
    return snap.sum("akadns_frontend_total", obs::labels({{"event", value}}));
  };
  const auto shed = [&](const char* reason) {
    return snap.sum("akadns_defense_drops_total", obs::labels({{"reason", reason}}));
  };
  EXPECT_EQ(event("udp_malformed"), 5u);
  EXPECT_EQ(event("tcp_queries"), 5u);
  EXPECT_EQ(event("tcp_responses"), 4u);
  EXPECT_EQ(shed("firewall"), 6u);
  EXPECT_GE(shed("score-discard"), 1u);  // the armed probes
  EXPECT_EQ(shed("queue-full"), 0u);
  // 20 hits plus at least the first arming miss (the per-worker threshold
  // is 1, so later misses may already be shed by score).
  EXPECT_GE(event("udp_responses"), 21u);

  // The live scrape serves the same numbers: fetch /metrics, parse the
  // exposition, and reconcile it against the in-process snapshot.
  obs::HttpResponse scrape;
  ASSERT_TRUE(obs::http_get(base_url + "/metrics", &scrape, &error)) << error;
  ASSERT_EQ(scrape.status, 200);
  const auto parsed = obs::Exposition::parse(scrape.body);
  EXPECT_EQ(static_cast<std::uint64_t>(parsed.sum("akadns_frontend_total",
                                                  obs::labels({{"event", "udp_packets"}}))),
            expected_datagrams);
  for (std::size_t w = 0; w < config.workers; ++w) {
    const obs::LabelSet wl = obs::with({}, "worker", w);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  parsed.sum("akadns_frontend_total", obs::with(wl, "event", "udp_packets")) +
                  parsed.sum("akadns_frontend_total", obs::with(wl, "event", "tcp_queries"))),
              packets(snap, wl))
        << "worker " << w;
    EXPECT_EQ(static_cast<std::uint64_t>(parsed.sum("akadns_defense_drops_total", wl)),
              snap.sum("akadns_defense_drops_total", wl))
        << "worker " << w;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(parsed.sum("akadns_responses_total")),
            snap.sum("akadns_responses_total"));

  stats.stop();
  server.stop();
}

TEST(StatsEndpoint, HealthzReportsUnreadyUntilTheReadyFnSaysSo) {
  obs::MetricRegistry reg;
  std::atomic<bool> ready{false};
  obs::StatsServer stats([&reg] { return reg.snapshot(); },
                         [&ready] { return ready.load(); });
  std::string error;
  ASSERT_TRUE(stats.start(0, &error)) << error;
  const std::string url =
      "http://127.0.0.1:" + std::to_string(stats.port()) + "/healthz";

  obs::HttpResponse rsp;
  ASSERT_TRUE(obs::http_get(url, &rsp, &error)) << error;
  EXPECT_EQ(rsp.status, 503);

  ready.store(true);
  ASSERT_TRUE(obs::http_get(url, &rsp, &error)) << error;
  EXPECT_EQ(rsp.status, 200);
  stats.stop();
}

}  // namespace
}  // namespace akadns::net
