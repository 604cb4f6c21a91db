// /healthz is the fleet's advisory view of a machine: it must flip to
// 503 the moment the machine self-suspends or begins draining, and back
// to 200 on resume — while the DNS path keeps answering in both
// degraded states. A suspended machine serves (the PoP may be below
// min_serving; an answer beats a SERVFAIL), it just tells the world to
// steer elsewhere. These transitions are what the probe suite's
// SIGUSR1/SIGUSR2 signals and the supervisor's drain ultimately toggle.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/wire.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
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

int healthz_status(const std::string& base_url) {
  obs::HttpResponse response;
  std::string error;
  EXPECT_TRUE(obs::http_get(base_url + "/healthz", &response, &error)) << error;
  return response.status;
}

bool answers_query(std::uint16_t port, std::uint16_t id) {
  const auto deadline = StubClient::deadline_in(Duration::millis(2000));
  auto client = StubClient::open(Endpoint{IpAddr(kLoopback), port}, Transport::Udp, deadline);
  EXPECT_TRUE(client) << client.error();
  const auto wire =
      dns::encode(dns::make_query(id, DnsName::from("www.example.com"), RecordType::A));
  return client && client.value().ask(wire, deadline);
}

TEST(HealthzTransitions, SuspensionAndDrainFlipReadiness) {
  zone::ZoneStore store = make_store();
  ServeConfig config;
  config.port = 0;
  config.workers = 1;

  Server server(config, store);
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  obs::StatsServer stats([&server] { return server.metrics_snapshot(); },
                         [&server] { return server.ready(); });
  std::string error;
  ASSERT_TRUE(stats.start(0, &error)) << error;
  const std::string base_url = "http://127.0.0.1:" + std::to_string(stats.port());

  // Healthy: ready and answering.
  EXPECT_EQ(healthz_status(base_url), 200);
  EXPECT_TRUE(answers_query(server.udp_port(), 1));

  // Self-suspension: advisory endpoint says "steer away", the DNS path
  // stays up — exactly the degraded-but-serving state a quota-denied or
  // probe-suspended machine sits in.
  server.set_suspended(true);
  EXPECT_EQ(healthz_status(base_url), 503);
  EXPECT_TRUE(answers_query(server.udp_port(), 2));

  // Resume restores readiness.
  server.set_suspended(false);
  EXPECT_EQ(healthz_status(base_url), 200);
  EXPECT_TRUE(answers_query(server.udp_port(), 3));

  // Drain is one-way: not ready, and it stays not ready.
  server.begin_drain();
  EXPECT_EQ(healthz_status(base_url), 503);

  stats.stop();
  server.stop();
}

TEST(HealthzTransitions, SuspendedScrapeStaysLive) {
  // A suspended machine's /metrics must keep working: the probe suite's
  // advisory scrapes and an operator's dashboards both need visibility
  // into exactly the machines that are degraded.
  zone::ZoneStore store = make_store();
  ServeConfig config;
  config.port = 0;
  config.workers = 1;

  Server server(config, store);
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  obs::StatsServer stats([&server] { return server.metrics_snapshot(); },
                         [&server] { return server.ready(); });
  std::string error;
  ASSERT_TRUE(stats.start(0, &error)) << error;
  const std::string base_url = "http://127.0.0.1:" + std::to_string(stats.port());

  server.set_suspended(true);
  obs::HttpResponse metrics;
  ASSERT_TRUE(obs::http_get(base_url + "/metrics", &metrics, &error)) << error;
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("akadns_"), std::string::npos);

  stats.stop();
  server.stop();
}

}  // namespace
}  // namespace akadns::net
