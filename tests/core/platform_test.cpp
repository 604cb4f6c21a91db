#include "core/platform.hpp"

#include <gtest/gtest.h>

#include "zone/zone_builder.hpp"

namespace akadns::core {
namespace {

using dns::DnsName;
using dns::Rcode;
using dns::RecordType;

PlatformConfig small_config() {
  PlatformConfig config;
  config.topology.tier1_count = 3;
  config.topology.tier2_count = 8;
  config.topology.edge_count = 12;
  config.network.slow_mrai_fraction = 0.0;
  config.seed = 11;
  return config;
}

zone::Zone example_zone(std::uint32_t serial = 1, const char* www = "93.184.216.34") {
  return zone::ZoneBuilder("example.com", serial)
      .soa("ns1.example.com", "admin.example.com", serial)
      .ns("@", "ns1.example.com")
      .a("ns1", "10.0.0.1")
      .a("www", www)
      .build();
}

struct Fixture {
  Platform platform{small_config()};
  netsim::NodeId client_node = netsim::kInvalidNode;
  Endpoint client{*IpAddr::parse("198.51.100.53"), 5353};

  Fixture() {
    platform.build_internet();
    client_node = platform.topology().edges.back();
  }

  void add_default_pops(std::size_t count = 2, std::size_t machines = 2) {
    for (std::size_t i = 0; i < count; ++i) {
      platform.add_pop(platform.topology().edges[i], machines, {1});
    }
  }

  /// Sends a query and runs the sim until the response (or timeout).
  std::optional<dns::Message> ask(const char* qname, RecordType qtype,
                                  std::uint16_t id = 1) {
    std::optional<dns::Message> response;
    auto query = dns::make_query(id, DnsName::from(qname), qtype);
    platform.send_query(client_node, client, 57, query, 1,
                        [&](std::optional<dns::Message> r, Duration) {
                          response = std::move(r);
                        });
    platform.run_until(platform.scheduler().now() + Duration::seconds(5));
    return response;
  }
};

TEST(Platform, EndToEndQueryThroughAnycast) {
  Fixture f;
  f.add_default_pops();
  f.platform.host_zone(example_zone());
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));

  const auto response = f.ask("www.example.com", RecordType::A);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->header.rcode, Rcode::NoError);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARecord>(response->answers[0].rdata).address.to_string(),
            "93.184.216.34");
  EXPECT_EQ(f.platform.responses_received(), 1u);
  EXPECT_EQ(f.platform.timeouts(), 0u);
}

TEST(Platform, ZoneUpdatePropagatesWithinSeconds) {
  Fixture f;
  f.add_default_pops();
  f.platform.host_zone(example_zone(1, "10.0.0.2"));
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));
  // Publish a new version; within seconds all machines answer with it.
  f.platform.host_zone(example_zone(2, "10.0.0.99"));
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));
  const auto response = f.ask("www.example.com", RecordType::A, 2);
  ASSERT_TRUE(response);
  ASSERT_FALSE(response->answers.empty());
  EXPECT_EQ(std::get<dns::ARecord>(response->answers[0].rdata).address.to_string(),
            "10.0.0.99");
}

TEST(Platform, UnhostedZoneRefused) {
  Fixture f;
  f.add_default_pops();
  f.platform.host_zone(example_zone());
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));
  const auto response = f.ask("www.not-ours.org", RecordType::A);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->header.rcode, Rcode::Refused);
}

TEST(Platform, PopFailureAnycastFailover) {
  Fixture f;
  f.add_default_pops(2, 1);
  f.platform.host_zone(example_zone());
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));
  ASSERT_TRUE(f.ask("www.example.com", RecordType::A, 1));

  // All machines in PoP 0 withdraw (e.g. crashed); routes shift to PoP 1.
  for (auto* machine : f.platform.pop_at(0).machines()) {
    machine->speaker().withdraw_all();
  }
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(30));
  const auto response = f.ask("www.example.com", RecordType::A, 2);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->header.rcode, Rcode::NoError);
  // PoP 1 served it.
  EXPECT_GT(f.platform.pop_at(1).machine(0).nameserver().lane_stats(0).responses_sent, 0u);
}

TEST(Platform, TotalWithdrawalTimesOut) {
  Fixture f;
  f.add_default_pops(1, 1);
  f.platform.host_zone(example_zone());
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));
  f.platform.pop_at(0).machine(0).speaker().withdraw_all();
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(30));
  const auto response = f.ask("www.example.com", RecordType::A);
  EXPECT_FALSE(response);
  EXPECT_EQ(f.platform.timeouts(), 1u);
}

TEST(Platform, DynamicDomainAnsweredByMapping) {
  Fixture f;
  f.add_default_pops();
  // CDN-style zones: the parent and the dynamic zone itself; hostnames
  // under w10 come from Mapping Intelligence (the hook only fires on
  // machines authoritative for w10.akamai.net).
  f.platform.host_zone(zone::ZoneBuilder("akamai.net", 1)
                           .soa("ns1.akamai.net", "admin.akamai.net", 1)
                           .ns("@", "ns1.akamai.net")
                           .a("ns1", "10.1.0.1")
                           .ns("w10", "n1.w10.akamai.net", 4000)
                           .a("n1.w10", "10.2.0.1", 4000)
                           .build());
  f.platform.host_zone(zone::ZoneBuilder("w10.akamai.net", 1)
                           .soa("n1.w10.akamai.net", "admin.akamai.net", 1)
                           .ns("@", "n1.w10.akamai.net")
                           .a("n1", "10.2.0.1")
                           .build());
  f.platform.register_dynamic_domain(DnsName::from("w10.akamai.net"), 1);
  f.platform.mapping().add_site(
      {"near", *IpAddr::parse("172.16.1.1"), {0.0, 0.0}, 0.0, true});
  f.platform.mapping().add_site(
      {"far", *IpAddr::parse("172.16.2.1"), {500.0, 0.0}, 0.0, true});
  f.platform.mapping().register_client_prefix(*IpPrefix::parse("198.51.100.0/24"),
                                              {10.0, 0.0});
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));

  const auto response = f.ask("a1.w10.akamai.net", RecordType::A);
  ASSERT_TRUE(response);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARecord>(response->answers[0].rdata).address.to_string(),
            "172.16.1.1");
  EXPECT_EQ(response->answers[0].ttl, 20u);

  // Site death remaps within one TTL.
  f.platform.mapping().set_site_alive("near", false);
  const auto remapped = f.ask("a1.w10.akamai.net", RecordType::A, 2);
  ASSERT_TRUE(remapped);
  ASSERT_FALSE(remapped->answers.empty());
  EXPECT_EQ(std::get<dns::ARecord>(remapped->answers[0].rdata).address.to_string(),
            "172.16.2.1");
}

TEST(Platform, InputDelayedMachineServesDuringInputInducedOutage) {
  Fixture f;
  f.platform.add_pop(f.platform.topology().edges[0], 1, {1},
                     /*include_input_delayed=*/true);
  f.platform.host_zone(example_zone());
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));

  auto& pop = f.platform.pop_at(0);
  ASSERT_EQ(pop.machine_count(), 2u);
  // Regular machine crashes on a poisoned input and withdraws.
  pop.machine(0).nameserver().self_suspend();
  pop.machine(0).speaker().withdraw_all();
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(5));

  // The input-delayed machine (which has not yet received the 1-hour-
  // delayed zone data? it has, after 1h sim-warm-up we skip) — here the
  // key property: the PoP keeps advertising and the delayed machine is
  // now in the ECMP set.
  EXPECT_TRUE(pop.advertising(1));
  const auto eligible = pop.ecmp_set(1);
  ASSERT_EQ(eligible.size(), 1u);
  EXPECT_TRUE(eligible[0]->input_delayed());
}

TEST(Platform, QueriesCountersTrack) {
  Fixture f;
  f.add_default_pops(1, 1);
  f.platform.host_zone(example_zone());
  f.platform.run_until(f.platform.scheduler().now() + Duration::seconds(10));
  f.ask("www.example.com", RecordType::A, 1);
  f.ask("www.example.com", RecordType::A, 2);
  EXPECT_EQ(f.platform.queries_sent(), 2u);
  EXPECT_EQ(f.platform.responses_received(), 2u);
}

}  // namespace
}  // namespace akadns::core
