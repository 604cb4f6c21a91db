// Full-stack integration: a caching iterative resolver resolves the CDN
// name "a1.w10.akamai.net" through the assembled platform — anycast
// toplevel PoPs hosting "akamai.net" (which delegates w10 to a lowlevel
// nameserver), a lowlevel PoP co-located with the CDN edge, BGP-routed
// packets, ECMP inside the PoPs, and the Mapping-Intelligence hook
// producing client-proximal answers with the 20-second CDN TTL.

#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "resolver/iterative_resolver.hpp"
#include "zone/zone_builder.hpp"

namespace akadns {
namespace {

using dns::DnsName;
using dns::Rcode;
using dns::RecordType;

constexpr netsim::PrefixId kToplevelCloud = 1;
constexpr netsim::PrefixId kLowlevelPrefix = 2;  // the lowlevel's "unicast" address

struct Stack {
  core::Platform platform;
  netsim::NodeId client_node;
  Endpoint resolver_endpoint{*IpAddr::parse("198.51.100.53"), 5353};
  IpAddr toplevel_addr = *IpAddr::parse("10.1.0.1");
  IpAddr lowlevel_addr = *IpAddr::parse("10.2.0.1");
  int toplevel_queries = 0;
  int lowlevel_queries = 0;

  Stack() : platform(make_config()) {
    platform.build_internet();
    // Two toplevel PoPs on cloud 1; one lowlevel PoP announcing its own
    // prefix (standing in for the unicast lowlevel address).
    // Toplevel PoPs host only the delegating parent zone; the lowlevel
    // hosts only the CDN zone — the production split that makes the
    // toplevels answer with referrals.
    const auto toplevel_zones = [](const DnsName& apex) {
      return apex == DnsName::from("akamai.net");
    };
    const auto lowlevel_zones = [](const DnsName& apex) {
      return apex == DnsName::from("w10.akamai.net");
    };
    platform.add_pop(platform.topology().edges[0], 2, {kToplevelCloud}, false,
                     toplevel_zones);
    platform.add_pop(platform.topology().edges[1], 2, {kToplevelCloud}, false,
                     toplevel_zones);
    platform.add_pop(platform.topology().edges[2], 1, {kLowlevelPrefix}, false,
                     lowlevel_zones);
    client_node = platform.topology().edges.back();

    // Toplevel zone: akamai.net with the w10 delegation (TTL 4000) and
    // glue pointing at the lowlevel address.
    platform.host_zone(zone::ZoneBuilder("akamai.net", 1)
                           .soa("ns1.akamai.net", "hostmaster.akamai.net", 1)
                           .ns("@", "ns1.akamai.net")
                           .a("ns1", "10.1.0.1")
                           .ns("w10", "n1.w10.akamai.net", 4000)
                           .a("n1.w10", "10.2.0.1", 4000)
                           .build());
    // Lowlevel zone: static NS; the hostnames themselves come from the
    // mapping hook.
    platform.host_zone(zone::ZoneBuilder("w10.akamai.net", 1)
                           .soa("n1.w10.akamai.net", "hostmaster.akamai.net", 1)
                           .ns("@", "n1.w10.akamai.net")
                           .a("n1", "10.2.0.1")
                           .build());
    platform.register_dynamic_domain(DnsName::from("w10.akamai.net"), 1);
    platform.mapping().add_site(
        {"edge-near", *IpAddr::parse("172.16.1.1"), {0.0, 0.0}, 0.0, true});
    platform.mapping().add_site(
        {"edge-far", *IpAddr::parse("172.16.2.1"), {400.0, 0.0}, 0.0, true});
    platform.mapping().register_client_prefix(*IpPrefix::parse("198.51.100.0/24"),
                                              twotier::GeoPoint{5.0, 0.0});
    platform.start_mapping_heartbeat(Duration::seconds(10));
    platform.run_until(platform.scheduler().now() + Duration::seconds(20));
  }

  static core::PlatformConfig make_config() {
    core::PlatformConfig config;
    config.topology.tier1_count = 3;
    config.topology.tier2_count = 8;
    config.topology.edge_count = 14;
    config.network.slow_mrai_fraction = 0.0;
    config.seed = 77;
    return config;
  }

  /// Transport for the iterative resolver: maps the NS addresses onto
  /// the simulated prefixes and blocks (by running the scheduler) until
  /// the platform delivers a response or times out.
  resolver::Transport transport() {
    return [this](const dns::Message& query,
                  const IpAddr& server) -> std::optional<resolver::UpstreamReply> {
      netsim::PrefixId target;
      if (server == toplevel_addr) {
        target = kToplevelCloud;
        ++toplevel_queries;
      } else if (server == lowlevel_addr) {
        target = kLowlevelPrefix;
        ++lowlevel_queries;
      } else {
        return std::nullopt;
      }
      std::optional<resolver::UpstreamReply> reply;
      platform.send_query(client_node, resolver_endpoint, 57, query, target,
                          [&](std::optional<dns::Message> response, Duration rtt) {
                            if (response) {
                              reply = resolver::UpstreamReply{*std::move(response), rtt};
                            }
                          });
      platform.run_until(platform.scheduler().now() + Duration::seconds(3));
      return reply;
    };
  }
};

TEST(TwoTierIntegration, FullResolutionThroughThePlatform) {
  Stack stack;
  resolver::IterativeResolver iterative({}, stack.transport());
  iterative.add_hint(DnsName::from("akamai.net"), stack.toplevel_addr);

  const auto now = SimTime::origin();
  const auto result = iterative.resolve(DnsName::from("a1.w10.akamai.net"),
                                        RecordType::A, now);
  EXPECT_EQ(result.rcode, Rcode::NoError);
  ASSERT_FALSE(result.answers.empty());
  // Mapping selected the client-proximal edge.
  EXPECT_EQ(std::get<dns::ARecord>(result.answers.back().rdata).address.to_string(),
            "172.16.1.1");
  EXPECT_EQ(result.answers.back().ttl, 20u);
  // Exactly one referral hop then one lowlevel answer.
  EXPECT_EQ(stack.toplevel_queries, 1);
  EXPECT_EQ(stack.lowlevel_queries, 1);
  EXPECT_GT(result.elapsed, Duration::zero());
}

TEST(TwoTierIntegration, RefreshWithinDelegationTtlSkipsToplevels) {
  Stack stack;
  resolver::IterativeResolver iterative({}, stack.transport());
  iterative.add_hint(DnsName::from("akamai.net"), stack.toplevel_addr);

  auto now = SimTime::origin();
  iterative.resolve(DnsName::from("a1.w10.akamai.net"), RecordType::A, now);
  ASSERT_EQ(stack.toplevel_queries, 1);
  // The 20 s host TTL expires; the 4000 s delegation does not.
  for (int refresh = 1; refresh <= 5; ++refresh) {
    now += Duration::seconds(30);
    const auto result =
        iterative.resolve(DnsName::from("a1.w10.akamai.net"), RecordType::A, now);
    EXPECT_EQ(result.rcode, Rcode::NoError);
  }
  EXPECT_EQ(stack.toplevel_queries, 1);  // never consulted again
  EXPECT_EQ(stack.lowlevel_queries, 6);
}

TEST(TwoTierIntegration, MappingReactsToEdgeDeathWithinOneTtl) {
  Stack stack;
  resolver::IterativeResolver iterative({}, stack.transport());
  iterative.add_hint(DnsName::from("akamai.net"), stack.toplevel_addr);

  auto now = SimTime::origin();
  const auto before =
      iterative.resolve(DnsName::from("a1.w10.akamai.net"), RecordType::A, now);
  ASSERT_EQ(std::get<dns::ARecord>(before.answers.back().rdata).address.to_string(),
            "172.16.1.1");
  // The proximal edge dies; the next refresh (after the 20s TTL) is
  // steered to the surviving one.
  stack.platform.mapping().set_site_alive("edge-near", false);
  now += Duration::seconds(30);
  const auto after =
      iterative.resolve(DnsName::from("a1.w10.akamai.net"), RecordType::A, now);
  ASSERT_EQ(after.rcode, Rcode::NoError);
  EXPECT_EQ(std::get<dns::ARecord>(after.answers.back().rdata).address.to_string(),
            "172.16.2.1");
}

TEST(TwoTierIntegration, ToplevelFailoverIsTransparentToTheResolver) {
  Stack stack;
  resolver::IterativeResolver iterative({}, stack.transport());
  iterative.add_hint(DnsName::from("akamai.net"), stack.toplevel_addr);

  // Kill toplevel PoP 0's machines; anycast shifts to PoP 1; resolution
  // (including a fresh delegation fetch) still succeeds.
  for (auto* machine : stack.platform.pop_at(0).machines()) {
    machine->speaker().withdraw_all();
  }
  stack.platform.run_until(stack.platform.scheduler().now() + Duration::seconds(30));

  const auto result = iterative.resolve(DnsName::from("a1.w10.akamai.net"),
                                        RecordType::A, SimTime::origin());
  EXPECT_EQ(result.rcode, Rcode::NoError);
  std::uint64_t pop1_responses = 0;
  for (auto* machine : stack.platform.pop_at(1).machines()) {
    pop1_responses += machine->nameserver().lane_stats(0).responses_sent;
  }
  EXPECT_GT(pop1_responses, 0u);
}

}  // namespace
}  // namespace akadns
