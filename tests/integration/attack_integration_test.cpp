// End-to-end attack integration: a random-subdomain attack travels
// through the simulated Internet into a filtered PoP; the NXDOMAIN
// filter arms from the observed responses and legitimate queries keep
// being answered while attack queries are starved — the Figure 10 story
// on the full platform instead of the two-machine testbed.

#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "dns/wire.hpp"
#include "filters/nxdomain_filter.hpp"
#include "zone/zone_builder.hpp"

namespace akadns {
namespace {

using dns::DnsName;
using dns::Rcode;
using dns::RecordType;

struct Stack {
  core::Platform platform;
  netsim::NodeId client_node = netsim::kInvalidNode;

  Stack(bool with_filters) : platform(make_config()) {
    platform.build_internet();
    // One PoP with a deliberately small machine so the attack saturates
    // compute.
    auto& pop = platform.add_pop(platform.topology().edges[0], 1, {1});
    auto& machine = pop.machine(0);
    // Rebuild the capacity model: slow machine.
    (void)machine;
    platform.host_zone(zone::ZoneBuilder("victim.com", 1)
                           .soa("ns1.victim.com", "hostmaster.victim.com", 1)
                           .ns("@", "ns1.victim.com")
                           .a("ns1", "10.0.0.1")
                           .a("www", "93.184.216.34")
                           .a("api", "93.184.216.35")
                           .build());
    platform.start_mapping_heartbeat(Duration::seconds(5));
    if (with_filters) {
      core::Platform::FilterDefaults defaults;
      defaults.nxdomain_threshold = 50;
      // Score random-subdomain probes past S_max (200): once armed, the
      // attack is discarded outright as "definitively malicious".
      defaults.nxdomain_penalty = 250.0;
      platform.install_filter_pipeline(defaults);
    }
    platform.run_until(platform.scheduler().now() + Duration::seconds(10));
    client_node = platform.topology().edges.back();
  }

  static core::PlatformConfig make_config() {
    core::PlatformConfig config;
    config.topology.tier1_count = 3;
    config.topology.tier2_count = 6;
    config.topology.edge_count = 10;
    config.network.slow_mrai_fraction = 0.0;
    config.seed = 31;
    config.query_timeout = Duration::millis(800);
    return config;
  }

  /// Drives `seconds` of mixed traffic; returns the fraction of the
  /// legitimate queries answered.
  double run_attack(double legit_qps, double attack_qps, double seconds) {
    Rng rng(99);
    std::uint64_t legit_sent = 0, legit_answered = 0;
    std::uint16_t id = 1;
    const SimTime start = platform.scheduler().now();
    // Schedule all arrivals up front; the platform runs them in order.
    for (double t = 0; t < seconds; t += 1e-2) {
      const auto legit_count = rng.next_poisson(legit_qps * 1e-2);
      const auto attack_count = rng.next_poisson(attack_qps * 1e-2);
      std::vector<bool> arrivals;
      arrivals.insert(arrivals.end(), legit_count, true);
      arrivals.insert(arrivals.end(), attack_count, false);
      rng.shuffle(arrivals);
      for (const bool legit_arrival : arrivals) {
        const DnsName qname =
            legit_arrival
                ? DnsName::from(rng.next_bool(0.5) ? "www.victim.com" : "api.victim.com")
                : *DnsName::from("victim.com")
                       .prepend("rnd" + std::to_string(rng.next_u64() % 100000000));
        // Distinct source per attack flow; one stable legit resolver.
        const Endpoint source{
            legit_arrival
                ? *IpAddr::parse("198.51.100.53")
                : IpAddr(Ipv4Addr(0xCB000000u + static_cast<std::uint32_t>(
                                                    rng.next_below(50'000)))),
            static_cast<std::uint16_t>(1024 + rng.next_below(60000))};
        const auto query = dns::make_query(id++, qname, RecordType::A);
        const SimTime at = start + Duration::seconds_f(t);
        auto* counter = legit_arrival ? &legit_answered : nullptr;
        if (legit_arrival) ++legit_sent;
        platform.scheduler().schedule_at(at, [this, source, query, counter] {
          platform.send_query(client_node, source, 57, query, 1,
                              [counter](std::optional<dns::Message> response, Duration) {
                                if (counter && response &&
                                    response->header.rcode == Rcode::NoError) {
                                  ++*counter;
                                }
                              });
        });
      }
    }
    platform.run_until(start + Duration::seconds_f(seconds + 3.0));
    return legit_sent ? static_cast<double>(legit_answered) / legit_sent : 1.0;
  }
};

TEST(AttackIntegration, FiltersProtectLegitTrafficOverTheFullPlatform) {
  // Keep rates modest: every query is a simulated packet crossing the
  // network. Capacity is the machine default (50k qps compute), so the
  // bottleneck here is the penalty-queue discard path, demonstrated by
  // the score-based discards rather than raw compute exhaustion.
  Stack filtered(true);
  const double goodput = filtered.run_attack(/*legit=*/50, /*attack=*/400, /*seconds=*/4);
  EXPECT_GT(goodput, 0.95);
  // The NXDOMAIN filter armed on the victim zone.
  auto& machine = filtered.platform.pop_at(0).machine(0);
  EXPECT_GT(machine.nameserver().defense().lane_stats(0).released, 0u);
  auto* filter = machine.nameserver().scoring().find("nxdomain");
  ASSERT_NE(filter, nullptr);
  EXPECT_GT(dynamic_cast<filters::NxDomainFilter*>(filter)->total_penalized(), 100u);
}

TEST(AttackIntegration, UnfilteredPlatformAnswersEverything) {
  // Without filters and with ample compute the attack is simply served
  // (every random name gets an NXDOMAIN) — the cost is pure capacity.
  Stack unfiltered(false);
  const double goodput = unfiltered.run_attack(50, 400, 4);
  EXPECT_GT(goodput, 0.95);
  const auto& stats =
      unfiltered.platform.pop_at(0).machine(0).nameserver().defense().lane_stats(0);
  EXPECT_EQ(stats.drops[DropReason::ScoreDiscard], 0u);
  // The responder emitted a large number of NXDOMAINs.
  EXPECT_GT(unfiltered.platform.pop_at(0).machine(0).nameserver().responder().stats().nxdomain,
            1000u);
}

TEST(AttackIntegration, FilteredPlatformDiscardsAttackQueries) {
  Stack filtered(true);
  filtered.run_attack(50, 400, 4);
  const auto& stats =
      filtered.platform.pop_at(0).machine(0).nameserver().defense().lane_stats(0);
  // Once armed, attack queries score nxdomain(250) >= S_max (200) and
  // are discarded outright.
  EXPECT_GT(stats.drops[DropReason::ScoreDiscard], 300u);
}

}  // namespace
}  // namespace akadns
