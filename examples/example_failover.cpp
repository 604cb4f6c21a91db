// Anycast failover walkthrough (§4.1 / §4.2): two PoPs advertise one
// anycast cloud; a machine failure triggers self-suspension, the PoP
// withdraws its route, BGP reconverges, and resolvers land on the
// surviving PoP — service continues with only a brief disruption.

#include <cstdio>

#include "core/platform.hpp"
#include "zone/zone_builder.hpp"

using namespace akadns;

int main() {
  core::PlatformConfig config;
  config.topology.tier1_count = 4;
  config.topology.tier2_count = 12;
  config.topology.edge_count = 24;
  config.seed = 2026;
  core::Platform platform(config);
  platform.build_internet();

  // Two PoPs, one machine each, both advertising anycast cloud 1.
  auto& pop_a = platform.add_pop(platform.topology().edges[0], 1, {1});
  auto& pop_b = platform.add_pop(platform.topology().edges[1], 1, {1});

  platform.host_zone(zone::ZoneBuilder("ex.com", 1)
                         .soa("ns1.ex.com", "hostmaster.ex.com", 1)
                         .ns("@", "ns1.ex.com")
                         .a("ns1", "10.0.0.1")
                         .a("www", "93.184.216.34")
                         .build());
  // Continuous mapping publications keep the machines' metadata fresh
  // (without them the staleness detector would eventually suspend
  // healthy machines — exactly what it is for).
  platform.start_mapping_heartbeat(Duration::seconds(5));
  platform.run_until(platform.scheduler().now() + Duration::seconds(15));

  // Pick a client that initially routes to PoP A, so the failover is
  // actually visible from its vantage point.
  netsim::NodeId client_node = platform.topology().edges.back();
  for (const auto edge : platform.topology().edges) {
    if (edge == pop_a.router_node() || edge == pop_b.router_node()) continue;
    if (platform.network().catchment_origin(edge, 1) == pop_a.router_node()) {
      client_node = edge;
      break;
    }
  }
  const Endpoint client{*IpAddr::parse("198.51.100.53"), 5353};

  auto ask = [&](std::uint16_t id) -> std::pair<bool, std::string> {
    bool answered = false;
    std::string servfail = "timeout";
    const auto query =
        dns::make_query(id, dns::DnsName::from("www.ex.com"), dns::RecordType::A);
    platform.send_query(client_node, client, 57, query, 1,
                        [&](std::optional<dns::Message> response, Duration rtt) {
                          if (response) {
                            answered = true;
                            servfail = dns::to_string(response->header.rcode) + " in " +
                                       std::to_string(rtt.to_millis()) + " ms";
                          }
                        });
    platform.run_until(platform.scheduler().now() + Duration::seconds(3));
    return {answered, servfail};
  };

  auto served_by = [&]() {
    const auto a = pop_a.machine(0).nameserver().lane_stats(0).responses_sent;
    const auto b = pop_b.machine(0).nameserver().lane_stats(0).responses_sent;
    return a + b == 0 ? std::string("nobody")
                      : (a >= b ? std::string("PoP A") : std::string("PoP B"));
  };

  std::printf("phase 1: both PoPs healthy\n");
  const auto [ok1, detail1] = ask(1);
  std::printf("  query -> %s (%s), answered by %s\n\n", ok1 ? "answered" : "lost",
              detail1.c_str(), served_by().c_str());

  std::printf("phase 2: disk failure in PoP A's machine\n");
  pop_a.machine(0).inject_failure(pop::FailureType::Disk);
  // The monitoring agent's next check detects the bad answers and
  // self-suspends the machine; the PoP withdraws its route.
  platform.run_until(platform.scheduler().now() + Duration::seconds(5));
  std::printf("  machine state: %s; PoP A advertising: %s\n",
              server::to_string(pop_a.machine(0).nameserver().state()).c_str(),
              pop_a.advertising(1) ? "yes" : "no (withdrawn)");
  // Give BGP a moment to reconverge toward PoP B.
  platform.run_until(platform.scheduler().now() + Duration::seconds(20));
  const auto before = pop_b.machine(0).nameserver().lane_stats(0).responses_sent;
  const auto [ok2, detail2] = ask(2);
  const bool pop_b_served =
      pop_b.machine(0).nameserver().lane_stats(0).responses_sent > before;
  std::printf("  query -> %s (%s), served by %s\n\n", ok2 ? "answered" : "lost",
              detail2.c_str(), pop_b_served ? "PoP B (failover!)" : "PoP A");

  std::printf("phase 3: disk replaced, machine recovers\n");
  pop_a.machine(0).clear_failure();
  platform.run_until(platform.scheduler().now() + Duration::seconds(30));
  std::printf("  machine state: %s; PoP A advertising: %s\n",
              server::to_string(pop_a.machine(0).nameserver().state()).c_str(),
              pop_a.advertising(1) ? "yes (restored)" : "no");
  const auto [ok3, detail3] = ask(3);
  std::printf("  query -> %s (%s)\n", ok3 ? "answered" : "lost", detail3.c_str());
  return 0;
}
