#include "pop/pop.hpp"

#include <gtest/gtest.h>

#include "dns/wire.hpp"
#include "netsim/topology.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::pop {
namespace {

using dns::DnsName;
using dns::RecordType;

struct Fixture {
  EventScheduler sched;
  netsim::NetworkConfig net_config{};
  netsim::Network net{sched, netsim::NetworkConfig{}, 3};
  zone::ZoneStore store;
  netsim::NodeId router;

  Fixture() {
    router = net.add_node("pop-router");
    const auto upstream = net.add_node("upstream");
    net.add_link(upstream, router, Duration::millis(5),
                 netsim::LinkKind::ProviderToCustomer);
    store.publish(zone::ZoneBuilder("example.com", 1)
                      .ns("@", "ns1.example.com")
                      .a("ns1", "10.0.0.1")
                      .a("www", "10.0.0.2")
                      .build());
  }

  std::vector<std::uint8_t> query_wire(const char* name, std::uint16_t id = 1) {
    return dns::encode(dns::make_query(id, DnsName::from(name), RecordType::A));
  }
};

TEST(Pop, RouterAdvertisesWhenAnyMachineDoes) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  auto& m1 = pop.add_machine({.id = "m1"}, f.store);
  auto& m2 = pop.add_machine({.id = "m2"}, f.store);
  EXPECT_FALSE(pop.advertising(7));
  m1.speaker().advertise(7);
  EXPECT_TRUE(pop.advertising(7));
  m2.speaker().advertise(7);
  m1.speaker().withdraw(7);
  EXPECT_TRUE(pop.advertising(7));  // m2 still advertising
  m2.speaker().withdraw(7);
  EXPECT_FALSE(pop.advertising(7));
}

TEST(Pop, WithdrawAllTriggersRouterWithdrawal) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  auto& m1 = pop.add_machine({.id = "m1"}, f.store);
  m1.speaker().advertise(1);
  m1.speaker().advertise(2);
  ASSERT_TRUE(pop.advertising(1));
  m1.speaker().withdraw_all();
  EXPECT_FALSE(pop.advertising(1));
  EXPECT_FALSE(pop.advertising(2));
  m1.speaker().readvertise_all();
  EXPECT_TRUE(pop.advertising(1));
  EXPECT_TRUE(pop.advertising(2));
}

TEST(Pop, EcmpSpreadsFlowsAcrossMachines) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  for (int i = 0; i < 4; ++i) {
    auto& m = pop.add_machine({.id = "m" + std::to_string(i)}, f.store);
    m.speaker().advertise(7);
  }
  // Many flows (random ephemeral ports) spread ~uniformly (§3.1).
  std::map<std::string, int> counts;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const Endpoint src{IpAddr(Ipv4Addr(0x0A000000u + i)), static_cast<std::uint16_t>(i * 7 + 1)};
    Machine* m = pop.ecmp_select(7, src);
    ASSERT_NE(m, nullptr);
    ++counts[m->id()];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [id, count] : counts) {
    EXPECT_GT(count, 800) << id;  // ~1000 each ±20%
    EXPECT_LT(count, 1200) << id;
  }
}

TEST(Pop, EcmpIsStablePerFlow) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  for (int i = 0; i < 3; ++i) {
    auto& m = pop.add_machine({.id = "m" + std::to_string(i)}, f.store);
    m.speaker().advertise(7);
  }
  const Endpoint src{*IpAddr::parse("203.0.113.5"), 53111};
  Machine* first = pop.ecmp_select(7, src);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pop.ecmp_select(7, src), first);  // same tuple -> same machine
  }
}

TEST(Pop, FixedSourcePortAlwaysSameMachine) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  for (int i = 0; i < 4; ++i) {
    auto& m = pop.add_machine({.id = "m" + std::to_string(i)}, f.store);
    m.speaker().advertise(7);
  }
  // A resolver that does not use random ephemeral ports: one machine.
  const Endpoint fixed{*IpAddr::parse("198.51.100.9"), 53};
  Machine* target = pop.ecmp_select(7, fixed);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(pop.ecmp_select(7, fixed), target);
}

TEST(Pop, MedKeepsInputDelayedMachineOutOfPath) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  auto& regular = pop.add_machine({.id = "regular"}, f.store);
  auto& delayed = pop.add_machine({.id = "delayed", .input_delayed = true}, f.store);
  regular.speaker().advertise(7, BgpSpeaker::kDefaultMed);
  delayed.speaker().advertise(7, BgpSpeaker::kInputDelayedMed);
  // Only the regular machine is in the ECMP set.
  const auto eligible = pop.ecmp_set(7);
  ASSERT_EQ(eligible.size(), 1u);
  EXPECT_EQ(eligible[0]->id(), "regular");
  // When the regular machine withdraws (e.g. crashed on bad input), the
  // input-delayed machine takes over.
  regular.speaker().withdraw(7);
  const auto fallback = pop.ecmp_set(7);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0]->id(), "delayed");
  EXPECT_TRUE(pop.advertising(7));  // router never stopped advertising
}

TEST(Pop, DeliverAnswersThroughMachine) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  auto& m = pop.add_machine({.id = "m1"}, f.store);
  m.speaker().advertise(7);
  std::vector<std::vector<std::uint8_t>> responses;
  m.nameserver().set_response_span_sink([&](const Endpoint&, std::span<const std::uint8_t> wire) {
    responses.emplace_back(wire.begin(), wire.end());
  });
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  pop.deliver(7, f.query_wire("www.example.com"), src, 57, f.sched.now());
  pop.pump(f.sched.now());
  ASSERT_EQ(responses.size(), 1u);
  const auto decoded = dns::decode(responses[0]);
  ASSERT_TRUE(decoded) << decoded.error();
  EXPECT_EQ(decoded.value().header.rcode, dns::Rcode::NoError);
}

TEST(Pop, DeliverDroppedWhenNoMachineAdvertises) {
  Fixture f;
  Pop pop({.id = "p1", .router_node = f.router}, f.net);
  auto& m = pop.add_machine({.id = "m1"}, f.store);
  // Not advertising cloud 7.
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  pop.deliver(7, f.query_wire("www.example.com"), src, 57, f.sched.now());
  pop.pump(f.sched.now());
  EXPECT_EQ(m.nameserver().lane_stats(0).packets_received, 0u);
}

TEST(Machine, NicFailureDropsPackets) {
  Fixture f;
  Machine machine({.id = "m"}, f.store);
  machine.inject_failure(FailureType::Nic);
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  machine.deliver(f.query_wire("www.example.com"), src, 57, f.sched.now());
  EXPECT_EQ(machine.nameserver().lane_stats(0).packets_received, 0u);
  machine.clear_failure();
  machine.deliver(f.query_wire("www.example.com"), src, 57, f.sched.now());
  EXPECT_EQ(machine.nameserver().lane_stats(0).packets_received, 1u);
}

TEST(Machine, SoftwareBugHangsProcessing) {
  Fixture f;
  Machine machine({.id = "m"}, f.store);
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  machine.inject_failure(FailureType::SoftwareBug);
  machine.deliver(f.query_wire("www.example.com"), src, 57, f.sched.now());
  EXPECT_EQ(machine.pump(f.sched.now()), 0u);  // accepted but never answered
  EXPECT_EQ(machine.nameserver().pending(), 1u);
}

TEST(Machine, ProbeReflectsFailures) {
  Fixture f;
  Machine machine({.id = "m"}, f.store);
  const dns::Question soa{DnsName::from("example.com"), RecordType::SOA,
                          dns::RecordClass::IN};
  // Healthy: NOERROR.
  EXPECT_EQ(machine.probe(soa, f.sched.now()), dns::Rcode::NoError);
  // Disk failure: corrupted answers.
  machine.inject_failure(FailureType::Disk);
  EXPECT_EQ(machine.probe(soa, f.sched.now()), dns::Rcode::ServFail);
  // Software bug: no answer at all.
  machine.inject_failure(FailureType::SoftwareBug);
  EXPECT_FALSE(machine.probe(soa, f.sched.now()).has_value());
}

TEST(Machine, MetadataReachability) {
  Fixture f;
  Machine machine({.id = "m"}, f.store);
  EXPECT_TRUE(machine.metadata_reachable());
  machine.inject_failure(FailureType::PartialConnectivity);
  EXPECT_FALSE(machine.metadata_reachable());
  machine.inject_failure(FailureType::Disk);
  EXPECT_TRUE(machine.metadata_reachable());
}

}  // namespace
}  // namespace akadns::pop
