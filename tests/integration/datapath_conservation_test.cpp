// Fleet-wide packet conservation: across a mixed legitimate/attack run
// with injected failures, every packet that entered the PoP is either
// answered, sitting in a penalty queue, or accounted against exactly one
// DropReason — `packets_received == responses_sent + Σ drops + pending`.
#include <gtest/gtest.h>

#include "control/reporting.hpp"
#include "pop/machine.hpp"
#include "zone/zone_builder.hpp"

namespace akadns {
namespace {

using dns::DnsName;
using dns::RecordType;

std::vector<std::uint8_t> query_wire(const char* name, std::uint16_t id) {
  return dns::encode(dns::make_query(id, DnsName::from(name), RecordType::A));
}

TEST(DatapathConservation, MixedLegitAndAttackRunAccountsEveryPacket) {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("example.com", 1)
                    .ns("@", "ns1.example.com")
                    .a("ns1", "10.0.0.1")
                    .a("www", "93.184.216.34")
                    .build());

  pop::MachineConfig config_a;
  config_a.id = "m-a";
  config_a.nameserver.io_capacity_qps = 200.0;  // burst of 10 packets
  config_a.nameserver.queue_config.queue_capacity = 8;
  pop::Machine a(config_a, store);

  pop::MachineConfig config_b;
  config_b.id = "m-b";
  pop::Machine b(config_b, store);

  a.nameserver().set_response_span_sink([](const Endpoint&, std::span<const std::uint8_t>) {});
  b.nameserver().set_response_span_sink([](const Endpoint&, std::span<const std::uint8_t>) {});
  a.nameserver().set_crash_predicate([](const dns::Question& q) {
    return q.name == DnsName::from("death.example.com");
  });
  a.nameserver().firewall().install(
      dns::Question{DnsName::from("blocked.example.com"), RecordType::A,
                    dns::RecordClass::IN},
      SimTime::origin(), Duration::minutes(10));

  const Endpoint client{*IpAddr::parse("198.51.100.7"), 5353};
  const std::vector<pop::Machine*> fleet{&a, &b};
  auto t = SimTime::origin();
  std::uint16_t id = 0;

  // Legitimate warm-up traffic on both machines.
  for (int i = 0; i < 20; ++i) {
    a.deliver(query_wire("www.example.com", ++id), client, 57, t);
    b.deliver(query_wire("www.example.com", ++id), client, 57, t);
    a.pump(t);
    b.pump(t);
    t += Duration::millis(20);
  }

  // Attack burst at machine A: firewall hits, malformed garbage, a
  // query-of-death, and enough volume to overflow the I/O budget and the
  // penalty queue at a single instant.
  a.deliver(query_wire("blocked.example.com", ++id), client, 57, t);
  a.deliver(std::vector<std::uint8_t>{0xde, 0xad}, client, 57, t);
  a.deliver(query_wire("death.example.com", ++id), client, 57, t);
  for (int i = 0; i < 40; ++i) {
    a.deliver(query_wire("www.example.com", ++id), client, 33, t);
  }
  a.pump(t);  // hits the query-of-death and crashes

  // While A is crashed, more packets arrive (NotRunning drops), then a
  // restart flushes whatever was still queued.
  a.deliver(query_wire("www.example.com", ++id), client, 57, t);
  EXPECT_EQ(a.nameserver().state(), server::ServerState::Crashed);
  a.nameserver().restart(t + Duration::seconds(1));

  // Machine B loses its NIC: deliveries die below the stack.
  b.inject_failure(pop::FailureType::Nic);
  for (int i = 0; i < 5; ++i) {
    b.deliver(query_wire("www.example.com", ++id), client, 57, t);
  }
  b.clear_failure();

  // Drain everything that is still queued.
  t += Duration::seconds(1);
  for (int i = 0; i < 100; ++i) {
    a.pump(t);
    b.pump(t);
    t += Duration::millis(10);
  }

  const control::DatapathReport report = control::collect_datapath(fleet);
  EXPECT_TRUE(report.conservative())
      << "received=" << report.packets_received << " accounted=" << report.accounted()
      << "\n" << report.render();

  // The run exercised every bucket of the taxonomy at least once, except
  // the I/O and queue overloads which depend on burst arithmetic — assert
  // the ones that are deterministic and that the totals line up.
  EXPECT_EQ(report.drops[DropReason::Firewall], 1u);
  EXPECT_EQ(report.drops[DropReason::Malformed], 1u);
  EXPECT_EQ(report.drops[DropReason::QueryOfDeath], 1u);
  EXPECT_EQ(report.drops[DropReason::NotRunning], 1u);
  EXPECT_EQ(report.drops[DropReason::NicFailure], 5u);
  EXPECT_GT(report.drops[DropReason::IoOverload] + report.drops[DropReason::QueueFull] +
                report.drops[DropReason::RestartFlush],
            0u);
  EXPECT_EQ(report.pending, 0u);
  EXPECT_GE(report.responses_sent, 40u);  // at least the warm-up traffic

  // Per-stage telemetry aggregated across the fleet saw every packet the
  // applications admitted.
  EXPECT_EQ(report.stage_latency(server::Stage::Receive).count(),
            report.snapshot.sum("akadns_packets_total"));
  EXPECT_EQ(report.stage_latency(server::Stage::Resolve).count() +
                report.drops[DropReason::QueryOfDeath],
            report.snapshot.sum("akadns_defense_released_total"));
  EXPECT_FALSE(report.render().empty());
}

}  // namespace
}  // namespace akadns
