// Determinism of the sharded datapath across worker counts: the lane
// COUNT is configuration, the thread count is not. For a fixed seed and
// workload, draining the lanes with 1, 2, or 8 worker threads must
// produce byte-identical responses in the same order, an identical
// metrics snapshot (every registered series, wall-clock stage timings
// aside), and an identical fleet-wide DatapathReport (including the
// conservation invariant per lane).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "control/reporting.hpp"
#include "core/platform.hpp"
#include "dns/wire.hpp"
#include "obs/exposition.hpp"
#include "server/nameserver.hpp"
#include "zone/zone_builder.hpp"

namespace akadns {
namespace {

using dns::DnsName;
using dns::RecordType;

// ---------------------------------------------------------------------------
// Machine level: one 8-lane nameserver, a seeded mixed workload (legit
// traffic from many sources, NXDOMAIN noise, malformed wires, a
// query-of-death + restart), drained through a WorkerPool of varying
// width via the begin_phase / run_lane / end_phase contract.
// ---------------------------------------------------------------------------

struct MachineRunResult {
  std::vector<std::pair<Endpoint, std::vector<std::uint8_t>>> responses;
  /// The machine's whole registry snapshot: packet, drop, responder,
  /// answer-cache, defense, pending and telemetry series, per lane.
  obs::MetricsSnapshot snapshot;
  /// render_json of `snapshot` with the wall-clock values of
  /// akadns_stage_latency_ns left out (its per-stage counts stay).
  std::string json;
};

MachineRunResult run_machine_workload(std::size_t worker_threads) {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("example.com", 1)
                    .ns("@", "ns1.example.com")
                    .a("ns1", "10.0.0.1")
                    .a("www", "93.184.216.34")
                    .a("api", "93.184.216.35")
                    .build());

  server::NameserverConfig config;
  config.lanes = 8;
  config.compute_capacity_qps = 4000.0;  // small enough to leave backlog
  config.io_capacity_qps = 1'000'000.0;
  server::Nameserver ns(config, store);
  ns.set_crash_predicate(
      [](const dns::Question& q) { return q.name == DnsName::from("death.example.com"); });

  MachineRunResult result;
  ns.set_response_span_sink([&](const Endpoint& dst, std::span<const std::uint8_t> wire) {
    result.responses.emplace_back(dst, std::vector<std::uint8_t>(wire.begin(), wire.end()));
  });

  WorkerPool pool(worker_threads);
  const auto drain = [&](SimTime now) {
    if (!ns.begin_phase(now)) return;
    std::vector<std::size_t> lanes;
    for (std::size_t i = 0; i < ns.lane_count(); ++i) {
      if (ns.lane_phase_budget(i) > 0) lanes.push_back(i);
    }
    pool.parallel_for(lanes.size(), [&](std::size_t k) { ns.run_lane(lanes[k], now); });
    ns.end_phase(now);
  };

  Rng rng(0xD15EA5EULL);  // identical stream for every worker count
  std::uint16_t id = 0;
  auto t = SimTime::origin();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      const Endpoint source{IpAddr(Ipv4Addr(static_cast<std::uint32_t>(
                                0x0A000000u | rng.next_below(4096)))),
                            static_cast<std::uint16_t>(1024 + rng.next_below(50000))};
      if (i % 13 == 12) {
        ns.receive(std::vector<std::uint8_t>{0xde, 0xad, 0xbe}, source, 57, t);
        continue;
      }
      const char* name = rng.next_bool(0.2) ? "api.example.com" : "www.example.com";
      if (rng.next_bool(0.1)) name = "no-such-name.example.com";
      ns.receive(dns::encode(dns::make_query(++id, DnsName::from(name), RecordType::A)),
                 source, 57, t);
    }
    // Mid-run query-of-death: one lane stops, the machine crashes at
    // end_phase, and a restart flushes the backlog — all deterministic.
    if (round == 20) {
      ns.receive(dns::encode(dns::make_query(++id, DnsName::from("death.example.com"),
                                             RecordType::A)),
                 Endpoint{IpAddr(Ipv4Addr(0x0A0000FFu)), 4242}, 57, t);
    }
    drain(t);
    if (ns.state() == server::ServerState::Crashed) ns.restart(t);
    t += Duration::millis(5);
  }
  // Final full drain.
  for (int i = 0; i < 200 && ns.has_pending(); ++i) {
    t += Duration::millis(5);
    drain(t);
  }

  obs::MetricRegistry reg;
  ns.register_metrics(reg, {});
  result.snapshot = reg.snapshot();
  obs::MetricsSnapshot masked = result.snapshot;
  for (auto& fam : masked.families) {
    if (fam.name != "akadns_stage_latency_ns") continue;
    // Wall-clock stage latencies are nondeterministic; their COUNTS are
    // exact per-packet tallies and must match.
    for (auto& sample : fam.samples) {
      LogHistogram counted;
      counted.add_n(0.0, sample.hist.count());
      sample.hist = counted;
    }
  }
  result.json = obs::render_json(masked);
  return result;
}

TEST(ParallelDeterminism, MachineDrainIsIdenticalAcrossWorkerCounts) {
  const MachineRunResult serial = run_machine_workload(1);

  // Sanity: the workload actually exercised the machinery.
  const obs::MetricsSnapshot& snap = serial.snapshot;
  EXPECT_GT(serial.responses.size(), 1000u);
  EXPECT_EQ(snap.sum("akadns_crashes_total"), 1u);
  EXPECT_GT(snap.sum("akadns_drops_total", obs::labels({{"reason", "malformed"}})), 0u);
  EXPECT_GT(snap.sum("akadns_answer_cache_total", obs::labels({{"event", "hit"}})), 0u);
  const obs::MetricFamily* packets = snap.family("akadns_packets_total");
  ASSERT_NE(packets, nullptr);
  std::size_t active_lanes = 0;
  for (const auto& sample : packets->samples) {
    if (sample.counter > 0) ++active_lanes;
  }
  EXPECT_GE(active_lanes, 6u) << "source hashing should spread across lanes";

  for (const std::size_t threads : {2u, 8u}) {
    const MachineRunResult parallel = run_machine_workload(threads);
    ASSERT_EQ(parallel.responses.size(), serial.responses.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.responses.size(); ++i) {
      ASSERT_EQ(parallel.responses[i].first, serial.responses[i].first)
          << "threads=" << threads << " response " << i << " destination";
      ASSERT_EQ(parallel.responses[i].second, serial.responses[i].second)
          << "threads=" << threads << " response " << i << " bytes";
    }
    EXPECT_EQ(parallel.json, serial.json) << "threads=" << threads;
    // Queue wait is simulated time, so its sum is exact; the JSON above
    // prints it to ten significant digits only.
    EXPECT_EQ(parallel.snapshot.merged_histogram("akadns_queue_wait_us").sum(),
              snap.merged_histogram("akadns_queue_wait_us").sum())
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Fleet level: a whole Platform (anycast routing, ECMP, multi-lane
// machines, filter pipeline, pump scheduling) run with 1, 2, and 8
// worker threads; the fleet-wide DatapathReport — totals, per-lane
// conservation, drop taxonomy — must be identical, as must every
// client-visible response.
// ---------------------------------------------------------------------------

struct FleetRunResult {
  std::uint64_t responses_received = 0;
  std::uint64_t timeouts = 0;
  std::vector<std::vector<std::uint8_t>> answers;  // encoded, in completion order
  std::uint64_t packets_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t pending = 0;
  std::uint64_t drops_total = 0;
  std::vector<control::Ledger> lanes;
  bool conservative = false;

  bool operator==(const FleetRunResult&) const = default;
};

FleetRunResult run_fleet_workload(std::size_t worker_threads) {
  core::PlatformConfig config;
  config.topology.tier1_count = 3;
  config.topology.tier2_count = 8;
  config.topology.edge_count = 12;
  config.network.slow_mrai_fraction = 0.0;
  config.seed = 23;
  config.machine_lanes = 4;
  config.worker_threads = worker_threads;

  core::Platform platform(config);
  platform.build_internet();
  for (std::size_t i = 0; i < 2; ++i) {
    platform.add_pop(platform.topology().edges[i], 2, {1});
  }
  platform.host_zone(zone::ZoneBuilder("example.com", 1)
                         .soa("ns1.example.com", "admin.example.com", 1)
                         .ns("@", "ns1.example.com")
                         .a("ns1", "10.0.0.1")
                         .a("www", "93.184.216.34")
                         .build());
  platform.install_filter_pipeline();
  platform.run_until(platform.scheduler().now() + Duration::seconds(10));

  FleetRunResult result;
  const netsim::NodeId client_node = platform.topology().edges.back();
  Rng rng(0xFEEDULL);
  std::uint16_t id = 0;
  for (int i = 0; i < 120; ++i) {
    const Endpoint client{IpAddr(Ipv4Addr(static_cast<std::uint32_t>(
                              0xC6336400u | rng.next_below(200)))),
                          static_cast<std::uint16_t>(1024 + rng.next_below(60000))};
    const char* name = rng.next_bool(0.15) ? "nope.example.com" : "www.example.com";
    platform.send_query(client_node, client, 57,
                        dns::make_query(++id, DnsName::from(name), RecordType::A), 1,
                        [&result](std::optional<dns::Message> response, Duration) {
                          if (response) {
                            result.answers.push_back(dns::encode(*response));
                          }
                        });
  }
  platform.run_until(platform.scheduler().now() + Duration::seconds(30));

  result.responses_received = platform.responses_received();
  result.timeouts = platform.timeouts();

  std::vector<pop::Machine*> fleet;
  for (std::size_t i = 0; i < platform.pop_count(); ++i) {
    for (auto* machine : platform.pop_at(i).machines()) fleet.push_back(machine);
  }
  const control::DatapathReport report = control::collect_datapath(fleet);
  result.packets_received = report.packets_received;
  result.responses_sent = report.responses_sent;
  result.pending = report.pending;
  result.drops_total = report.drops.total();
  result.lanes = report.lanes;
  result.conservative = report.conservative();
  for (const auto& lane : report.lanes) {
    EXPECT_TRUE(lane.conservative()) << report.render();
  }
  return result;
}

TEST(ParallelDeterminism, FleetReportIsIdenticalAcrossWorkerCounts) {
  const FleetRunResult serial = run_fleet_workload(1);
  EXPECT_TRUE(serial.conservative);
  EXPECT_EQ(serial.responses_received, 120u);
  EXPECT_EQ(serial.timeouts, 0u);
  EXPECT_EQ(serial.lanes.size(), 4u);

  for (const std::size_t threads : {2u, 8u}) {
    const FleetRunResult parallel = run_fleet_workload(threads);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace akadns
