// The fleet drill report: what akadns-fleet writes at exit (--report)
// and what the CI fleet-drill smoke gates on. Plain value structs so
// the control plane does not depend on src/fleet/ — the fleet binary
// fills them from its supervisor/probe-suite/front state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace akadns::control {

struct FleetMachineReport {
  std::string id;
  std::int64_t pid = -1;
  bool up = false;
  bool suspended = false;
  std::uint16_t udp_port = 0;
  std::uint16_t stats_port = 0;
  std::uint64_t restarts = 0;
  std::uint64_t probe_rounds = 0;
  std::uint64_t probe_failed_rounds = 0;
  std::uint64_t byte_mismatches = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t denied_suspensions = 0;
  std::uint64_t restores = 0;
  std::uint64_t advisory_scrapes = 0;
  std::uint64_t advisory_anomalies = 0;
};

struct FleetFrontReport {
  std::uint16_t port = 0;
  std::uint64_t live_flows = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t flows_moved = 0;
  std::uint64_t udp_client_datagrams = 0;
  std::uint64_t udp_upstream_answers = 0;
  std::uint64_t udp_no_member_drops = 0;
  std::uint64_t tcp_connections = 0;
};

struct FleetQuotaReport {
  std::size_t fleet_size = 0;
  std::size_t suspended = 0;
  std::size_t quota = 0;
  std::uint64_t denied = 0;
};

/// One catchment change as measured by the anycast front.
struct FleetReconvergeReport {
  std::string member;
  bool withdrawal = true;
  std::uint64_t flows_moved = 0;
  std::int64_t remap_us = 0;
  std::int64_t first_answer_us = -1;  // -1: no traffic proved the new map
};

struct FleetReport {
  double uptime_seconds = 0.0;
  std::vector<FleetMachineReport> machines;
  FleetFrontReport front;
  FleetQuotaReport quota;
  std::vector<FleetReconvergeReport> reconverge;
  /// Human-readable drill timeline ("t=4.0s killed m1", ...).
  std::vector<std::string> events;
};

/// Renders the report as JSON (stable key order, no external deps).
std::string render_fleet_report(const FleetReport& report);

}  // namespace akadns::control
