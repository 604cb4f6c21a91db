// On-machine monitoring agent (§4.2.1, Figure 6).
//
// "Every nameserver is monitored by an on-machine monitoring agent that
// continually runs a suite of tests against the nameserver and detects
// incorrect or missing responses. The test suite includes DNS queries
// for each DNS zone and regression tests for known failure cases. If a
// failure is detected, that machine is self-suspended: the monitoring
// agent instructs the BGP-speaker to withdraw anycast advertisement."
//
// Self-suspension is gated by the SuspensionCoordinator quota so that a
// fleet-wide bug (possibly in the agent itself) cannot suspend everyone
// at once. Crashed nameservers are restarted. Machines that recover are
// resumed and re-advertised.
//
// Beyond the active probe suite, the agent derives *anomaly signals*
// from the machine's own metric registry: at each check it snapshots
// the registry (the same instruments a live /metrics scrape reads) and
// compares against the previous check's snapshot — NXDOMAIN-rate spike
// (random-subdomain attack shape, §4.3), drop rate (where the datapath
// is shedding), and stale-zone age (propagation silence). Signals are
// advisory: they feed the NOCC's aggregated view, while the suspension
// decision stays with the probe suite (a loaded-but-correct machine must
// keep serving — principle iii).
#pragma once

#include "common/event_scheduler.hpp"
#include "obs/registry.hpp"
#include "pop/machine.hpp"
#include "pop/suspension.hpp"
#include "zone/zone_store.hpp"

namespace akadns::pop {

/// Every knob the agent consults lives here — thresholds are visible,
/// documented configuration, not constants buried in the check loop.
struct MonitoringConfig {
  /// Cadence of the periodic probe-and-snapshot check.
  Duration check_interval = Duration::seconds(1);
  /// Extra regression-test questions beyond the per-zone SOA probes.
  std::vector<dns::Question> regression_tests;

  // --- Anomaly thresholds (registry-snapshot deltas between checks) ---

  /// NXDOMAIN-rate spike: flag when NXDOMAINs make up at least this
  /// fraction of the responses produced since the previous check.
  double nxdomain_rate_threshold = 0.5;
  /// ...but only when the window saw at least this many responses
  /// (tiny denominators make every rate look like a spike).
  std::uint64_t min_window_responses = 50;
  /// Drop-rate: flag when at least this fraction of the packets received
  /// since the previous check died in the drop taxonomy.
  double drop_rate_threshold = 0.5;
  /// Minimum packets in the window before the drop rate is meaningful.
  std::uint64_t min_window_packets = 50;
  /// Stale-zone: flag when the machine subscribes to zone propagation
  /// but its sync counters have not moved for this long.
  Duration stale_zone_age = Duration::seconds(30);
};

/// Historical name; the struct predates the anomaly knobs.
using MonitoringAgentConfig = MonitoringConfig;

/// The signals derived from the latest registry-snapshot window.
struct AnomalySignals {
  double nxdomain_rate = 0.0;  // NXDOMAIN fraction of window responses
  double drop_rate = 0.0;      // dropped fraction of window packets
  Duration zone_sync_age = Duration::zero();
  bool nxdomain_spike = false;
  bool drop_spike = false;
  bool stale_zone = false;
};

struct MonitoringAgentStats {
  std::uint64_t checks = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t suspension_denied = 0;
  std::uint64_t restarts = 0;
  std::uint64_t recoveries = 0;
  // Checks whose snapshot window crossed an anomaly threshold.
  std::uint64_t nxdomain_spikes = 0;
  std::uint64_t drop_spikes = 0;
  std::uint64_t stale_zone_flags = 0;
};

class MonitoringAgent {
 public:
  MonitoringAgent(Machine& machine, const zone::ZoneStore& store,
                  SuspensionCoordinator& coordinator, EventScheduler& scheduler,
                  MonitoringConfig config = {});
  ~MonitoringAgent();

  MonitoringAgent(const MonitoringAgent&) = delete;
  MonitoringAgent& operator=(const MonitoringAgent&) = delete;

  /// Begins periodic checking.
  void start();
  void stop();

  /// Runs one health check immediately and takes the resulting action.
  /// Returns true if the machine is healthy.
  bool check_now();

  const MonitoringAgentStats& stats() const noexcept { return stats_; }
  /// Signals derived at the most recent check.
  const AnomalySignals& anomalies() const noexcept { return anomalies_; }

 private:
  /// Counter totals read from the machine's registry at one check.
  struct Window {
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    std::uint64_t responses = 0;
    std::uint64_t nxdomain = 0;
    std::uint64_t sync_updates = 0;  // 0 when the machine has no replica
  };

  /// Test suite: a SOA probe per hosted zone + regression questions +
  /// staleness. Returns a failure description or empty if healthy.
  std::string run_test_suite(SimTime now);

  Window sample_window() const;
  void derive_anomalies(SimTime now);
  void schedule_next();

  Machine& machine_;
  const zone::ZoneStore& store_;
  SuspensionCoordinator& coordinator_;
  EventScheduler& scheduler_;
  MonitoringConfig config_;
  MonitoringAgentStats stats_;
  /// The machine's instruments, registered once at construction — each
  /// check is a snapshot of exactly what a live scrape would read.
  obs::MetricRegistry registry_;
  Window prev_window_;
  SimTime last_sync_progress_;
  AnomalySignals anomalies_;
  bool running_ = false;
  bool holding_suspension_ = false;
  EventScheduler::EventId pending_event_ = 0;
};

}  // namespace akadns::pop
