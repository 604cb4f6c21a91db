// The probe suite: the fleet's Monitoring/Automated Recovery agent
// (§4.2.1), ported from the simulator's pop::MonitoringAgent contract
// to real processes over real sockets.
//
// Each round, every machine is exercised with wire-format DNS queries
// built from the zones it actually serves — a known-answer lookup, an
// NXDOMAIN for a random subdomain, an EDNS(0) query, and a TCP query
// (preferring a name whose UDP answer truncates, proving the TC-retry
// path) — and every response is byte-compared against the local
// simulator Responder built from the same (zone count, seed). These
// end-to-end probes hold the SOLE authority to suspend: a machine that
// fails `fail_threshold` consecutive rounds is suspended iff the PoP
// suspension quota (pop/suspension_policy.hpp, the same arithmetic the
// sim coordinator runs) grants it — otherwise it keeps serving,
// degraded, because a short PoP beats an empty one.
//
// Advisory signals — counters scraped from each machine's /metrics via
// obs::Exposition::parse — are recorded and reported but can NEVER
// suspend. The paper's warning is explicit: a bug in the monitoring
// path must not be able to take capacity down; only failing real
// queries may.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ip.hpp"
#include "common/rng.hpp"
#include "obs/series.hpp"
#include "pop/suspension.hpp"
#include "server/responder.hpp"
#include "workload/zones.hpp"

namespace akadns::fleet {

struct ProbeConfig {
  /// Consecutive failing rounds before a suspension request.
  std::size_t fail_threshold = 3;
  /// Consecutive passing rounds before a suspended machine is restored.
  std::size_t ok_threshold = 2;
  /// Per-probe response budget.
  int timeout_ms = 500;
  /// Background-thread round cadence (run_round() can also be driven
  /// manually — tests do).
  int interval_ms = 200;
  /// Scrape /metrics every N rounds (0 = never). Advisory only: a scrape
  /// that shows send failures or TCP protocol errors counts an anomaly,
  /// and thresholds this naive are exactly why advisory signals don't
  /// get suspension authority.
  int advisory_every = 5;
  /// The PoP-wide suspension quota.
  pop::SuspensionQuotaConfig quota{0.34, 1, 1};
};

/// One machine as the probe suite sees it. `alive` false (process down)
/// skips probing — the supervisor handles restarts, not us — and also
/// drops the machine from the quota fleet: a crashed machine is not
/// serving, so it must not count toward the min_serving floor that
/// keeps the PoP non-empty. It rejoins the fleet once alive again.
struct ProbeTarget {
  std::string id;
  Ipv4Addr addr = Ipv4Addr(127, 0, 0, 1);
  std::uint16_t dns_port = 0;    // UDP and TCP
  std::uint16_t stats_port = 0;  // 0: no advisory scrape
  bool alive = true;
};

struct MachineProbeState {
  std::string id;
  std::uint64_t rounds = 0;
  std::uint64_t failed_rounds = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_failures = 0;   // timeouts / IO errors
  std::uint64_t byte_mismatches = 0;  // answered, wrong bytes
  std::size_t consecutive_failures = 0;
  std::size_t consecutive_ok = 0;
  bool suspended = false;
  std::uint64_t suspensions = 0;        // grants obtained
  std::uint64_t denied_suspensions = 0; // quota refused; serving degraded
  std::uint64_t restores = 0;
  std::uint64_t advisory_scrapes = 0;
  std::uint64_t advisory_anomalies = 0;
  std::string last_error;
};

/// The probe suite's counters; the probing thread is their one writer.
struct ProbeSuiteStats {
  obs::Counter rounds;  // probe rounds completed

  static constexpr obs::SeriesRow<ProbeSuiteStats> kSeries[] = {
      {{"akadns_fleet_probe_rounds_total", "", "probe rounds completed"}, "",
       &ProbeSuiteStats::rounds},
  };
};

struct ProbeQuotaView {
  std::size_t fleet_size = 0;
  std::size_t suspended = 0;
  std::size_t quota = 0;
  std::uint64_t denied = 0;
};

class ProbeSuite {
 public:
  /// `targets_fn` is polled each round (endpoints move on restart).
  /// `suspend_fn(id, suspended)` fires on every authority decision:
  /// true = withdraw the machine (front + SIGUSR1), false = restore.
  using TargetsFn = std::function<std::vector<ProbeTarget>()>;
  using SuspendFn = std::function<void(const std::string& id, bool suspended)>;

  ProbeSuite(ProbeConfig config, const workload::HostedZones& zones, TargetsFn targets_fn,
             SuspendFn suspend_fn);
  ~ProbeSuite();

  ProbeSuite(const ProbeSuite&) = delete;
  ProbeSuite& operator=(const ProbeSuite&) = delete;

  /// One synchronous probe round across every target.
  void run_round();

  /// Background cadence: run_round() every interval_ms.
  void start();
  void stop();

  /// Drill hook: force this machine's rounds to fail (--suspend-machine)
  /// until cleared — exercises the genuine quota + recovery path.
  void inject_failure(const std::string& id, bool failing);

  std::vector<MachineProbeState> states() const;
  std::optional<MachineProbeState> state_of(const std::string& id) const;
  ProbeQuotaView quota_view() const;
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    obs::register_series(reg, base, stats_);
  }

 private:
  struct ProbeQuery {
    std::vector<std::uint8_t> wire;      // id 0; patched per send
    std::vector<std::uint8_t> expected;  // reference bytes, id 0
    bool over_tcp = false;
  };

  std::vector<ProbeQuery> build_round_queries();
  /// nullopt on pass; error text on fail (updates per-probe counters).
  std::optional<std::string> run_probe(const ProbeTarget& target, const ProbeQuery& probe,
                                       MachineProbeState& st);
  void advisory_scrape(const ProbeTarget& target, MachineProbeState& st);
  void find_truncation_candidate();

  ProbeConfig config_;
  const workload::HostedZones& zones_;
  server::Responder reference_;
  TargetsFn targets_fn_;
  SuspendFn suspend_fn_;
  pop::SuspensionCoordinator coordinator_;
  Rng rng_;
  std::uint16_t next_id_ = 1;
  /// A (wire, udp_expected, tcp_expected) triple whose UDP answer sets
  /// TC — found at construction if the zone set produces one.
  std::optional<ProbeQuery> tc_udp_probe_;
  std::optional<ProbeQuery> tc_tcp_probe_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, MachineProbeState> states_;
  std::unordered_map<std::string, bool> injected_failures_;
  ProbeSuiteStats stats_;

  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace akadns::fleet
