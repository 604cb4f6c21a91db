// The secondary side of zone propagation over real sockets (RFC 1996 /
// 1995 / 5936): a refresh thread that probes a primary's SOA serial over
// UDP and, when behind, pulls the delta chain (IXFR) or the full zone
// (AXFR) over TCP and feeds it into the local ZonePublisher — from where
// it fans out to every serve worker's replica exactly like a local
// publish. NOTIFY arrivals (wired via ServeConfig::on_notify ->
// notify_kick()) collapse the refresh interval to "now".
//
// Hardened for a hostile network (the degradation ladder):
//   * Probes and transfers ask through the one StubClient
//     (net/stub_client.hpp) with the stop eventfd as its stop fd, so
//     stop() interrupts a probe or transfer stalled on a blackholed
//     primary immediately instead of waiting out its deadline.
//   * Failures back off per apex: exponential with +/-20% deterministic
//     jitter, clamped by the zone's own SOA retry. A NOTIFY collapses
//     the backoff — the primary just told us it has news.
//   * Transfers run under a whole-transfer deadline and byte/record
//     budgets; a stalled or runaway stream is cut, counted by reason
//     (akadns_transfer_rejected_total), and never partially published —
//     the guard (propagation/transfer_guard.hpp) vets every stream
//     before it reaches the parser.
//   * Each successful refresh feeds the per-apex FreshnessTracker;
//     synced() is monotone (initial sync achieved) and degraded() adds
//     "some zone aged past its SOA expire", which is what /healthz keys
//     on — stale zones keep serving, expired zones flip it to 503.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "dns/name.hpp"
#include "net/socket.hpp"
#include "obs/series.hpp"
#include "propagation/fault_hooks.hpp"
#include "propagation/freshness.hpp"
#include "propagation/transfer_guard.hpp"
#include "propagation/transfer_service.hpp"
#include "propagation/zone_publisher.hpp"

namespace akadns::net {

struct SecondaryConfig {
  /// The primary's address; UDP (SOA probes, from NOTIFYs' perspective
  /// the other direction) and TCP (transfers) use the same port.
  Ipv4Addr primary_addr = Ipv4Addr(127, 0, 0, 1);
  std::uint16_t primary_port = 0;
  /// Zones to track. Empty: refresh whatever the local publisher already
  /// holds (bootstrap a new apex by listing it here).
  std::vector<dns::DnsName> apexes;
  /// SOA probe cadence ceiling: an apex is probed every
  /// min(refresh_interval, its SOA refresh).
  Duration refresh_interval = Duration::seconds(5);
  /// Per-socket-operation timeout (probe reply, one transfer read).
  Duration io_timeout = Duration::seconds(2);
  /// Whole-transfer budget: connect to closing SOA. A primary that keeps
  /// trickling bytes can exhaust per-op timeouts forever; this cannot be
  /// exhausted.
  Duration transfer_deadline = Duration::seconds(15);
  /// Byte/record ceilings a transfer may not exceed (reason: oversize).
  propagation::TransferLimits limits;
  /// Operational caps on SOA refresh/expire for the freshness ladder
  /// (drills tighten these; zero = the zone's SOA verbatim).
  propagation::FreshnessCaps freshness_caps;
  /// Share a tracker with the serve side (stale/expired query gating);
  /// null = the sync owns a private one.
  std::shared_ptr<propagation::FreshnessTracker> freshness;
  /// Test seam: per-operation fault injection (null in production).
  propagation::FaultHooksPtr fault_hooks;
};

struct SecondaryStats {
  obs::Counter soa_checks;      // UDP probes answered
  obs::Counter up_to_date;      // probe said: nothing to fetch
  obs::Counter ixfr_applied;    // delta chains fed into the publisher
  obs::Counter axfr_applied;    // full zones fed into the publisher
  obs::Counter fallbacks;       // IXFR didn't apply -> refetched as AXFR
  obs::Counter failures;        // probe/transfer/apply errors
  obs::Counter notify_kicks;    // refresh passes triggered by NOTIFY
  obs::Counter retries;         // backoff-scheduled retry attempts
  // Transfers rejected before publish, one per TransferReject.
  obs::Counter rejected_io;
  obs::Counter rejected_refused;
  obs::Counter rejected_truncated;
  obs::Counter rejected_corrupt;
  obs::Counter rejected_serial_regression;
  obs::Counter rejected_oversize;
  obs::Counter rejected_deadline;
  obs::Counter rejected_empty;

  static constexpr obs::FamilySpec kEvent{"akadns_secondary_total", "event",
                                          "secondary-sync refresh events"};
  static constexpr obs::FamilySpec kRejected{"akadns_transfer_rejected_total", "reason",
                                             "zone transfers rejected before publish"};
  using Reject = propagation::TransferReject;
  static constexpr obs::SeriesRow<SecondaryStats> kSeries[] = {
      {kEvent, "soa_check", &SecondaryStats::soa_checks},
      {kEvent, "up_to_date", &SecondaryStats::up_to_date},
      {kEvent, "ixfr_applied", &SecondaryStats::ixfr_applied},
      {kEvent, "axfr_applied", &SecondaryStats::axfr_applied},
      {kEvent, "fallback", &SecondaryStats::fallbacks},
      {kEvent, "failure", &SecondaryStats::failures},
      {kEvent, "notify_kick", &SecondaryStats::notify_kicks},
      {kEvent, "retry", &SecondaryStats::retries},
      {kRejected, to_string(Reject::Io), &SecondaryStats::rejected_io},
      {kRejected, to_string(Reject::Refused), &SecondaryStats::rejected_refused},
      {kRejected, to_string(Reject::Truncated), &SecondaryStats::rejected_truncated},
      {kRejected, to_string(Reject::Corrupt), &SecondaryStats::rejected_corrupt},
      {kRejected, to_string(Reject::SerialRegression),
       &SecondaryStats::rejected_serial_regression},
      {kRejected, to_string(Reject::Oversize), &SecondaryStats::rejected_oversize},
      {kRejected, to_string(Reject::Deadline), &SecondaryStats::rejected_deadline},
      {kRejected, to_string(Reject::Empty), &SecondaryStats::rejected_empty},
  };

  /// The counter of one reject reason: the kRejected row labelled with it.
  static obs::Counter SecondaryStats::*rejected(propagation::TransferReject reason) noexcept;
};

/// Periodically pulls zone versions from a primary into `publisher`.
/// Thread-safe surface: start()/stop()/notify_kick()/stats() may be
/// called from any thread (notify_kick in particular fires from serve
/// worker threads when a NOTIFY datagram lands).
class SecondarySync {
 public:
  SecondarySync(SecondaryConfig config, propagation::ZonePublisher& publisher);
  ~SecondarySync() { stop(); }

  SecondarySync(const SecondarySync&) = delete;
  SecondarySync& operator=(const SecondarySync&) = delete;

  /// Launches the refresh thread (first pass runs immediately).
  void start();
  /// Stops and joins — promptly, even mid-probe or mid-transfer against
  /// a blackholed primary (the stop eventfd sits in every poll set).
  /// Idempotent.
  void stop();

  /// Collapses the current refresh wait and every apex's backoff —
  /// called on NOTIFY receipt. A kick landing during a refresh pass
  /// schedules one more full pass before the thread sleeps again.
  void notify_kick();

  /// One synchronous refresh pass over every tracked apex (backoff
  /// schedules are overridden: everything is due now); returns how many
  /// zones changed locally. Usable without start() (tests drive the
  /// protocol deterministically this way).
  std::size_t sync_once();

  SecondaryStats stats() const;

  /// Registers the live counters plus the freshness instruments
  /// (zone_staleness_seconds, backoff level). Counter writes are
  /// single-writer under the refresh thread; scrapes read relaxed
  /// atomics and never take this object's mutex.
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const;

  /// True once a refresh pass has completed with every tracked apex
  /// transferred or confirmed up to date. Monotone: transient failures
  /// afterwards do not clear it (that is what degraded() is for) — a
  /// secondary that has synced once serves stale rather than flapping.
  bool synced() const;

  /// The /healthz signal: not yet synced, or some tracked zone aged past
  /// its (capped) SOA expire. Stale-but-not-expired zones do NOT degrade
  /// — serve-stale is the intended mode under primary loss.
  bool degraded() const;

  /// The shared freshness machine (the serve side gates queries on it).
  const std::shared_ptr<propagation::FreshnessTracker>& freshness() const noexcept {
    return freshness_;
  }

 private:
  struct ApexSchedule {
    int backoff_level = 0;        // consecutive failures
    std::int64_t next_due_ns = 0; // steady-clock ns; 0 = due immediately
    bool confirmed_once = false;  // ever transferred or confirmed current
  };

  void run();
  /// One pass over every due apex; returns how many zones changed.
  std::size_t run_pass(bool force_all);
  std::vector<dns::DnsName> tracked_apexes() const;
  /// UDP SOA probe; the primary's SOA for `apex` (serial + timers).
  Result<dns::SoaRecord> probe_soa(const dns::DnsName& apex);
  /// TCP transfer + apply. `have_serial` is the local serial (ignored
  /// when `have_zone` is false -> AXFR). True if the local store changed.
  Result<bool> transfer(const dns::DnsName& apex, std::uint32_t have_serial, bool have_zone);
  /// One framed TCP exchange under the transfer deadline and byte
  /// budget: sends `query`, reads messages until the SOA-delimited
  /// stream is complete, vets it (transfer_guard) and parses it. A
  /// failure is counted under its reject reason (io / deadline / ...).
  Result<propagation::TransferPayload> fetch(const dns::DnsName& apex,
                                             const dns::Message& query,
                                             std::uint32_t client_serial);

  Endpoint primary() const { return {IpAddr(config_.primary_addr), config_.primary_port}; }
  /// Sleeps `d`, interruptible by stop(). True if stop was requested.
  bool interruptible_sleep(Duration d);
  /// Consults the fault hook for `op`; true means "fail this op".
  bool hook_fate(propagation::SyncOp op);

  void note_reject(propagation::TransferReject reason);
  std::uint16_t next_transaction_id();
  Duration backoff_delay(const dns::DnsName& apex, int level,
                         const std::optional<dns::SoaRecord>& soa) const;
  Duration effective_refresh(const std::optional<dns::SoaRecord>& soa) const;
  std::optional<dns::SoaRecord> held_soa(const dns::DnsName& apex) const;

  SecondaryConfig config_;
  propagation::ZonePublisher& publisher_;
  std::shared_ptr<propagation::FreshnessTracker> freshness_;

  mutable std::mutex mutex_;  // guards stats_, schedule_, and wait state
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool kicked_ = false;
  bool running_ = false;
  SecondaryStats stats_;
  bool synced_ = false;
  std::uint16_t next_id_ = 1;
  std::unordered_map<dns::DnsName, ApexSchedule> schedule_;
  std::atomic<int> max_backoff_level_{0};
  FdHandle stop_event_;
  std::thread thread_;
};

}  // namespace akadns::net
