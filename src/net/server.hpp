// akadns-serve: the authoritative frontend on real Linux sockets.
//
// N worker threads each own one SO_REUSEPORT UDP socket bound to the
// same port — the kernel's receive-side flow hash shards resolvers
// across workers exactly as the simulator's lane-pinning hash shards
// them across lanes (§5b of DESIGN.md), so "worker" here is the physical
// realization of a lane: each owns a server::LaneCore (responder with
// its answer cache, buffer pool, response batch), its own receive batch
// and its own statistics, and no query ever crosses a worker boundary.
//
// UDP moves through recvmmsg/sendmmsg in batches; TCP (the truncation
// fallback — clients retry over TCP when a response comes back TC) is a
// per-worker SO_REUSEPORT listener with RFC 1035 two-byte length
// framing, pipelining supported, responses never truncated. Both feed
// one query path: decode_query_view once, the NOTIFY (UDP) or transfer
// (TCP) hand-off, the query-of-death firewall, the freshness ladder,
// then either respond_view_into straight into the reply buffer (on the
// UDP path a query with a short name allocates nothing, decode
// included) or, on the defense path, the lane core's admit and answer
// that the sim's lanes run too.
// A queued query carries its reply route, so a released answer goes
// back as a datagram or as a frame onto its still-open connection. A
// connection whose unsent output passes one maximum frame is not read
// again until that output drains.
//
// Graceful drain: stop() (or the daemon's SIGTERM handler) makes every
// worker close its TCP listener, take one final sweep of datagrams
// already queued in its UDP socket, flush established connections'
// pending responses until the drain deadline, and exit. Stats are
// merged after the join, so the daemon's final telemetry dump sees
// every counted packet.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "defense/defense_engine.hpp"
#include "net/socket.hpp"
#include "propagation/freshness.hpp"
#include "propagation/transfer_service.hpp"
#include "propagation/zone_publisher.hpp"
#include "obs/series.hpp"
#include "propagation/zone_subscriber.hpp"
#include "server/responder.hpp"
#include "zone/zone_store.hpp"

namespace akadns::net {

/// Defense stack for the socket frontend: each worker runs its own
/// single-lane defense::DefenseEngine on CLOCK_MONOTONIC, ahead of the
/// Responder — the same engine the simulated nameserver drives on
/// simulated time. The worker's kernel-RSS shard plays the role of the
/// sim's lane, so per-worker filter state needs no sharing or locking.
struct DefenseOptions {
  /// Routes queries through the filter chain + penalty queues. Off by
  /// default: the inline fast path answers straight out of the receive
  /// batch (the firewall rule table is consulted either way). Neither
  /// path makes a heap allocation per query once the penalty queues'
  /// rings have grown to their working depth.
  bool enabled = false;
  /// Server-wide compute metering (answers/sec the engine releases to
  /// the responders; split evenly across workers). <= 0: unmetered —
  /// the queues then only shed by score, never shape. Metering needs
  /// `enabled`: Server::start() rejects compute_qps > 0 without it.
  double compute_qps = 0.0;
  /// Per-worker penalty-queue shape (M_i thresholds, S_max, capacity).
  filters::PenaltyQueueConfig queue_config{};
  /// NXDOMAIN (random-subdomain) filter tuning. The threshold is
  /// server-level: it is scaled down by the worker count, as each worker
  /// sees only its RSS shard of the traffic. This is the discriminating
  /// filter for the socket frontend — it scores what is *asked*, so it
  /// works even when all traffic shares a few source ports (loopback).
  double nxdomain_penalty = 150.0;
  std::uint64_t nxdomain_threshold = 200;
  /// Also install the hop-count filter (spoofed-source detection via IP
  /// TTL divergence). Inert over sockets today: recvmmsg does not surface
  /// the received TTL, so every query is scored with a fixed TTL of 64
  /// (loopback itself delivers whatever TTL the sender set).
  bool hopcount = true;
  /// Query-of-death firewall rules installed at startup (each drops the
  /// qname and everything below it, any qtype, no practical expiry).
  std::vector<dns::DnsName> qod_rules;
};

struct ServeConfig {
  Ipv4Addr bind_addr = Ipv4Addr(127, 0, 0, 1);
  /// UDP and TCP port (0 binds an ephemeral port; read it back from
  /// udp_port() — tests and the loopback differential suite do this).
  std::uint16_t port = 0;
  std::size_t workers = 4;
  /// Datagrams per recvmmsg/sendmmsg syscall.
  std::size_t udp_batch = 32;
  /// Established TCP connections with no byte movement for this long are
  /// reaped (slowloris protection: a peer holding sockets open cannot pin
  /// a worker's connection slots). Zero disables the reaper.
  Duration tcp_idle_timeout = Duration::seconds(30);
  server::ResponderConfig responder{};
  DefenseOptions defense{};
  /// Invoked (from a worker thread — must be thread-safe and cheap) when
  /// a NOTIFY arrives over UDP for `apex`. The worker has already queued
  /// the acknowledgment; the callback's job is to kick a refresh check
  /// (SecondarySync::notify_kick) or record the event.
  std::function<void(const dns::DnsName& apex)> on_notify;
  /// Zone-transfer (AXFR/IXFR) response shaping for the TCP path.
  propagation::TransferConfig transfer{};
  /// Per-apex freshness ladder, shared with the secondary sync. When set,
  /// queries for an apex past its (capped) SOA expire are REFUSED — the
  /// zone is withdrawn, exactly as if it were not hosted — while
  /// stale-but-not-expired zones keep serving (counted as stale_served).
  /// Null: every zone is treated as fresh (primaries, static content).
  std::shared_ptr<propagation::FreshnessTracker> freshness;
};

/// Frontend I/O counters, one set per worker. (Responder/cache counters
/// live in server::ResponderStats / AnswerCache::Stats.) Cross-worker
/// merging is a registry-snapshot sum — the struct-level merge() the
/// seed carried is gone.
struct FrontendStats {
  obs::Counter udp_packets;     // datagrams received
  obs::Counter udp_responses;   // datagrams handed to sendmmsg
  obs::Counter udp_malformed;   // dropped: no parseable header/question
  obs::Counter udp_send_failures;  // responses the kernel refused
  obs::Counter udp_batches;     // recvmmsg calls that returned data
  obs::Counter tcp_accepted;
  obs::Counter tcp_rejected;    // over the connection cap
  obs::Counter tcp_queries;     // frames decoded as queries
  obs::Counter tcp_responses;   // answers framed onto a connection
  obs::Counter tcp_protocol_errors;  // framing violations / bad frames
  obs::Counter tcp_closed_drops;  // released answers whose connection had closed
  obs::Counter tcp_read_paused;   // reads paused: unsent output past one frame
  obs::Counter drain_flushed;   // UDP datagrams answered during drain
  obs::Counter udp_notifies;    // NOTIFY messages acknowledged
  obs::Counter tcp_transfers;   // AXFR/IXFR queries answered
  obs::Counter zone_update_wakes;  // update-eventfd wakeups taken
  obs::Counter tcp_idle_reaped;    // connections closed by the idle reaper
  obs::Counter stale_served;       // answers served from a stale zone
  obs::Counter expired_refused;    // queries REFUSED: zone past SOA expire

  static constexpr obs::FamilySpec kEvents{"akadns_frontend_total", "event",
                                           "socket-frontend I/O events"};
  static constexpr obs::SeriesRow<FrontendStats> kSeries[] = {
      {kEvents, "udp_packets", &FrontendStats::udp_packets},
      {kEvents, "udp_responses", &FrontendStats::udp_responses},
      {kEvents, "udp_malformed", &FrontendStats::udp_malformed},
      {kEvents, "udp_send_failures", &FrontendStats::udp_send_failures},
      {kEvents, "udp_batches", &FrontendStats::udp_batches},
      {kEvents, "tcp_accepted", &FrontendStats::tcp_accepted},
      {kEvents, "tcp_rejected", &FrontendStats::tcp_rejected},
      {kEvents, "tcp_queries", &FrontendStats::tcp_queries},
      {kEvents, "tcp_responses", &FrontendStats::tcp_responses},
      {kEvents, "tcp_protocol_errors", &FrontendStats::tcp_protocol_errors},
      {kEvents, "tcp_closed_drops", &FrontendStats::tcp_closed_drops},
      {kEvents, "tcp_read_paused", &FrontendStats::tcp_read_paused},
      {kEvents, "drain_flushed", &FrontendStats::drain_flushed},
      {kEvents, "udp_notifies", &FrontendStats::udp_notifies},
      {kEvents, "tcp_transfers", &FrontendStats::tcp_transfers},
      {kEvents, "zone_update_wakes", &FrontendStats::zone_update_wakes},
      {kEvents, "tcp_idle_reaped", &FrontendStats::tcp_idle_reaped},
      {kEvents, "stale_served", &FrontendStats::stale_served},
      {kEvents, "expired_refused", &FrontendStats::expired_refused},
  };
};

/// Whole-server summary, rendered from a metrics snapshot (stats() /
/// render_server_stats). Because the registry reads live single-writer
/// atomics, this view is valid mid-run too — exact invariants (e.g. udp
/// packets == responses + drops) only hold once the workers are quiescent.
struct ServerStats {
  FrontendStats frontend;
  server::ResponderStats responder;
  /// Per-worker UDP packet counts — the observable shard balance the
  /// kernel's RSS hash produced.
  std::vector<std::uint64_t> per_worker_udp;
  /// Whether queries were routed through the filter chain + queues.
  bool defense_enabled = false;
  /// Defense accounting (scored / enqueued / released / shed-by-reason),
  /// merged across workers and per worker.
  defense::DefenseLaneStats defense;
  std::vector<defense::DefenseLaneStats> per_worker_defense;
  /// Query-of-death firewall rules live at shutdown (per worker the
  /// tables are identical by construction; worker 0 reported).
  std::size_t firewall_rules = 0;
  /// Propagation: how worker replicas absorbed published zone versions
  /// and their compile accounting, merged across workers.
  propagation::ZoneSyncStats zone_sync;
  zone::CompileStats replica_compiles;
};

/// Renders the whole-server summary from a metrics snapshot. The same
/// renderer serves Server::stats() and offline consumers of a scraped
/// snapshot (the snapshot carries everything; no live server needed).
ServerStats render_server_stats(const obs::MetricsSnapshot& snap, std::size_t workers,
                                bool defense_enabled);

class Server {
 public:
  /// Live-reload mode: every worker owns a replica ZoneStore attached to
  /// `publisher` — zones published (or IXFR chains applied) while the
  /// server runs propagate to the workers without dropping queries. The
  /// publisher must outlive the server; publish()/apply_chain() are safe
  /// from any thread.
  Server(ServeConfig config, propagation::ZonePublisher& publisher);

  /// Static-content mode: snapshots `store` into an internal publisher at
  /// construction (compiled snapshots are shared, not recompiled). Later
  /// mutations of `store` are NOT observed — publish before constructing,
  /// exactly like the sim publishes before pumping queries.
  Server(ServeConfig config, const zone::ZoneStore& store);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds every worker's sockets and launches the threads. On error
  /// nothing is left running.
  Result<bool> start();

  /// Graceful drain: stop accepting, sweep queued datagrams, flush
  /// in-flight TCP, join every worker. Idempotent.
  void stop();

  /// First half of stop(): signals every worker to drain and flips
  /// ready() to false, without blocking on the join. A /healthz scrape
  /// taken while the drain runs sees 503 — load balancers stop steering
  /// before the last in-flight response leaves. stop() completes the
  /// join (and calls this itself if nobody did).
  void begin_drain();

  /// Self-suspension (§4.2.1): the machine withdraws from readiness —
  /// /healthz flips to 503 so the anycast front stops steering new
  /// flows — but the workers keep serving whatever still arrives
  /// (suspended means withdrawn, not dark). Settable any time, from any
  /// thread; the probe suite's recovery path clears it.
  void set_suspended(bool suspended) noexcept {
    suspended_.store(suspended, std::memory_order_release);
  }
  bool suspended() const noexcept { return suspended_.load(std::memory_order_acquire); }

  bool running() const noexcept { return running_; }
  std::uint16_t udp_port() const noexcept { return udp_port_; }
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Merged statistics: a render of metrics_snapshot(). Safe to call
  /// while the workers run (live scrape); exact only after stop().
  ServerStats stats() const;

  /// Scrapes every registered instrument (lock-free reads of the
  /// workers' single-writer atomics). Empty before start().
  obs::MetricsSnapshot metrics_snapshot() const { return registry_.snapshot(); }

  /// Readiness for /healthz: workers are up, not draining (or drained),
  /// and the machine has not self-suspended.
  bool ready() const noexcept {
    return running_ && !stopped_ && !draining_.load(std::memory_order_acquire) &&
           !suspended_.load(std::memory_order_acquire);
  }

  /// The propagation pipeline the workers subscribe to. In static mode
  /// this is the internal publisher seeded from the constructor's store.
  propagation::ZonePublisher& publisher() noexcept { return publisher_; }

 private:
  struct Worker;

  ServeConfig config_;
  /// Static-mode plumbing: an owned clock + publisher seeded from the
  /// constructor's store (null in live-reload mode).
  std::unique_ptr<MonotonicClock> owned_clock_;
  std::unique_ptr<propagation::ZonePublisher> owned_publisher_;
  propagation::ZonePublisher& publisher_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Catalog of references into the workers' stats structs; built in
  /// start() once the worker set is final, scraped concurrently after.
  obs::MetricRegistry registry_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> suspended_{false};
  bool stopped_ = false;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;
};

}  // namespace akadns::net
