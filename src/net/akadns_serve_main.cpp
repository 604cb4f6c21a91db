// akadns-serve: authoritative DNS daemon on the akadns datapath.
//
//   akadns-serve --synthetic 1000 --seed 42 --port 5300 --workers 4
//   akadns-serve --zone example.zone --port 5300
//   akadns-serve --secondary-of 127.0.0.1:5300 --track-apex ent0.example --port 5301
//
// All zone content flows through one propagation::ZonePublisher: the
// synthetic corpus is adopted into it, --zone files are published
// through it, SIGHUP re-reads and republishes them, and a secondary
// pulls versions into it over AXFR/IXFR — the serve workers' replicas
// subscribe once and absorb every path identically, without dropping
// queries across a mid-run zone change.
//
// Serves until SIGTERM/SIGINT, then drains gracefully (stops accepting,
// flushes in-flight work) and dumps final telemetry as JSON on stdout.
// The --synthetic corpus is deterministic in (count, seed), which is what
// lets akadns-loadgen rebuild the identical zones and verify responses
// byte-for-byte without any side channel — including the deterministic
// --flip-after-ms evolution (workload::evolved_zone).

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/drop_reason.hpp"
#include "common/flags.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"
#include "net/ready_line.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
#include "net/zone_sync.hpp"
#include "obs/exposition.hpp"
#include "obs/registry.hpp"
#include "obs/stats_http.hpp"
#include "propagation/transfer_service.hpp"
#include "propagation/zone_publisher.hpp"
#include "workload/zones.hpp"
#include "zone/zone_parser.hpp"

namespace {

/// Exit codes (documented in --help): 0 clean drain, 1 runtime failure,
/// 2 usage error, 3 forced exit (second stop signal).
constexpr int kExitForced = 3;

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;
/// Self-suspension requests (SIGUSR1 suspend / SIGUSR2 resume): the
/// latest signal wins; the main loop applies the state to the server.
volatile std::sig_atomic_t g_suspend_requested = -1;

void handle_stop(int) {
  // Idempotent stop with an escape hatch: the first signal starts the
  // graceful drain; a second one means the drain is stuck (or the
  // operator is impatient) and forces an immediate exit with a distinct
  // code. _exit is async-signal-safe; skipping atexit/telemetry is the
  // point.
  if (g_stop_requested) _exit(kExitForced);
  g_stop_requested = 1;
}
void handle_reload(int) { g_reload_requested = 1; }
void handle_suspend(int) { g_suspend_requested = 1; }
void handle_resume(int) { g_suspend_requested = 0; }

constexpr const char* kEpilogue =
    "Once every socket is bound the daemon prints one machine-readable JSON\n"
    "ready line on stdout ({\"akadns_serve_ready\":{pid, addr, udp_port,\n"
    "tcp_port, stats_port, workers, zones, generation, defense}}) reporting\n"
    "the *bound* ports, so --port 0 / --stats-port 0 compose with a\n"
    "supervisor handshake without polling.\n"
    "Signals: SIGHUP republishes --zone files; SIGTERM/SIGINT drains\n"
    "gracefully and dumps telemetry JSON; a second SIGTERM/SIGINT forces an\n"
    "immediate exit (code 3); SIGUSR1 self-suspends (/healthz flips to 503,\n"
    "queries still answered); SIGUSR2 resumes.\n"
    "Exit codes: 0 clean drain; 1 runtime failure; 2 usage error; 3 forced\n"
    "exit by a second stop signal.\n";

/// What the daemon reads beyond the library configs: zone sources, the
/// propagation roles' peers, the flip drill and the stats endpoint.
struct ServeOptions {
  std::vector<std::string> zone_files;
  std::uint64_t seed = 1;
  std::vector<akadns::Endpoint> notify_targets;
  std::optional<akadns::Endpoint> secondary_of;
  std::uint64_t flip_after_ms = 0;
  std::size_t flip_count = 1;
  std::optional<std::uint16_t> stats_port;
};

/// Parses and publishes one master file through the pipeline. Returns
/// the published apex (for NOTIFY fanout), or nullopt on failure. An
/// unchanged serial is reported but not fatal on the `reload` path —
/// SIGHUP with an untouched file is a no-op, not a crash.
std::optional<akadns::dns::DnsName> publish_zone_file(
    const std::string& path, akadns::propagation::ZonePublisher& publisher, bool reload) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open zone file: %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = akadns::zone::parse_master_file(text.str(), {});
  if (!parsed) {
    std::fprintf(stderr, "parse error in %s: %s\n", path.c_str(), parsed.error().c_str());
    return std::nullopt;
  }
  auto zone = std::move(parsed).take();
  const std::string apex_text = zone.apex().to_string();
  const akadns::dns::DnsName apex = zone.apex();
  const std::uint32_t serial = zone.serial();
  auto published = publisher.publish(std::move(zone));
  if (!published) {
    std::fprintf(stderr, "%s %s: %s\n", reload ? "reload skipped" : "publish rejected",
                 path.c_str(), published.error().c_str());
    return std::nullopt;
  }
  std::fprintf(stderr, "published %s serial=%u from %s%s\n", apex_text.c_str(), serial,
               path.c_str(), published.value()->compiled->incremental() ? " (incremental)" : "");
  return apex;
}

/// Fire-and-forget NOTIFY datagrams (RFC 1996). The secondary's refresh
/// loop is the reliability mechanism; the NOTIFY only shortens the wait.
void notify_all(const std::vector<akadns::Endpoint>& targets,
                akadns::propagation::ZonePublisher& publisher,
                const akadns::dns::DnsName& apex, std::uint16_t& next_id) {
  using akadns::net::StubClient;
  if (targets.empty()) return;
  const auto compiled = publisher.snapshot(apex);
  if (!compiled) return;
  // A deadline of now: a datagram goes if the socket takes it at once.
  const auto now = StubClient::Deadline::clock::now();
  for (const auto& target : targets) {
    const auto wire = akadns::dns::encode(akadns::propagation::TransferService::make_notify(
        apex, compiled->source()->serial(), next_id++));
    auto client = StubClient::open(target, akadns::net::Transport::Udp, now);
    if (client) (void)client.value().send(wire, now);
  }
}

/// Final telemetry dump: one machine-readable JSON document rendered
/// from the same merged metrics snapshot /metrics serves, replacing the
/// seed's hand-rolled per-struct printf rendering.
void dump_telemetry(const akadns::obs::MetricsSnapshot& snap) {
  std::fputs(akadns::obs::render_json(snap).c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opts;
  akadns::workload::HostedZonesConfig zones_config;
  zones_config.zone_count = 0;
  akadns::net::ServeConfig config;
  config.port = 5300;
  akadns::net::SecondaryConfig secondary_config;

  akadns::FlagTable flags("akadns-serve", "[options]", kEpilogue);
  flags
      .list("--zone", "FILE", opts.zone_files,
            "load a master-format zone file, published on top of any --synthetic "
            "corpus through one pipeline (a file reusing a synthetic apex must carry a "
            "newer serial); SIGHUP re-reads and republishes every --zone file")
      .number("--synthetic", "N", zones_config.zone_count,
              "publish N deterministic synthetic zones")
      .number("--seed", "S", opts.seed, "seed for --synthetic")
      .value("--addr", "A", config.bind_addr, "bind address")
      .number("--port", "P", config.port, "UDP+TCP port, 0 = ephemeral")
      .number("--workers", "N", config.workers, "SO_REUSEPORT worker threads", 1, 1024)
      .number("--batch", "N", config.udp_batch, "datagrams per recvmmsg/sendmmsg", 1, 1024)
      .number("--edns-max", "N", config.responder.edns_udp_payload_max,
              "EDNS payload-size ceiling", 512, 65535)
      .list("--notify", "H:P", opts.notify_targets,
            "send NOTIFY to this secondary on every publish")
      .value("--secondary-of", "H:P", opts.secondary_of,
             "pull zones from this primary (SOA refresh + IXFR, AXFR fallback); "
             "NOTIFYs from it collapse the wait")
      .list("--track-apex", "NAME", secondary_config.apexes,
            "zone apex the secondary bootstraps and tracks; none given = whatever is "
            "already local")
      .millis("--refresh-ms", "T", secondary_config.refresh_interval,
              "secondary SOA probe cadence", 1)
      .millis("--stale-after-ms", "T", secondary_config.freshness_caps.refresh_cap,
              "cap on the SOA refresh timer: a tracked zone not confirmed for T ms is "
              "*stale* (served, counted, zone_staleness_seconds > 0); 0 = SOA verbatim")
      .millis("--expire-after-ms", "T", secondary_config.freshness_caps.expire_cap,
              "cap on the SOA expire timer: past it the zone is withdrawn (queries "
              "REFUSED, /healthz 503); 0 = SOA verbatim")
      .number("--flip-after-ms", "T", opts.flip_after_ms,
              "live-reload drill: after T ms republish the first --flip-count synthetic "
              "zones, deterministically evolved (serial+1, A records' last octet +1); "
              "0 = no drill")
      .number("--flip-count", "K", opts.flip_count, "zones the drill flips")
      .on_off("--defense", config.defense.enabled,
              "route queries through the filter chain + penalty queues ahead of the "
              "responder")
      .number("--compute-qps", "Q", config.defense.compute_qps,
              "defense compute metering, answers/sec server-wide (0 = unmetered; "
              "needs --defense on)",
              0.0)
      .list("--qod-drop", "NAME", config.defense.qod_rules,
            "install a query-of-death firewall rule dropping NAME and everything below it")
      .number("--nxdomain-threshold", "N", config.defense.nxdomain_threshold,
              "server-wide NXDOMAINs per zone per window that arm the random-subdomain "
              "filter",
              1)
      .number("--nxdomain-penalty", "P", config.defense.nxdomain_penalty,
              "score (> 0) added to random-subdomain probes of an armed zone; >= 200 "
              "discards them outright",
              std::numeric_limits<double>::min())
      .number("--stats-port", "P", opts.stats_port,
              "serve live telemetry over HTTP on 127.0.0.1:P (/metrics Prometheus text, "
              "/metrics.json, /healthz; 0 = ephemeral, port echoed on the ready line)");
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (opts.zone_files.empty() && zones_config.zone_count == 0 && !opts.secondary_of) {
    return flags.usage_error("no zones: pass --zone FILE, --synthetic N, or --secondary-of H:P");
  }
  if (config.defense.compute_qps > 0.0 && !config.defense.enabled) {
    return flags.usage_error("--compute-qps meters the defense queues: it needs --defense on");
  }

  // Handlers go in before any slow work (zone compiles, binds): a stop
  // signal received mid-startup completes startup and immediately
  // drains, instead of killing the process with state half-built.
  struct sigaction sa {};
  sa.sa_handler = handle_stop;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction hup {};
  hup.sa_handler = handle_reload;
  ::sigaction(SIGHUP, &hup, nullptr);
  struct sigaction usr {};
  usr.sa_handler = handle_suspend;
  ::sigaction(SIGUSR1, &usr, nullptr);
  usr.sa_handler = handle_resume;
  ::sigaction(SIGUSR2, &usr, nullptr);

  // One pipeline for all zone content. The synthetic corpus is adopted
  // (compiled snapshots shared, no recompile); --zone files and every
  // later change (SIGHUP, secondary transfers, flip drill) publish
  // through it, and the serve workers' replicas subscribe to it.
  akadns::MonotonicClock clock;
  akadns::propagation::ZonePublisher publisher(clock);
  std::unique_ptr<akadns::workload::HostedZones> synthetic;
  if (zones_config.zone_count > 0) {
    synthetic = std::make_unique<akadns::workload::HostedZones>(zones_config, opts.seed);
    publisher.adopt(synthetic->store());
    std::fprintf(stderr, "published %zu synthetic zones (seed %llu)\n",
                 zones_config.zone_count, (unsigned long long)opts.seed);
  }
  for (const auto& path : opts.zone_files) {
    if (!publish_zone_file(path, publisher, /*reload=*/false)) return 1;
  }

  // Secondary role: pull zones from a primary into the same publisher.
  std::unique_ptr<akadns::net::SecondarySync> secondary;
  if (opts.secondary_of) {
    secondary_config.primary_addr = opts.secondary_of->addr.v4();
    secondary_config.primary_port = opts.secondary_of->port;
    secondary =
        std::make_unique<akadns::net::SecondarySync>(std::move(secondary_config), publisher);
    config.on_notify = [sync = secondary.get()](const akadns::dns::DnsName&) {
      sync->notify_kick();
    };
    // The workers consult the same tracker the sync feeds: stale zones
    // keep answering (counted), expired zones are withdrawn per query.
    config.freshness = secondary->freshness();
  }

  akadns::net::Server server(config, publisher);
  auto started = server.start();
  if (!started) {
    std::fprintf(stderr, "start failed: %s\n", started.error().c_str());
    return 1;
  }
  if (secondary) secondary->start();

  // Control-plane metrics (publisher, journal, master compile stats,
  // secondary refresh loop) live outside the worker registry; a scrape
  // merges both snapshots into one fleet view of this process.
  akadns::obs::MetricRegistry control_registry;
  publisher.register_metrics(control_registry,
                             akadns::obs::labels({{"subsystem", "publisher"}}));
  if (secondary) {
    secondary->register_metrics(control_registry,
                                akadns::obs::labels({{"subsystem", "secondary"}}));
  }
  const auto scrape = [&server, &control_registry] {
    auto snap = server.metrics_snapshot();
    snap.merge(control_registry.snapshot());
    return snap;
  };

  // Live telemetry endpoint: scrapes read the workers' single-writer
  // atomics, so a 10 Hz poller never perturbs the datapath. /healthz
  // reports unready while draining, while a secondary has not yet
  // completed a clean refresh pass, or once a tracked zone ages past its
  // SOA expire — stale-but-not-expired zones do NOT degrade it
  // (serve-stale is the intended mode under primary loss).
  akadns::obs::StatsServer stats_server(
      scrape, [&server, sec = secondary.get()] {
        return server.ready() && (!sec || !sec->degraded());
      });
  std::uint16_t stats_port = 0;
  if (opts.stats_port) {
    std::string err;
    if (!stats_server.start(*opts.stats_port, &err)) {
      std::fprintf(stderr, "stats endpoint failed: %s\n", err.c_str());
      return 1;
    }
    stats_port = stats_server.port();
  }

  // The machine-readable handshake: one JSON line reporting the bound
  // ports (supervisors, tests, and the CI smoke parse it with
  // net::parse_ready_line — never by polling a port).
  akadns::net::ReadyLine ready;
  ready.pid = static_cast<std::int64_t>(::getpid());
  ready.addr = config.bind_addr.to_string();
  ready.udp_port = server.udp_port();
  ready.tcp_port = server.tcp_port();
  ready.stats_port = stats_port;
  ready.workers = config.workers;
  ready.zones = publisher.zone_count();
  ready.generation = publisher.stats().published.value();
  ready.defense = config.defense.enabled;
  std::fputs(akadns::net::render_ready_line(ready).c_str(), stdout);
  std::fflush(stdout);

  std::uint16_t notify_id = 1;
  for (const auto& apex : publisher.apexes()) {
    notify_all(opts.notify_targets, publisher, apex, notify_id);
  }

  const auto start_time = std::chrono::steady_clock::now();
  bool flipped = false;
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_suspend_requested >= 0) {
      const bool suspend = g_suspend_requested == 1;
      g_suspend_requested = -1;
      if (suspend != server.suspended()) {
        server.set_suspended(suspend);
        std::fprintf(stderr, suspend ? "self-suspended (healthz 503, still serving)\n"
                                     : "resumed (healthz 200)\n");
      }
    }
    if (g_reload_requested) {
      g_reload_requested = 0;
      for (const auto& path : opts.zone_files) {
        if (const auto apex = publish_zone_file(path, publisher, /*reload=*/true)) {
          notify_all(opts.notify_targets, publisher, *apex, notify_id);
        }
      }
    }
    if (!flipped && opts.flip_after_ms > 0 && synthetic &&
        std::chrono::steady_clock::now() - start_time >=
            std::chrono::milliseconds(opts.flip_after_ms)) {
      flipped = true;
      const std::size_t count = std::min(opts.flip_count, synthetic->zone_count());
      for (std::size_t rank = 0; rank < count; ++rank) {
        auto evolved = synthetic->evolved(rank, 1);
        const auto apex = evolved.apex();
        auto published = publisher.publish(std::move(evolved));
        if (!published) {
          std::fprintf(stderr, "flip rejected for %s: %s\n", apex.to_string().c_str(),
                       published.error().c_str());
          continue;
        }
        notify_all(opts.notify_targets, publisher, apex, notify_id);
      }
      std::fprintf(stderr, "flipped %zu zones\n", count);
    }
  }

  std::fprintf(stderr, "draining...\n");
  stats_server.stop();
  if (secondary) secondary->stop();
  server.stop();
  dump_telemetry(scrape());
  return 0;
}
