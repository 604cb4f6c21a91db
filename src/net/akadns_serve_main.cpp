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

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/drop_reason.hpp"
#include "common/strings.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"
#include "net/ready_line.hpp"
#include "net/server.hpp"
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

struct CliOptions {
  std::vector<std::string> zone_files;
  std::size_t synthetic_zones = 0;
  std::uint64_t seed = 1;
  std::string addr = "127.0.0.1";
  std::uint16_t port = 5300;
  std::size_t workers = 4;
  std::size_t batch = 32;
  std::size_t edns_max = 1232;
  bool defense = false;
  double compute_qps = 0.0;
  std::uint64_t nxdomain_threshold = 0;  // 0 = keep the DefenseOptions default
  double nxdomain_penalty = 0.0;         // 0 = keep the DefenseOptions default
  std::vector<std::string> qod_drops;
  // Propagation roles.
  std::vector<std::string> notify_targets;  // host:port strings
  std::string secondary_of;                 // host:port, empty = primary only
  std::vector<std::string> track_apexes;
  std::uint64_t refresh_ms = 5000;
  // Freshness-ladder caps (serve-stale drills): 0 = the zone's SOA
  // refresh/expire verbatim.
  std::uint64_t stale_after_ms = 0;
  std::uint64_t expire_after_ms = 0;
  // Live-reload drill: republish evolved synthetic zones mid-run.
  std::uint64_t flip_after_ms = 0;
  std::size_t flip_count = 1;
  /// -1 = no stats endpoint; 0 = ephemeral (port printed on the ready line).
  int stats_port = -1;
  bool help = false;
};

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --zone FILE        load a master-format zone file (repeatable);\n"
      "                     SIGHUP re-reads and republishes every --zone file\n"
      "  --synthetic N      publish N deterministic synthetic zones\n"
      "  --seed S           seed for --synthetic (default 1)\n"
      "                     --zone and --synthetic compose: files are published\n"
      "                     on top of the corpus through one pipeline (a file\n"
      "                     reusing a synthetic apex must carry a newer serial)\n"
      "  --addr A           bind address (default 127.0.0.1)\n"
      "  --port P           UDP+TCP port, 0 = ephemeral (default 5300)\n"
      "  --workers N        SO_REUSEPORT worker threads (default 4)\n"
      "  --batch N          datagrams per recvmmsg/sendmmsg (default 32)\n"
      "  --edns-max N       EDNS payload-size ceiling (default 1232)\n"
      "  --notify H:P       send NOTIFY to this secondary on every publish\n"
      "                     (repeatable)\n"
      "  --secondary-of H:P pull zones from this primary (SOA refresh + IXFR,\n"
      "                     AXFR fallback); NOTIFYs from it collapse the wait\n"
      "  --track-apex NAME  zone apex the secondary bootstraps/tracks\n"
      "                     (repeatable; default: whatever is already local)\n"
      "  --refresh-ms T     secondary SOA probe cadence (default 5000)\n"
      "  --stale-after-ms T cap on the SOA refresh timer: a tracked zone not\n"
      "                     confirmed for T ms is *stale* (served, counted,\n"
      "                     zone_staleness_seconds > 0); 0 = SOA verbatim\n"
      "  --expire-after-ms T cap on the SOA expire timer: past it the zone is\n"
      "                     withdrawn (queries REFUSED, /healthz 503);\n"
      "                     0 = SOA verbatim\n"
      "  --flip-after-ms T  live-reload drill: after T ms republish the first\n"
      "                     --flip-count synthetic zones, deterministically\n"
      "                     evolved (serial+1, A records' last octet +1)\n"
      "  --flip-count K     zones the drill flips (default 1)\n"
      "  --defense MODE     off|on: route queries through the filter chain +\n"
      "                     penalty queues ahead of the responder (default off)\n"
      "  --compute-qps Q    defense compute metering, answers/sec server-wide\n"
      "                     (0 = unmetered; only meaningful with --defense on)\n"
      "  --qod-drop NAME    install a query-of-death firewall rule dropping NAME\n"
      "                     and everything below it (repeatable)\n"
      "  --nxdomain-threshold N  server-wide NXDOMAINs per zone per window that arm\n"
      "                     the random-subdomain filter (default 200)\n"
      "  --nxdomain-penalty P  score added to random-subdomain probes of an armed\n"
      "                     zone; >= 200 discards them outright (default 150)\n"
      "  --stats-port P     serve live telemetry over HTTP on 127.0.0.1:P\n"
      "                     (/metrics Prometheus text, /metrics.json, /healthz;\n"
      "                     0 = ephemeral, port echoed on the ready line)\n"
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
      "exit by a second stop signal.\n",
      argv0);
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    // The flag's value as a whole, range-checked number.
    const auto number = [&]<typename T>(
        T& out, std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
        std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
      const char* v = need_value();
      const auto parsed = v ? akadns::parse_number<T>(v, lo, hi) : std::nullopt;
      if (v && !parsed) std::fprintf(stderr, "bad %s value: %s\n", arg.c_str(), v);
      if (parsed) out = *parsed;
      return parsed.has_value();
    };
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
      return true;
    } else if (arg == "--zone") {
      const char* v = need_value();
      if (!v) return false;
      opts.zone_files.emplace_back(v);
    } else if (arg == "--synthetic") {
      if (!number(opts.synthetic_zones)) return false;
    } else if (arg == "--seed") {
      if (!number(opts.seed)) return false;
    } else if (arg == "--addr") {
      const char* v = need_value();
      if (!v) return false;
      opts.addr = v;
    } else if (arg == "--port") {
      if (!number(opts.port)) return false;
    } else if (arg == "--workers") {
      if (!number(opts.workers, 1, 1024)) return false;
    } else if (arg == "--batch") {
      if (!number(opts.batch, 1, 1024)) return false;
    } else if (arg == "--edns-max") {
      if (!number(opts.edns_max, 512, 65535)) return false;
    } else if (arg == "--notify") {
      const char* v = need_value();
      if (!v) return false;
      opts.notify_targets.emplace_back(v);
    } else if (arg == "--secondary-of") {
      const char* v = need_value();
      if (!v) return false;
      opts.secondary_of = v;
    } else if (arg == "--track-apex") {
      const char* v = need_value();
      if (!v) return false;
      opts.track_apexes.emplace_back(v);
    } else if (arg == "--refresh-ms") {
      if (!number(opts.refresh_ms)) return false;
    } else if (arg == "--stale-after-ms") {
      if (!number(opts.stale_after_ms)) return false;
    } else if (arg == "--expire-after-ms") {
      if (!number(opts.expire_after_ms)) return false;
    } else if (arg == "--flip-after-ms") {
      if (!number(opts.flip_after_ms)) return false;
    } else if (arg == "--flip-count") {
      if (!number(opts.flip_count)) return false;
    } else if (arg == "--defense") {
      const char* v = need_value();
      if (!v) return false;
      if (std::strcmp(v, "on") == 0) {
        opts.defense = true;
      } else if (std::strcmp(v, "off") == 0) {
        opts.defense = false;
      } else {
        std::fprintf(stderr, "--defense wants on|off\n");
        return false;
      }
    } else if (arg == "--compute-qps") {
      if (!number(opts.compute_qps, 0.0)) return false;
    } else if (arg == "--qod-drop") {
      const char* v = need_value();
      if (!v) return false;
      opts.qod_drops.emplace_back(v);
    } else if (arg == "--stats-port") {
      if (!number(opts.stats_port, 0, 65535)) return false;
    } else if (arg == "--nxdomain-threshold") {
      if (!number(opts.nxdomain_threshold)) return false;
    } else if (arg == "--nxdomain-penalty") {
      if (!number(opts.nxdomain_penalty, 0.0)) return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

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
               path.c_str(), published.value()->incremental ? " (incremental)" : "");
  return apex;
}

/// Fire-and-forget NOTIFY datagram (RFC 1996). The secondary's refresh
/// loop is the reliability mechanism; the NOTIFY only shortens the wait.
void send_notify(const akadns::Endpoint& target, const akadns::dns::DnsName& apex,
                 std::uint32_t serial, std::uint16_t id) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  sockaddr_storage dst{};
  const socklen_t len = akadns::net::sockaddr_from_endpoint(target, dst);
  const auto wire =
      akadns::dns::encode(akadns::propagation::TransferService::make_notify(apex, serial, id));
  (void)::sendto(fd, wire.data(), wire.size(), MSG_NOSIGNAL,
                 reinterpret_cast<const sockaddr*>(&dst), len);
  ::close(fd);
}

void notify_all(const std::vector<akadns::Endpoint>& targets,
                akadns::propagation::ZonePublisher& publisher,
                const akadns::dns::DnsName& apex, std::uint16_t& next_id) {
  if (targets.empty()) return;
  const auto compiled = publisher.snapshot(apex);
  if (!compiled) return;
  for (const auto& target : targets) {
    send_notify(target, apex, compiled->source()->serial(), next_id++);
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
  CliOptions opts;
  if (!parse_args(argc, argv, opts)) {
    print_usage(argv[0]);
    return 2;
  }
  if (opts.help) {
    print_usage(argv[0]);
    return 0;
  }
  if (opts.zone_files.empty() && opts.synthetic_zones == 0 && opts.secondary_of.empty()) {
    std::fprintf(stderr, "no zones: pass --zone FILE, --synthetic N, or --secondary-of H:P\n");
    print_usage(argv[0]);
    return 2;
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

  const auto addr = akadns::Ipv4Addr::parse(opts.addr);
  if (!addr) {
    std::fprintf(stderr, "bad --addr: %s\n", opts.addr.c_str());
    return 2;
  }
  std::vector<akadns::Endpoint> notify_targets;
  for (const auto& text : opts.notify_targets) {
    const auto target = akadns::Endpoint::parse(text);
    if (!target) {
      std::fprintf(stderr, "bad --notify target: %s\n", text.c_str());
      return 2;
    }
    notify_targets.push_back(*target);
  }

  // One pipeline for all zone content. The synthetic corpus is adopted
  // (compiled snapshots shared, no recompile); --zone files and every
  // later change (SIGHUP, secondary transfers, flip drill) publish
  // through it, and the serve workers' replicas subscribe to it.
  akadns::MonotonicClock clock;
  akadns::propagation::ZonePublisher publisher(clock);
  std::unique_ptr<akadns::workload::HostedZones> synthetic;
  if (opts.synthetic_zones > 0) {
    akadns::workload::HostedZonesConfig zc;
    zc.zone_count = opts.synthetic_zones;
    synthetic = std::make_unique<akadns::workload::HostedZones>(zc, opts.seed);
    publisher.adopt(synthetic->store());
    std::fprintf(stderr, "published %zu synthetic zones (seed %llu)\n",
                 opts.synthetic_zones, (unsigned long long)opts.seed);
  }
  for (const auto& path : opts.zone_files) {
    if (!publish_zone_file(path, publisher, /*reload=*/false)) return 1;
  }

  // Secondary role: pull zones from a primary into the same publisher.
  std::unique_ptr<akadns::net::SecondarySync> secondary;
  if (!opts.secondary_of.empty()) {
    const auto primary = akadns::Endpoint::parse(opts.secondary_of);
    if (!primary) {
      std::fprintf(stderr, "bad --secondary-of target: %s\n", opts.secondary_of.c_str());
      return 2;
    }
    akadns::net::SecondaryConfig sc;
    sc.primary_addr = primary->addr.v4();
    sc.primary_port = primary->port;
    sc.refresh_interval = akadns::Duration::millis(
        static_cast<std::int64_t>(std::max<std::uint64_t>(1, opts.refresh_ms)));
    // Freshness ladder, shared with the serve workers: the sync confirms
    // refreshes into the tracker, the query path gates on it.
    sc.freshness_caps.refresh_cap =
        akadns::Duration::millis(static_cast<std::int64_t>(opts.stale_after_ms));
    sc.freshness_caps.expire_cap =
        akadns::Duration::millis(static_cast<std::int64_t>(opts.expire_after_ms));
    for (const auto& text : opts.track_apexes) {
      auto apex = akadns::dns::DnsName::parse(text);
      if (!apex) {
        std::fprintf(stderr, "bad --track-apex name: %s\n", text.c_str());
        return 2;
      }
      sc.apexes.push_back(std::move(*apex));
    }
    secondary = std::make_unique<akadns::net::SecondarySync>(std::move(sc), publisher);
  }

  akadns::net::ServeConfig config;
  config.bind_addr = *addr;
  config.port = opts.port;
  config.workers = opts.workers;
  config.udp_batch = opts.batch;
  config.responder.edns_udp_payload_max = opts.edns_max;
  config.defense.enabled = opts.defense;
  config.defense.compute_qps = opts.compute_qps;
  if (opts.nxdomain_threshold > 0) config.defense.nxdomain_threshold = opts.nxdomain_threshold;
  if (opts.nxdomain_penalty > 0.0) config.defense.nxdomain_penalty = opts.nxdomain_penalty;
  for (const auto& name_text : opts.qod_drops) {
    auto name = akadns::dns::DnsName::parse(name_text);
    if (!name) {
      std::fprintf(stderr, "bad --qod-drop name: %s\n", name_text.c_str());
      return 2;
    }
    config.defense.qod_rules.push_back(std::move(*name));
  }
  if (secondary) {
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
  if (opts.stats_port >= 0) {
    std::string err;
    if (!stats_server.start(static_cast<std::uint16_t>(opts.stats_port), &err)) {
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
  ready.addr = opts.addr;
  ready.udp_port = server.udp_port();
  ready.tcp_port = server.tcp_port();
  ready.stats_port = stats_port;
  ready.workers = opts.workers;
  ready.zones = publisher.zone_count();
  ready.generation = publisher.stats().published.value();
  ready.defense = opts.defense;
  std::fputs(akadns::net::render_ready_line(ready).c_str(), stdout);
  std::fflush(stdout);

  std::uint16_t notify_id = 1;
  for (const auto& apex : publisher.apexes()) {
    notify_all(notify_targets, publisher, apex, notify_id);
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
          notify_all(notify_targets, publisher, *apex, notify_id);
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
        notify_all(notify_targets, publisher, apex, notify_id);
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
