// akadns-fleet: run a PoP as real processes.
//
//   akadns-fleet --machines 3 --synthetic 100 --seed 9 --port 15500
//
// spawns N akadns-serve machines (child processes, ephemeral machine
// ports), stands an anycast front at --port steering client flows across
// them by flow hash, and runs the DNS probe suite against every machine
// — the only authority that can suspend one, and only within the PoP
// suspension quota. Failover drills kill or fail machines mid-run while
// akadns-loadgen measures the outage from the outside:
//
//   akadns-fleet ... --kill-after-ms 4000 --kill-machine 1 --run-ms 15000
//   akadns-fleet ... --suspend-after-ms 3000 --suspend-machine 2
//                    --restore-after-ms 5000
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error.

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/flags.hpp"
#include "control/fleet_report.hpp"
#include "fleet/anycast_front.hpp"
#include "fleet/probe_suite.hpp"
#include "fleet/supervisor.hpp"
#include "obs/registry.hpp"
#include "obs/stats_http.hpp"
#include "workload/zones.hpp"

namespace {

volatile sig_atomic_t g_stop_requested = 0;

void handle_stop(int) {
  if (g_stop_requested) _exit(3);
  g_stop_requested = 1;
}

constexpr const char* kEpilogue =
    "startup prints one line: {\"akadns_fleet_ready\":{...}} with the front port.\n"
    "exit codes: 0 clean shutdown; 1 runtime failure; 2 usage error;\n"
    "3 forced (second SIGTERM/SIGINT).\n";

/// What the fleet reads beyond the library configs: what every machine
/// serves, the drill schedule, the chaos plan and the report path.
struct FleetOptions {
  std::uint64_t seed = 1;
  std::size_t workers = 2;
  bool defense = false;
  std::uint16_t machine_port_base = 0;  // 0 = ephemeral machine ports
  std::uint16_t stats_port = 0;         // fleet /metrics (0 = ephemeral)
  std::int64_t run_ms = 0;              // 0 = until SIGTERM
  // Drill: kill (SIGKILL) a machine mid-run; the supervisor restarts it.
  std::optional<std::int64_t> kill_after_ms;
  std::size_t kill_machine = 0;
  // Drill: make a machine's probes fail; quota decides the suspension.
  std::optional<std::int64_t> suspend_after_ms;
  std::size_t suspend_machine = 0;
  std::optional<std::int64_t> restore_after_ms;  // relative to the suspend injection
  std::string report_path;
  // Chaos: put an impairment hop between the front and every machine,
  // executing the given FaultPlan on each hop.
  std::string chaos_plan_path;
  std::optional<std::uint64_t> chaos_seed;
};

// Finds akadns-serve near this binary: same directory (installed
// layout) or the sibling src/net/ build directory.
std::string find_serve_binary(const char* argv0) {
  std::string dir = argv0;
  const auto slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  for (const char* rel : {"/akadns-serve", "/../net/akadns-serve"}) {
    const std::string candidate = dir + rel;
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return dir + "/akadns-serve";
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace akadns;

  FleetOptions opts;
  workload::HostedZonesConfig zones_config;
  zones_config.zone_count = 100;
  fleet::SupervisorConfig sup_config;
  sup_config.serve_binary = find_serve_binary(argv[0]);
  fleet::FrontConfig front_config;
  fleet::ProbeConfig probe_config;

  FlagTable flags("akadns-fleet", "[options]", kEpilogue);
  flags
      .number("--machines", "N", sup_config.machines, "akadns-serve processes in the PoP", 1,
              64)
      .number("--synthetic", "N", zones_config.zone_count, "zones per machine")
      .number("--seed", "S", opts.seed, "workload seed")
      .number("--workers", "N", opts.workers, "worker threads per machine", 1, 1024)
      .on_off("--defense", opts.defense, "machine defense pipeline")
      .number("--port", "P", front_config.port,
              "anycast front UDP+TCP port, 0 = ephemeral (printed in the fleet ready line)")
      .number("--machine-port-base", "P", opts.machine_port_base,
              "machine i binds P+i; 0 = ephemeral (the ready-line handshake reports what "
              "was bound)")
      .number("--stats-port", "P", opts.stats_port,
              "fleet /metrics + /healthz endpoint, 0 = ephemeral")
      .value("--serve-bin", "PATH", sup_config.serve_binary, "akadns-serve binary")
      .number("--run-ms", "N", opts.run_ms, "run duration; 0 = until SIGTERM", 0)
      .number("--kill-after-ms", "N", opts.kill_after_ms,
              "drill: SIGKILL --kill-machine at t=N", 0)
      .number("--kill-machine", "I", opts.kill_machine, "machine index to kill")
      .number("--suspend-after-ms", "N", opts.suspend_after_ms,
              "drill: inject probe failures into --suspend-machine at t=N (suspension goes "
              "through the real quota)",
              0)
      .number("--suspend-machine", "I", opts.suspend_machine, "machine index to fail")
      .number("--restore-after-ms", "N", opts.restore_after_ms,
              "drill: clear the injected failure N ms later", 0)
      .number("--probe-interval-ms", "N", probe_config.interval_ms, "probe round cadence", 1)
      .number("--probe-timeout-ms", "N", probe_config.timeout_ms, "per-probe budget", 1)
      .number("--fail-threshold", "N", probe_config.fail_threshold,
              "consecutive failing rounds before suspension", 1)
      .number("--quota-fraction", "F", probe_config.quota.max_suspended_fraction,
              "max suspended fraction of the fleet", 0.0, 1.0)
      .number("--min-serving", "N", probe_config.quota.min_serving,
              "never suspend below this many serving machines (1: the PoP cannot go dark)")
      .value("--report", "PATH", opts.report_path, "write the fleet drill report JSON at exit")
      .value("--chaos-plan", "FILE", opts.chaos_plan_path,
             "put an impairment hop between the front and every machine: one more "
             "one-member front per machine, executing FILE's FaultPlan (machine i uses "
             "seed+i; counters as akadns_chaos_total{machine,event})")
      .number("--chaos-seed", "N", opts.chaos_seed,
              "override the plan file's seed (with --chaos-plan)");
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (::access(sup_config.serve_binary.c_str(), X_OK) != 0) {
    return flags.usage_error("akadns-serve binary not executable: " + sup_config.serve_binary +
                             " (use --serve-bin)");
  }
  // The chaos plan is read before any zone is built: a bad plan is a
  // usage error that costs nothing.
  chaos::FaultPlan chaos_plan;
  const bool chaos_on = !opts.chaos_plan_path.empty();
  if (chaos_on) {
    auto loaded = chaos::FaultPlan::load(opts.chaos_plan_path);
    if (!loaded) return flags.usage_error("chaos plan: " + loaded.error());
    chaos_plan = std::move(loaded).take();
    if (opts.chaos_seed) chaos_plan.seed = *opts.chaos_seed;
  }

  struct sigaction sa {};
  sa.sa_handler = handle_stop;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // The fleet's own copy of the zones: the probe suite's reference
  // answers and the machines' served content derive from the same
  // (count, seed) — self-play, no side channel.
  std::fprintf(stderr, "building %zu synthetic zones (seed %llu)...\n",
               zones_config.zone_count, (unsigned long long)opts.seed);
  workload::HostedZones zones(zones_config, opts.seed);

  // --- Chaos plan (optional) ---
  // One impairment hop per machine sits between the front and that
  // machine's UDP/TCP port: the same relay class as the front, with one
  // member (the machine) and the FaultPlan at seed+i — per-hop schedules
  // are decorrelated yet the whole fleet run replays from (plan,
  // --chaos-seed). Hops start before the supervisor (their ports must
  // exist when machines come up); each Up event re-points its hop at the
  // machine's fresh port, live flows included.
  std::vector<std::unique_ptr<fleet::AnycastFront>> chaos_hops;
  if (chaos_on) {
    for (std::size_t i = 0; i < sup_config.machines; ++i) {
      fleet::FrontConfig hop_config;
      hop_config.plan = chaos_plan;
      hop_config.plan.seed = chaos_plan.seed + i;
      auto hop = std::make_unique<fleet::AnycastFront>(hop_config);
      if (auto started = hop->start(); !started) {
        std::fprintf(stderr, "chaos hop m%zu failed: %s\n", i, started.error().c_str());
        return 1;
      }
      chaos_hops.push_back(std::move(hop));
    }
  }

  // --- Front ---
  fleet::AnycastFront front(front_config);
  if (auto started = front.start(); !started) {
    std::fprintf(stderr, "anycast front failed: %s\n", started.error().c_str());
    return 1;
  }

  // --- Supervisor ---
  sup_config.common_args = {
      "--synthetic", std::to_string(zones_config.zone_count),
      "--seed",      std::to_string(opts.seed),
      "--workers",   std::to_string(opts.workers),
      "--defense",   opts.defense ? "on" : "off",
      "--stats-port", "0",
  };
  for (std::size_t i = 0; i < sup_config.machines; ++i) {
    sup_config.ports.push_back(
        opts.machine_port_base == 0
            ? std::uint16_t{0}
            : static_cast<std::uint16_t>(opts.machine_port_base + i));
  }

  std::vector<std::string> events;
  std::mutex events_mu;
  const std::int64_t t0 = now_ms();
  const auto log_event = [&](const std::string& text) {
    char stamp[64];
    std::snprintf(stamp, sizeof(stamp), "t=%.1fs ", (now_ms() - t0) / 1000.0);
    std::lock_guard<std::mutex> lock(events_mu);
    events.push_back(stamp + text);
    std::fprintf(stderr, "[fleet] %s%s\n", stamp, text.c_str());
  };

  fleet::Supervisor supervisor(
      sup_config, [&](const fleet::Supervisor::Event& event) {
        if (event.kind == fleet::Supervisor::EventKind::Up) {
          // Machines join (or rejoin, on fresh ports) the catchment the
          // moment their handshake lands. Under chaos the member the
          // front steers to is the machine's hop, re-pointed here at
          // the (possibly fresh) machine port.
          Endpoint member{IpAddr(Ipv4Addr(127, 0, 0, 1)), event.ready.udp_port};
          if (event.index < chaos_hops.size()) {
            chaos_hops[event.index]->upsert_member(event.id, member);
            member.port = chaos_hops[event.index]->udp_port();
          }
          front.upsert_member(event.id, member);
          log_event("machine " + event.id + " up (udp " +
                    std::to_string(event.ready.udp_port) + ", stats " +
                    std::to_string(event.ready.stats_port) +
                    (event.restarts > 0
                         ? ", restart " + std::to_string(event.restarts) + ")"
                         : ")"));
        } else {
          front.set_member_active(event.id, false);
          log_event("machine " + event.id + " down (code " +
                    std::to_string(event.exit_code) + ", signal " +
                    std::to_string(event.term_signal) + ")");
        }
      });
  if (auto started = supervisor.start(); !started) {
    std::fprintf(stderr, "supervisor failed: %s\n", started.error().c_str());
    return 1;
  }

  // --- Probe suite ---
  fleet::ProbeSuite probes(
      probe_config, zones,
      [&]() {
        // snapshot() copies the fleet state under the supervisor lock:
        // this callback runs on the probe thread while the main loop's
        // poll() may be respawning machines.
        std::vector<fleet::ProbeTarget> targets;
        for (const auto& machine : supervisor.snapshot()) {
          fleet::ProbeTarget target;
          target.id = machine.id;
          target.alive = machine.state == fleet::MachineProcess::State::Ready;
          if (machine.ready) {
            target.dns_port = machine.ready->udp_port;
            target.stats_port = machine.ready->stats_port;
          }
          targets.push_back(std::move(target));
        }
        return targets;
      },
      [&](const std::string& id, bool suspended) {
        // The probe verdict: steer flows away and tell the machine (it
        // keeps serving; /healthz flips). Restore reverses both.
        front.set_member_active(id, !suspended);
        supervisor.signal_machine(id, suspended ? SIGUSR1 : SIGUSR2);
        log_event("machine " + id + (suspended ? " suspended (probe verdict, quota granted)"
                                               : " restored (probes healthy)"));
      });
  probes.start();

  // --- Fleet metrics endpoint ---
  obs::MetricRegistry registry;
  registry.gauge_fn("akadns_fleet_machines_up", {},
                    [&] { return static_cast<double>(supervisor.up_count()); },
                    obs::GaugeAgg::Sum, "machines currently serving");
  registry.gauge_fn("akadns_fleet_suspended", {},
                    [&] { return static_cast<double>(probes.quota_view().suspended); },
                    obs::GaugeAgg::Sum, "machines holding a suspension grant");
  supervisor.register_metrics(registry, {});
  probes.register_metrics(registry, {});
  front.register_metrics(registry, obs::labels({{"subsystem", "front"}}));
  for (std::size_t i = 0; i < chaos_hops.size(); ++i) {
    chaos_hops[i]->register_metrics(registry,
                                    obs::labels({{"machine", "m" + std::to_string(i)}}));
  }
  obs::StatsServer stats([&] { return registry.snapshot(); },
                         [&] { return supervisor.up_count() > 0; });
  std::string stats_error;
  if (!stats.start(opts.stats_port, &stats_error)) {
    std::fprintf(stderr, "fleet stats endpoint failed: %s\n", stats_error.c_str());
    return 1;
  }

  // The fleet handshake: one machine-readable line with the front port.
  std::printf("{\"akadns_fleet_ready\":{\"pid\":%lld,\"front_port\":%u,\"stats_port\":%u,"
              "\"machines\":%zu}}\n",
              static_cast<long long>(::getpid()), front.udp_port(), stats.port(),
              sup_config.machines);
  std::fflush(stdout);
  log_event("fleet up: front 127.0.0.1:" + std::to_string(front.udp_port()) + ", " +
            std::to_string(sup_config.machines) + " machines" +
            (chaos_on ? " (chaos plan " + opts.chaos_plan_path + ", seed " +
                            std::to_string(chaos_plan.seed) + ")"
                      : ""));

  // --- Main loop: supervision + drill schedule ---
  bool kill_done = !opts.kill_after_ms;
  bool suspend_done = !opts.suspend_after_ms;
  bool restore_done = !opts.restore_after_ms;
  while (!g_stop_requested) {
    supervisor.poll();
    const std::int64_t elapsed = now_ms() - t0;
    if (!kill_done && elapsed >= *opts.kill_after_ms) {
      kill_done = true;
      if (opts.kill_machine < supervisor.size()) {
        log_event("drill: SIGKILL m" + std::to_string(opts.kill_machine));
        supervisor.signal_machine(opts.kill_machine, SIGKILL);
      }
    }
    if (!suspend_done && elapsed >= *opts.suspend_after_ms) {
      suspend_done = true;
      if (opts.suspend_machine < supervisor.size()) {
        log_event("drill: injecting probe failures into m" +
                  std::to_string(opts.suspend_machine));
        probes.inject_failure("m" + std::to_string(opts.suspend_machine), true);
      }
    }
    if (suspend_done && !restore_done && opts.suspend_after_ms &&
        elapsed >= *opts.suspend_after_ms + *opts.restore_after_ms) {
      restore_done = true;
      log_event("drill: clearing injected failures on m" +
                std::to_string(opts.suspend_machine));
      probes.inject_failure("m" + std::to_string(opts.suspend_machine), false);
    }
    if (opts.run_ms > 0 && elapsed >= opts.run_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  log_event("shutting down");
  probes.stop();
  stats.stop();

  // --- Report ---
  control::FleetReport report;
  report.uptime_seconds = (now_ms() - t0) / 1000.0;
  for (const auto& machine : supervisor.snapshot()) {
    control::FleetMachineReport m;
    m.id = machine.id;
    m.pid = machine.pid;
    m.up = machine.state == fleet::MachineProcess::State::Ready;
    m.restarts = machine.restarts;
    if (machine.ready) {
      m.udp_port = machine.ready->udp_port;
      m.stats_port = machine.ready->stats_port;
    }
    if (const auto st = probes.state_of(m.id)) {
      m.suspended = st->suspended;
      m.probe_rounds = st->rounds;
      m.probe_failed_rounds = st->failed_rounds;
      m.byte_mismatches = st->byte_mismatches;
      m.suspensions = st->suspensions;
      m.denied_suspensions = st->denied_suspensions;
      m.restores = st->restores;
      m.advisory_scrapes = st->advisory_scrapes;
      m.advisory_anomalies = st->advisory_anomalies;
    }
    report.machines.push_back(std::move(m));
  }
  const auto counters = front.counters();
  report.front.port = front.udp_port();
  report.front.live_flows = static_cast<std::uint64_t>(counters.live_flows.value());
  report.front.flows_created = counters.flows_created;
  report.front.flows_moved = counters.flows_moved;
  report.front.udp_client_datagrams = counters.udp_client_datagrams;
  report.front.udp_upstream_answers = counters.udp_upstream_answers;
  report.front.udp_no_member_drops = counters.udp_no_member_drops;
  report.front.tcp_connections = counters.tcp_connections;
  const auto quota = probes.quota_view();
  report.quota.fleet_size = quota.fleet_size;
  report.quota.suspended = quota.suspended;
  report.quota.quota = quota.quota;
  report.quota.denied = quota.denied;
  for (const auto& sample : front.samples()) {
    report.reconverge.push_back(control::FleetReconvergeReport{
        sample.member, sample.withdrawal, sample.flows_moved, sample.remap_us,
        sample.first_answer_us});
  }
  {
    std::lock_guard<std::mutex> lock(events_mu);
    report.events = events;
  }

  supervisor.stop();
  front.stop();
  for (auto& hop : chaos_hops) hop->stop();

  const std::string rendered = control::render_fleet_report(report);
  if (!opts.report_path.empty()) {
    std::ofstream out(opts.report_path);
    out << rendered;
    std::fprintf(stderr, "wrote %s\n", opts.report_path.c_str());
  }
  std::printf("%s", rendered.c_str());
  return 0;
}
