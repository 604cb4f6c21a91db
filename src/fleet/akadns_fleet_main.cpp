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
#include <type_traits>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/strings.hpp"
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

struct CliOptions {
  std::size_t machines = 3;
  std::size_t synthetic_zones = 100;
  std::uint64_t seed = 1;
  std::size_t workers = 2;
  std::string defense = "off";
  std::uint16_t port = 0;            // anycast front (0 = ephemeral)
  std::uint16_t machine_port_base = 0;  // 0 = ephemeral machine ports
  std::uint16_t stats_port = 0;      // fleet /metrics (0 = ephemeral)
  std::string serve_binary;          // default: alongside argv[0]
  std::int64_t run_ms = 0;           // 0 = until SIGTERM
  // Drill: kill (SIGKILL) a machine mid-run; the supervisor restarts it.
  std::int64_t kill_after_ms = -1;
  std::size_t kill_machine = 0;
  // Drill: make a machine's probes fail; quota decides the suspension.
  std::int64_t suspend_after_ms = -1;
  std::size_t suspend_machine = 0;
  std::int64_t restore_after_ms = -1;  // relative to the suspend injection
  // Probe tuning.
  int probe_interval_ms = 200;
  int probe_timeout_ms = 500;
  std::size_t fail_threshold = 3;
  double quota_fraction = 0.34;
  std::size_t min_serving = 1;
  std::string report_path;
  // Chaos: put an impairment hop between the front and every machine,
  // executing the given FaultPlan on each hop.
  std::string chaos_plan_path;
  std::uint64_t chaos_seed = 0;
  bool chaos_seed_set = false;
  bool help = false;
};

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --machines N          akadns-serve processes in the PoP (default 3)\n"
      "  --synthetic N         zones per machine (default 100)\n"
      "  --seed S              workload seed (default 1)\n"
      "  --workers N           worker threads per machine (default 2)\n"
      "  --defense on|off      machine defense pipeline (default off)\n"
      "  --port P              anycast front UDP+TCP port (default ephemeral;\n"
      "                        printed in the fleet ready line)\n"
      "  --machine-port-base P machine i binds P+i (default: ephemeral — the\n"
      "                        ready-line handshake reports what was bound)\n"
      "  --stats-port P        fleet /metrics + /healthz endpoint (default ephemeral)\n"
      "  --serve-bin PATH      akadns-serve binary (default: next to this binary)\n"
      "  --run-ms N            run duration; 0 = until SIGTERM (default 0)\n"
      "  --kill-after-ms N     drill: SIGKILL --kill-machine at t=N\n"
      "  --kill-machine I      machine index to kill (default 0)\n"
      "  --suspend-after-ms N  drill: inject probe failures into --suspend-machine\n"
      "                        at t=N (suspension goes through the real quota)\n"
      "  --suspend-machine I   machine index to fail (default 0)\n"
      "  --restore-after-ms N  drill: clear the injected failure N ms later\n"
      "  --probe-interval-ms N probe round cadence (default 200)\n"
      "  --probe-timeout-ms N  per-probe budget (default 500)\n"
      "  --fail-threshold N    consecutive failing rounds before suspension (default 3)\n"
      "  --quota-fraction F    max suspended fraction of the fleet (default 0.34)\n"
      "  --min-serving N       never suspend below this many serving machines\n"
      "                        (default 1: the PoP cannot go dark)\n"
      "  --report PATH         write the fleet drill report JSON at exit\n"
      "  --chaos-plan FILE     put an impairment hop between the front and every\n"
      "                        machine: one more one-member front per machine,\n"
      "                        executing FILE's FaultPlan (machine i uses seed+i;\n"
      "                        counters as akadns_chaos_total{machine,event})\n"
      "  --chaos-seed N        override the plan file's seed (with --chaos-plan)\n"
      "startup prints one line: {\"akadns_fleet_ready\":{...}} with the front port.\n"
      "exit codes: 0 clean shutdown; 1 runtime failure; 2 usage error;\n"
      "3 forced (second SIGTERM/SIGINT).\n",
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
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
      return true;
    } else if (arg == "--machines") {
      if (!number(opts.machines, 1, 64)) return false;
    } else if (arg == "--synthetic") {
      if (!number(opts.synthetic_zones)) return false;
    } else if (arg == "--seed") {
      if (!number(opts.seed)) return false;
    } else if (arg == "--workers") {
      if (!number(opts.workers, 1, 1024)) return false;
    } else if (arg == "--defense") {
      if (!(v = need_value())) return false;
      opts.defense = v;
      if (opts.defense != "on" && opts.defense != "off") {
        std::fprintf(stderr, "--defense wants on|off\n");
        return false;
      }
    } else if (arg == "--port") {
      if (!number(opts.port)) return false;
    } else if (arg == "--machine-port-base") {
      if (!number(opts.machine_port_base)) return false;
    } else if (arg == "--stats-port") {
      if (!number(opts.stats_port)) return false;
    } else if (arg == "--serve-bin") {
      if (!(v = need_value())) return false;
      opts.serve_binary = v;
    } else if (arg == "--run-ms") {
      if (!number(opts.run_ms, 0)) return false;
    } else if (arg == "--kill-after-ms") {
      if (!number(opts.kill_after_ms)) return false;
    } else if (arg == "--kill-machine") {
      if (!number(opts.kill_machine)) return false;
    } else if (arg == "--suspend-after-ms") {
      if (!number(opts.suspend_after_ms)) return false;
    } else if (arg == "--suspend-machine") {
      if (!number(opts.suspend_machine)) return false;
    } else if (arg == "--restore-after-ms") {
      if (!number(opts.restore_after_ms)) return false;
    } else if (arg == "--probe-interval-ms") {
      if (!number(opts.probe_interval_ms, 1)) return false;
    } else if (arg == "--probe-timeout-ms") {
      if (!number(opts.probe_timeout_ms, 1)) return false;
    } else if (arg == "--fail-threshold") {
      if (!number(opts.fail_threshold, 1)) return false;
    } else if (arg == "--quota-fraction") {
      if (!number(opts.quota_fraction, 0.0, 1.0)) return false;
    } else if (arg == "--min-serving") {
      if (!number(opts.min_serving)) return false;
    } else if (arg == "--report") {
      if (!(v = need_value())) return false;
      opts.report_path = v;
    } else if (arg == "--chaos-plan") {
      if (!(v = need_value())) return false;
      opts.chaos_plan_path = v;
    } else if (arg == "--chaos-seed") {
      if (!number(opts.chaos_seed)) return false;
      opts.chaos_seed_set = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

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

  CliOptions opts;
  if (!parse_args(argc, argv, opts)) {
    print_usage(argv[0]);
    return 2;
  }
  if (opts.help) {
    print_usage(argv[0]);
    return 0;
  }
  if (opts.serve_binary.empty()) {
    opts.serve_binary = find_serve_binary(argv[0]);
  }
  if (::access(opts.serve_binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "akadns-serve binary not executable: %s (use --serve-bin)\n",
                 opts.serve_binary.c_str());
    return 2;
  }

  struct sigaction sa {};
  sa.sa_handler = handle_stop;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // The fleet's own copy of the zones: the probe suite's reference
  // answers and the machines' served content derive from the same
  // (count, seed) — self-play, no side channel.
  std::fprintf(stderr, "building %zu synthetic zones (seed %llu)...\n",
               opts.synthetic_zones, (unsigned long long)opts.seed);
  workload::HostedZonesConfig zc;
  zc.zone_count = opts.synthetic_zones;
  workload::HostedZones zones(zc, opts.seed);

  // --- Chaos plan (optional) ---
  // One impairment hop per machine sits between the front and that
  // machine's UDP/TCP port: the same relay class as the front, with one
  // member (the machine) and the FaultPlan at seed+i — per-hop schedules
  // are decorrelated yet the whole fleet run replays from (plan,
  // --chaos-seed). Hops start before the supervisor (their ports must
  // exist when machines come up); each Up event re-points its hop at the
  // machine's fresh port, live flows included.
  chaos::FaultPlan chaos_plan;
  const bool chaos_on = !opts.chaos_plan_path.empty();
  if (chaos_on) {
    auto loaded = chaos::FaultPlan::load(opts.chaos_plan_path);
    if (!loaded) {
      std::fprintf(stderr, "chaos plan: %s\n", loaded.error().c_str());
      return 2;
    }
    chaos_plan = loaded.value();
    if (opts.chaos_seed_set) chaos_plan.seed = opts.chaos_seed;
  }
  std::vector<std::unique_ptr<fleet::AnycastFront>> chaos_hops;
  if (chaos_on) {
    for (std::size_t i = 0; i < opts.machines; ++i) {
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
  fleet::FrontConfig front_config;
  front_config.port = opts.port;
  fleet::AnycastFront front(front_config);
  if (auto started = front.start(); !started) {
    std::fprintf(stderr, "anycast front failed: %s\n", started.error().c_str());
    return 1;
  }

  // --- Supervisor ---
  fleet::SupervisorConfig sup_config;
  sup_config.serve_binary = opts.serve_binary;
  sup_config.machines = opts.machines;
  sup_config.common_args = {
      "--synthetic", std::to_string(opts.synthetic_zones),
      "--seed",      std::to_string(opts.seed),
      "--workers",   std::to_string(opts.workers),
      "--defense",   opts.defense,
      "--stats-port", "0",
  };
  for (std::size_t i = 0; i < opts.machines; ++i) {
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
  fleet::ProbeConfig probe_config;
  probe_config.interval_ms = opts.probe_interval_ms;
  probe_config.timeout_ms = opts.probe_timeout_ms;
  probe_config.fail_threshold = opts.fail_threshold;
  probe_config.quota.max_suspended_fraction = opts.quota_fraction;
  probe_config.quota.min_allowed = 1;
  probe_config.quota.min_serving = opts.min_serving;
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
  registry.gauge_fn("akadns_fleet_restarts_total", {},
                    [&] { return static_cast<double>(supervisor.total_restarts()); },
                    obs::GaugeAgg::Sum, "machine restarts");
  registry.gauge_fn("akadns_fleet_suspended", {},
                    [&] { return static_cast<double>(probes.quota_view().suspended); },
                    obs::GaugeAgg::Sum, "machines holding a suspension grant");
  registry.gauge_fn("akadns_fleet_flows", {},
                    [&] { return front.counters().live_flows.value(); },
                    obs::GaugeAgg::Sum, "live steering flows");
  registry.gauge_fn("akadns_fleet_flows_moved_total", {},
                    [&] { return static_cast<double>(front.counters().flows_moved); },
                    obs::GaugeAgg::Sum, "flows re-pinned by catchment changes");
  registry.gauge_fn("akadns_fleet_probe_rounds_total", {},
                    [&] { return static_cast<double>(probes.rounds_completed()); },
                    obs::GaugeAgg::Sum, "probe rounds completed");
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
              opts.machines);
  std::fflush(stdout);
  log_event("fleet up: front 127.0.0.1:" + std::to_string(front.udp_port()) + ", " +
            std::to_string(opts.machines) + " machines" +
            (chaos_on ? " (chaos plan " + opts.chaos_plan_path + ", seed " +
                            std::to_string(chaos_plan.seed) + ")"
                      : ""));

  // --- Main loop: supervision + drill schedule ---
  bool kill_done = opts.kill_after_ms < 0;
  bool suspend_done = opts.suspend_after_ms < 0;
  bool restore_done = opts.restore_after_ms < 0;
  while (!g_stop_requested) {
    supervisor.poll();
    const std::int64_t elapsed = now_ms() - t0;
    if (!kill_done && elapsed >= opts.kill_after_ms) {
      kill_done = true;
      if (opts.kill_machine < supervisor.size()) {
        log_event("drill: SIGKILL m" + std::to_string(opts.kill_machine));
        supervisor.signal_machine(opts.kill_machine, SIGKILL);
      }
    }
    if (!suspend_done && elapsed >= opts.suspend_after_ms) {
      suspend_done = true;
      if (opts.suspend_machine < supervisor.size()) {
        log_event("drill: injecting probe failures into m" +
                  std::to_string(opts.suspend_machine));
        probes.inject_failure("m" + std::to_string(opts.suspend_machine), true);
      }
    }
    if (suspend_done && !restore_done && opts.suspend_after_ms >= 0 &&
        elapsed >= opts.suspend_after_ms + opts.restore_after_ms) {
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
