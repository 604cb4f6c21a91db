// akadns-chaos: a deterministic impairment hop on a real UDP/TCP path.
//
//   akadns-chaos --upstream 127.0.0.1:5300 --plan drill.plan --listen 5299
//   akadns-chaos --upstream 127.0.0.1:5300 --fault both.loss=0.05
//       --fault both.delay_ms=20 --fault both.jitter_ms=20 --seed 7
//
// A one-member fleet::AnycastFront with a FaultPlan: it relays
// everything that arrives on the front port to the upstream, executing
// the plan per direction. All fault decisions derive from (plan, seed,
// direction, packet ordinal), so a failing chaos run is replayed exactly
// by rerunning with the same plan file and seed.
//
// Prints one JSON ready line ({"akadns_chaos_ready":{pid, port,
// stats_port}}) once the front port is bound, then runs until
// SIGTERM/SIGINT. --stats-port serves the fault counters as
// akadns_chaos_total{event=...} over /metrics.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "chaos/fault_plan.hpp"
#include "common/strings.hpp"
#include "fleet/anycast_front.hpp"
#include "obs/stats_http.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
void handle_stop(int) { g_stop_requested = 1; }

struct CliOptions {
  std::string addr = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::optional<akadns::Endpoint> upstream;
  std::string plan_file;
  std::string fault_lines;      // accumulated --fault key=value lines
  bool seed_override = false;
  std::uint64_t seed = 0;
  std::optional<std::uint16_t> stats_port;
  bool help = false;
};

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s --upstream H:P [options]\n"
      "  --upstream H:P    where relayed traffic goes (required; the front's\n"
      "                    one member)\n"
      "  --listen P        front port for UDP and TCP, 0 = ephemeral (default 0)\n"
      "  --addr A          bind address (default 127.0.0.1)\n"
      "  --plan FILE       fault plan (key=value lines; see src/chaos/fault_plan.hpp)\n"
      "  --fault K=V       one plan line inline (repeatable, applied after --plan)\n"
      "  --seed S          override the plan's seed\n"
      "  --stats-port P    serve fault counters over HTTP (/metrics, /healthz;\n"
      "                    0 = ephemeral, echoed on the ready line)\n"
      "A one-member anycast front executing the plan. Prints\n"
      "{\"akadns_chaos_ready\":{pid, port, stats_port}} once bound and steering,\n"
      "then relays until SIGTERM/SIGINT. Every impairment decision is a pure\n"
      "function of (plan, seed, direction, packet ordinal): rerunning with the\n"
      "same plan and seed reproduces the same fault schedule.\n",
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
    } else if (arg == "--addr") {
      const char* v = need_value();
      if (!v) return false;
      opts.addr = v;
    } else if (arg == "--listen") {
      if (!number(opts.listen_port)) return false;
    } else if (arg == "--upstream") {
      const char* v = need_value();
      if (!v) return false;
      opts.upstream = akadns::Endpoint::parse(v);
      if (!opts.upstream) {
        std::fprintf(stderr, "bad --upstream (want H:P): %s\n", v);
        return false;
      }
    } else if (arg == "--plan") {
      const char* v = need_value();
      if (!v) return false;
      opts.plan_file = v;
    } else if (arg == "--fault") {
      const char* v = need_value();
      if (!v) return false;
      opts.fault_lines += v;
      opts.fault_lines += '\n';
    } else if (arg == "--seed") {
      if (!number(opts.seed)) return false;
      opts.seed_override = true;
    } else if (arg == "--stats-port") {
      if (!number(opts.stats_port.emplace())) return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
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
  if (!opts.upstream) {
    std::fprintf(stderr, "--upstream is required\n");
    print_usage(argv[0]);
    return 2;
  }

  struct sigaction sa {};
  sa.sa_handler = handle_stop;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const auto addr = akadns::Ipv4Addr::parse(opts.addr);
  if (!addr) {
    std::fprintf(stderr, "bad --addr: %s\n", opts.addr.c_str());
    return 2;
  }

  akadns::chaos::FaultPlan plan;
  if (!opts.plan_file.empty()) {
    auto loaded = akadns::chaos::FaultPlan::load(opts.plan_file);
    if (!loaded) {
      std::fprintf(stderr, "bad --plan: %s\n", loaded.error().c_str());
      return 2;
    }
    plan = std::move(loaded).take();
  }
  if (!opts.fault_lines.empty()) {
    // --fault lines layer on top of the plan file: parse them against a
    // scratch plan, then merge field-by-field via re-parse of both.
    auto layered =
        akadns::chaos::FaultPlan::parse(plan.to_string() + opts.fault_lines);
    if (!layered) {
      std::fprintf(stderr, "bad --fault: %s\n", layered.error().c_str());
      return 2;
    }
    plan = std::move(layered).take();
  }
  if (opts.seed_override) plan.seed = opts.seed;

  akadns::fleet::FrontConfig config;
  config.bind_addr = *addr;
  config.port = opts.listen_port;
  config.plan = plan;

  akadns::fleet::AnycastFront front(config);
  // Queued before start(): the relay thread applies it before it relays
  // anything, so a datagram sent right after the ready line is served.
  front.upsert_member("upstream", *opts.upstream);
  auto started = front.start();
  if (!started) {
    std::fprintf(stderr, "start failed: %s\n", started.error().c_str());
    return 1;
  }

  akadns::obs::MetricRegistry registry;
  front.register_metrics(registry, akadns::obs::labels({{"subsystem", "chaos"}}));
  akadns::obs::StatsServer stats_server([&registry] { return registry.snapshot(); },
                                        [] { return true; });
  std::uint16_t stats_port = 0;
  if (opts.stats_port) {
    std::string err;
    if (!stats_server.start(*opts.stats_port, &err)) {
      std::fprintf(stderr, "stats endpoint failed: %s\n", err.c_str());
      return 1;
    }
    stats_port = stats_server.port();
  }

  std::printf("{\"akadns_chaos_ready\":{\"pid\":%ld,\"port\":%u,\"stats_port\":%u}}\n",
              static_cast<long>(::getpid()), front.udp_port(), stats_port);
  std::fflush(stdout);
  std::fprintf(stderr, "chaos plan (seed %llu):\n%s",
               static_cast<unsigned long long>(plan.seed), plan.to_string().c_str());

  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stats_server.stop();
  front.stop();

  const auto s = front.counters();
  std::fprintf(stderr,
               "chaos totals: up=%llu down=%llu dropped=%llu dup=%llu corrupt=%llu "
               "delayed=%llu blackholed=%llu tcp_accepted=%llu resets=%llu stalls=%llu\n",
               (unsigned long long)s.forwarded_up.value(),
               (unsigned long long)s.forwarded_down.value(),
               (unsigned long long)s.dropped.value(),
               (unsigned long long)s.duplicated.value(),
               (unsigned long long)s.corrupted.value(),
               (unsigned long long)s.delayed.value(),
               (unsigned long long)s.blackholed.value(),
               (unsigned long long)s.tcp_connections.value(),
               (unsigned long long)s.tcp_resets.value(),
               (unsigned long long)s.tcp_stalls.value());
  return 0;
}
