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
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/flags.hpp"
#include "fleet/anycast_front.hpp"
#include "obs/stats_http.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
void handle_stop(int) { g_stop_requested = 1; }

constexpr const char* kEpilogue =
    "A one-member anycast front executing the plan. Prints\n"
    "{\"akadns_chaos_ready\":{pid, port, stats_port}} once bound and steering,\n"
    "then relays until SIGTERM/SIGINT. Every impairment decision is a pure\n"
    "function of (plan, seed, direction, packet ordinal): rerunning with the\n"
    "same plan and seed reproduces the same fault schedule.\n";

/// What the hop reads beyond FrontConfig: its member, the plan sources
/// and the stats endpoint.
struct ChaosOptions {
  std::optional<akadns::Endpoint> upstream;
  std::string plan_file;
  std::vector<std::string> fault_lines;  // --fault key=value lines
  std::optional<std::uint64_t> seed;
  std::optional<std::uint16_t> stats_port;
};

}  // namespace

int main(int argc, char** argv) {
  ChaosOptions opts;
  akadns::fleet::FrontConfig config;

  akadns::FlagTable flags("akadns-chaos", "--upstream H:P [options]", kEpilogue);
  flags
      .value("--upstream", "H:P", opts.upstream,
             "where relayed traffic goes (required; the front's one member)")
      .number("--listen", "P", config.port, "front port for UDP and TCP, 0 = ephemeral")
      .value("--addr", "A", config.bind_addr, "bind address")
      .value("--plan", "FILE", opts.plan_file,
             "fault plan (key=value lines; see src/chaos/fault_plan.hpp)")
      .list("--fault", "K=V", opts.fault_lines, "one plan line inline, applied after --plan")
      .number("--seed", "S", opts.seed, "override the plan's seed")
      .number("--stats-port", "P", opts.stats_port,
              "serve fault counters over HTTP (/metrics, /healthz; 0 = ephemeral, echoed on "
              "the ready line)");
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (!opts.upstream) return flags.usage_error("--upstream is required");

  if (!opts.plan_file.empty()) {
    auto loaded = akadns::chaos::FaultPlan::load(opts.plan_file);
    if (!loaded) return flags.usage_error("bad --plan: " + loaded.error());
    config.plan = std::move(loaded).take();
  }
  if (!opts.fault_lines.empty()) {
    // --fault lines layer on top of the plan file: a later key=value line
    // overrides an earlier one, so they are parsed after its canonical form.
    auto layered = akadns::chaos::FaultPlan::parse(config.plan.to_string() +
                                                   akadns::join(opts.fault_lines, "\n"));
    if (!layered) return flags.usage_error("bad --fault: " + layered.error());
    config.plan = std::move(layered).take();
  }
  if (opts.seed) config.plan.seed = *opts.seed;

  struct sigaction sa {};
  sa.sa_handler = handle_stop;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

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
               static_cast<unsigned long long>(config.plan.seed),
               config.plan.to_string().c_str());

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
