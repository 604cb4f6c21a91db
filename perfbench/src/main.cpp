// akadns_perfbench: one open-loop, byte-verified benchmark of the
// authoritative datapath (net → dns → defense → server → zone, plus
// propagation and obs), with three workloads:
//
//   resolver_steady  legit Zipf traffic, defense off, read-only
//   flood_defense    50% attack mix, defense on with a compute meter
//   zone_churn       5k apexes in live-reload mode, zones republished
//
// Usage:
//   akadns_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--digest]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (the same run plus an in-process traced replay). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Details (every phase, every check, the cost ledger) go to
// .bench_out/<workload>-<seed>-trace<T>.json under the working directory;
// spans of publishes and scrapes to .bench_out/<workload>-<seed>-trace1-spans.tsv
// and of the replay to .bench_out/<workload>-replay-spans.tsv.
// --digest prints only the corpus and expected-answer digests.
// Exits 1 when answer verification, packet conservation, the worker
// balance gate, a generator gate (schedule kept, lateness), the capacity
// bursts' busy gate or publish visibility fails.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/clock.hpp"
#include "dns/wire.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "replay.hpp"
#include "sender.hpp"
#include "server/responder.hpp"
#include "workload/population.hpp"
#include "workload/replay.hpp"
#include "workload/zones.hpp"

using namespace akadns;

namespace perfbench {
namespace {

// ---- fixed limits and gates -------------------------------------------------

constexpr std::size_t kFlowsPerWorker = 2;   // 4 client sockets in all
// setup_s is the median of the setups after the first: the first of a
// process, on a cold heap, is the slowest and is not counted. The host
// runs setup at speeds that differ by up to a half for seconds at a time,
// so the counted setups are spread over the run: one just before the
// measurement (its rig is measured) and kLateSetups after it.
constexpr std::size_t kLateSetups = 3;
constexpr std::size_t kChurnSlots = 8;       // hottest zones republished
constexpr double kBalanceGate = 1.2;         // per-worker packets, max/mean
// Generator gates. Queries due but not sent by a phase's end are still
// sent, late, for kGraceS, then dropped and counted; a generator that
// cannot sustain the schedule loses a growing share of it, while a host
// stall of a few milliseconds at a phase's end loses none. Even a host
// that steals a third of the CPU time costs only a percent or two of the
// schedule; a generator short of the rate loses far more.
constexpr double kGraceS = 0.05;
constexpr double kUnsentGate = 0.05;         // of the fixed-rate schedule
// Lateness of the median phase's p99, at most this share of the phase
// (and at most kLateGateUs): a phase's lateness cannot exceed its length.
constexpr double kLateGateShare = 0.1;
constexpr double kLateGateUs = 50'000.0;
// Capacity: bursts offered well above what 2 workers answer. Saturation
// throughput is what the server answers per second of its CPU time, times
// kWorkers: the answered rate of fully busy workers. Unlike the answered
// rate itself it does not depend on the generator outpacing the server,
// which two generator threads cannot do when the host runs fast. The
// bursts count only if they loaded the server: its workers were at least
// kBusyGate busy, or their receive calls came back at least kFullBatchShare
// full on average (a backlog waited in their sockets). Either alone fails
// healthy runs: when the host takes CPU time from the workers they are
// less busy but hold a backlog; when it runs fast they drain their sockets
// but stay busy. With defense on, the compute meter caps the answered
// rate by design and shedding is cheap, so neither need hold; there the
// generator must have offered at least kOverMeter times the meter's rate.
constexpr double kOverloadQps = 500'000.0;
constexpr double kBusyGate = 0.5;
constexpr double kFullBatchShare = 0.5;
constexpr double kOverMeter = 2.0;
// The reference phase runs in rounds, each followed by an overload burst
// and, where the workload has one, a publish-probe window. The host swings
// the server's speed by a third for a second or more at a time; capacity
// and visibility sampled in one stretch would catch a single swing.
constexpr std::size_t kRounds = 4;
constexpr std::size_t kRefParts = 40;        // reference phase: statistics over parts
constexpr double kPublishesPerPart = 2;      // when publishing: parts span this many
constexpr std::size_t kReplayQueries = 50'000;
constexpr double kScrapePeriodS = 0.1;

struct Spec {
  const char* name;
  std::size_t zones;
  std::size_t corpus;
  double attack_fraction;
  bool defense;
  bool live_reload;
  double light_qps;     // 0: no light-rate phase
  double ref_qps;       // reference rate: latency, cpu, balance
  double probe_qps;     // rate during the publish-probe windows
  double publish_every_s;
  bool publish_during_ref;
  // Shares of --seconds per phase.
  double warm, light, ref, capacity, probe;
};

const Spec kSpecs[] = {
    // name, zones, corpus, attack, defense, live, light, ref, probe, publish, in-ref, shares
    {"resolver_steady", 2000, 65536, 0.0, false, false, 10'000, 60'000, 10'000, 0.025, false,
     0.05, 0.15, 0.40, 0.30, 0.10},
    {"flood_defense", 2000, 65536, 0.5, true, false, 0, 40'000, 20'000, 0.025, false,
     0.05, 0.0, 0.55, 0.30, 0.10},
    {"zone_churn", 5000, 65536, 0.0, false, true, 0, 20'000, 0, 0.10, true,
     0.05, 0.0, 0.60, 0.35, 0.0},
};

const Spec* find_spec(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

net::DefenseOptions defense_options(const Spec& spec) {
  net::DefenseOptions d;
  d.enabled = spec.defense;
  if (spec.defense) {
    // As bench_net_loopback's A/B: meter the responders below the offered
    // rate, arm the NXDOMAIN filter fast, and discard armed-zone probes
    // at enqueue (penalty >= S_max).
    d.compute_qps = 0.9 * spec.ref_qps;
    d.nxdomain_threshold = 4;
    d.nxdomain_penalty = 200.0;
  }
  return d;
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1e6;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(mono_ns() - t0) / 1e9; }

/// CPU time the hypervisor gave to others ("steal"), in seconds summed
/// over all CPUs; 0 where /proc/stat does not report it.
double host_steal_s() {
  unsigned long long user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                     steal = 0;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user, &nice, &sys, &idle,
                    &iowait, &irq, &softirq, &steal) != 8) {
      steal = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(steal) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- inputs --------------------------------------------------------------

/// Everything a workload's inputs are made of, from the seed alone.
struct Inputs {
  std::unique_ptr<workload::HostedZones> zones;
  std::unique_ptr<workload::ResolverPopulation> population;
  std::unique_ptr<workload::ReplayCorpus> corpus;
  std::vector<Entry> entries;
  Oracle oracle;
  std::vector<zone::Zone> step_zones;  // publish schedule, in order
  /// Per churn slot: an entry whose answer changes with every version,
  /// asked by the visibility probe after each publish.
  std::vector<std::size_t> probe_entry;
  double store_build_s = 0.0;
};

/// Builds zones, corpus and the expected answers; with `steps` > 0 also
/// the publish schedule and every version's expected answers for the
/// entries of the republished zones.
std::unique_ptr<Inputs> build_inputs(const Spec& spec, std::uint64_t seed, std::size_t steps,
                                     std::string& error) {
  auto in = std::make_unique<Inputs>();
  const std::int64_t t0 = mono_ns();
  in->zones = std::make_unique<workload::HostedZones>(
      workload::HostedZonesConfig{.zone_count = spec.zones}, seed);
  in->store_build_s = seconds_since(t0);
  workload::PopulationConfig pc;
  pc.resolver_count = 5'000;
  in->population = std::make_unique<workload::ResolverPopulation>(pc, seed ^ 0x9E3779B97F4A7C15ULL);
  workload::ReplayMixConfig mix;
  mix.corpus_size = spec.corpus;
  mix.attack_fraction = spec.attack_fraction;
  // Direct queries ask valid names and are answered like legit ones, so
  // they share the compute meter with legit traffic; the meter keeps a
  // third of headroom over that demand, or every host stall would leave
  // a backlog that takes many times its length to drain.
  mix.random_subdomain_weight = 0.8;
  mix.direct_query_weight = 0.2;
  mix.spoofed_weight = 0.0;
  mix.seed = seed;
  in->corpus = std::make_unique<workload::ReplayCorpus>(mix, *in->population, *in->zones);
  for (const auto& e : in->corpus->entries()) {
    in->entries.push_back({e.wire.data(), e.wire.size(), e.is_attack});
  }
  Oracle& o = in->oracle;
  o.base = net::expected_responses(*in->corpus, in->zones->store());
  if (steps == 0) return in;

  // Publish schedule: step i republishes slot i % K at version i / K + 1.
  const std::size_t slots = std::min(kChurnSlots, spec.zones);
  o.slots = slots;
  o.steps = steps;
  o.current = std::make_unique<std::atomic<std::uint32_t>[]>(slots);
  o.published_ns = std::make_unique<std::atomic<std::int64_t>[]>(steps);
  o.first_new_ns = std::make_unique<std::atomic<std::int64_t>[]>(steps);
  o.step_of.assign(slots, std::vector<std::int32_t>{-1});
  for (std::size_t i = 0; i < steps; ++i) {
    const std::size_t slot = i % slots;
    const auto version = static_cast<std::uint32_t>(i / slots + 1);
    in->step_zones.push_back(in->zones->evolved(slot, version));
    o.step_of[slot].push_back(static_cast<std::int32_t>(i));
    o.published_ns[i] = -1;
    o.first_new_ns[i] = -1;
  }
  // Which entries ask about a republished zone.
  const auto& corpus = in->corpus->entries();
  o.slot_of.assign(corpus.size(), -1);
  o.versions.resize(corpus.size());
  std::vector<std::vector<std::size_t>> members(slots);
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    const auto view = dns::decode_query_view(corpus[e].wire);
    if (!view) continue;
    const auto zone = in->zones->store().find_best_compiled(view.value().question.name);
    if (!zone) continue;
    for (std::size_t s = 0; s < slots; ++s) {
      if (zone->apex() == in->zones->apex(s)) {
        o.slot_of[e] = static_cast<std::int16_t>(s);
        members[s].push_back(e);
      }
    }
  }
  // Zones are self-contained (no cross-zone CNAMEs or glue), so a store
  // holding just one zone answers its names exactly as the full store
  // does. Version 0 proves that against net::expected_responses.
  server::ResponderConfig rc;
  rc.enable_answer_cache = false;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t versions = o.step_of[s].size();
    for (std::size_t v = 0; v < versions; ++v) {
      zone::ZoneStore one;
      one.publish(in->zones->evolved(s, static_cast<std::uint32_t>(v)));
      server::Responder responder(one, rc);
      for (const std::size_t e : members[s]) {
        auto wire = responder.respond_wire(corpus[e].wire, corpus[e].source);
        std::vector<std::uint8_t> bytes = wire ? std::move(*wire) : std::vector<std::uint8_t>{};
        if (v == 0) {
          if (bytes != o.base[e]) {
            error = "single-zone oracle disagrees with expected_responses";
            return nullptr;
          }
          o.versions[e].resize(versions);
        } else {
          o.versions[e][v] = std::move(bytes);
        }
      }
    }
    // A legit question with a positive answer: the defense never sheds
    // it, and its records change with every version.
    const auto changes_every_version = [&](std::size_t e) {
      const auto& b = o.base[e];
      if (corpus[e].is_attack || b.size() < 12 || (b[3] & 0xF) != 0 || (b[6] | b[7]) == 0) {
        return false;
      }
      for (std::size_t v = 1; v < versions; ++v) {
        const auto& prev = v == 1 ? o.base[e] : o.versions[e][v - 1];
        if (o.versions[e][v] == prev) return false;
      }
      return true;
    };
    const auto it = std::find_if(members[s].begin(), members[s].end(), changes_every_version);
    if (it == members[s].end()) {
      error = "no probe entry for churn slot " + std::to_string(s);
      return nullptr;
    }
    in->probe_entry.push_back(*it);
  }
  return in;
}

// ---- the server under test -----------------------------------------------

struct Rig {
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<MonotonicClock> clock;
  std::unique_ptr<propagation::ZonePublisher> publisher;  // live-reload mode only
  std::unique_ptr<net::Server> server;
  std::unique_ptr<Sender> sender;
  std::unique_ptr<VisibilityProbe> probe;
  double setup_s = 0.0;
  double inputs_s = 0.0;
  double server_start_s = 0.0;
  double calibrate_s = 0.0;
  double rss_growth_mb = 0.0;
};

std::vector<std::uint64_t> per_worker_packets(const net::Server& server) {
  const auto snap = server.metrics_snapshot();
  std::vector<std::uint64_t> out(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    out[w] = snap.sum("akadns_frontend_total",
                      obs::with(obs::with({}, "worker", w), "event", "udp_packets"));
  }
  return out;
}

/// Server and generator get disjoint halves of the CPUs (when there are
/// at least four), so neither waits for a core the other holds.
struct CpuSplit {
  std::vector<int> all, server, generator;
  CpuSplit() : all(allowed_cpus()) {
    if (all.size() < 4) return;
    server.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2));
    generator.assign(all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2), all.end());
  }
};

std::unique_ptr<Rig> set_up(const Spec& spec, std::uint64_t seed, std::size_t steps,
                            const CpuSplit& cpus, std::string& error) {
  const double rss0 = rss_mb();
  const std::int64_t t0 = mono_ns();
  auto rig = std::make_unique<Rig>();
  rig->inputs = build_inputs(spec, seed, steps, error);
  if (!rig->inputs) return nullptr;
  rig->inputs_s = seconds_since(t0);
  net::ServeConfig config;
  config.workers = kWorkers;
  config.defense = defense_options(spec);
  const std::int64_t ts = mono_ns();
  if (spec.live_reload) {
    rig->clock = std::make_unique<MonotonicClock>();
    rig->publisher = std::make_unique<propagation::ZonePublisher>(*rig->clock);
    rig->publisher->adopt(rig->inputs->zones->store());
    rig->server = std::make_unique<net::Server>(config, *rig->publisher);
  } else {
    rig->server = std::make_unique<net::Server>(config, rig->inputs->zones->store());
  }
  // Workers inherit this thread's CPU mask at start().
  pin_thread(cpus.server);
  auto started = rig->server->start();
  pin_thread(cpus.all);
  if (!started) {
    error = "server start: " + started.error();
    return nullptr;
  }
  rig->server_start_s = seconds_since(ts);
  rig->rss_growth_mb = rss_mb() - rss0;

  // Probe with the first legit entry (any answer attributes the flow).
  std::vector<std::uint8_t> probe;
  for (const auto& e : rig->inputs->corpus->entries()) {
    if (!e.is_attack) {
      probe = e.wire;
      break;
    }
  }
  const net::Server& server = *rig->server;
  const std::int64_t tc = mono_ns();
  // One more flow per worker than the sender uses: those go to the
  // visibility probe.
  auto all = calibrate_flows(server.udp_port(), kFlowsPerWorker + 1,
                             [&server] { return per_worker_packets(server); }, probe, error);
  if (all.empty()) return nullptr;
  rig->calibrate_s = seconds_since(tc);
  std::vector<Flow> flows, probe_flows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ((i + 1) % (kFlowsPerWorker + 1) == 0 ? probe_flows : flows).push_back(all[i]);
  }
  rig->probe = std::make_unique<VisibilityProbe>(std::move(probe_flows));
  rig->sender = std::make_unique<Sender>(rig->inputs->entries, rig->inputs->oracle,
                                         std::move(flows), cpus.generator);
  rig->setup_s = seconds_since(t0);
  return rig;
}

// ---- phases ----------------------------------------------------------------

/// Server-side counters read around a phase.
struct ServerCounters {
  std::vector<std::uint64_t> per_worker;
  std::uint64_t packets = 0, batches = 0, hits = 0, misses = 0, invalidations = 0;

  static ServerCounters read(const net::Server& server) {
    const auto snap = server.metrics_snapshot();
    const auto ev = [&](const char* family, const char* key, const char* value) {
      return snap.sum(family, obs::with({}, key, value));
    };
    ServerCounters c;
    c.per_worker.resize(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      c.per_worker[w] = snap.sum("akadns_frontend_total",
                                 obs::with(obs::with({}, "worker", w), "event", "udp_packets"));
    }
    c.packets = ev("akadns_frontend_total", "event", "udp_packets");
    c.batches = ev("akadns_frontend_total", "event", "udp_batches");
    c.hits = ev("akadns_answer_cache_total", "event", "hit");
    c.misses = ev("akadns_answer_cache_total", "event", "miss");
    c.invalidations = ev("akadns_answer_cache_total", "event", "invalidation");
    return c;
  }
};

/// One phase, measured: the sender's result plus server-side deltas and
/// the CPU split between server and generator.
struct Phase {
  std::string name;
  PhaseResult r;
  ServerCounters before, after;
  CpuTimes process;  // whole-process CPU over the phase
  double wall_s = 0.0;   // the phase, including the wait for stragglers
  double steal_s = 0.0;  // host steal over the phase, all CPUs

  CpuTimes server_cpu() const { return process - r.generator_cpu; }
  double answered_qps() const { return static_cast<double>(r.received()) / r.seconds; }
  double cpu_us_per_query() const {
    return r.received() ? server_cpu().total() * 1e6 / static_cast<double>(r.received()) : 0.0;
  }
  double late_p99_us() const {
    auto v = r.late;
    return quantile(v, 0.99) / 1e3;
  }
  double latency_us(double q) const {
    auto v = r.latency;
    return quantile(v, q) / 1e3;
  }
  double sent_qps() const { return static_cast<double>(r.sent()) / r.seconds; }
  double pkts_per_recv() const {
    return static_cast<double>(after.packets - before.packets) /
           static_cast<double>(std::max<std::uint64_t>(1, after.batches - before.batches));
  }
  double worker_share_max_mean() const {
    double sum = 0.0, max = 0.0;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      const auto d = static_cast<double>(after.per_worker[w] - before.per_worker[w]);
      sum += d;
      max = std::max(max, d);
    }
    return sum > 0.0 ? max / (sum / kWorkers) : 0.0;
  }
  /// (legit timeouts + mismatches + SERVFAIL [+ unexpected ids]) / sent.
  std::uint64_t failures(bool legit_only) const {
    const ClassCounts& l = r.legit;
    std::uint64_t f = l.timeouts + l.mismatched + l.servfail;
    if (!legit_only) f += r.attack.timeouts + r.attack.mismatched + r.attack.servfail + r.unexpected;
    return f;
  }
};

/// The parts of one phase seen as a single phase (for counts and ratios).
Phase combine(const std::vector<Phase>& parts) {
  Phase out = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    out.r.merge(parts[i].r);
    out.process += parts[i].process;
  }
  out.after = parts.back().after;
  return out;
}

/// Median over the parts of a per-part figure.
template <typename Fn>
double median_of(const std::vector<Phase>& parts, Fn&& fn) {
  std::vector<double> v;
  for (const auto& p : parts) v.push_back(fn(p));
  return median(v);
}

/// The half of the parts over which the host stole the least CPU time.
/// A shared host pauses the guest's CPUs in bursts of up to seconds; a
/// paused CPU delays every query it holds, so latency from the parts it
/// hit measures the host, not the program.
std::vector<Phase> quieter_half(std::vector<Phase> parts) {
  std::stable_sort(parts.begin(), parts.end(),
                   [](const Phase& a, const Phase& b) { return a.steal_s < b.steal_s; });
  parts.resize((parts.size() + 1) / 2);
  return parts;
}

class Runner {
 public:
  Runner(const Spec& spec, Rig& rig, double seconds, SpanLog& spans)
      : spec_(spec), rig_(rig), seconds_(seconds), spans_(spans) {
    rig_.sender->set_ticker([this] { tick(); });
  }

  /// One phase at a fixed offered rate. With `publishing`, zones are
  /// republished on the workload's cadence; outside capacity bursts each
  /// publish is followed by the visibility probe. Capacity bursts offer
  /// more than the generator sends, so they drop their backlog at once.
  Phase run(const std::string& name, double qps, double share, bool publishing) {
    Phase p;
    p.name = name;
    publishing_ = publishing;
    probing_ = name != "capacity";
    const double secs = std::max(0.2, seconds_ * share);
    p.before = ServerCounters::read(*rig_.server);
    const CpuTimes c0 = process_cpu();
    const double steal0 = host_steal_s();
    const std::int64_t t0 = mono_ns();
    p.r = rig_.sender->run(qps, secs, probing_ ? kGraceS : 0.0);
    p.wall_s = seconds_since(t0);
    p.process = process_cpu() - c0;
    p.steal_s = host_steal_s() - steal0;
    p.after = ServerCounters::read(*rig_.server);
    return p;
  }

  /// One overload burst, then the wait for its backlog to clear.
  Phase overload() {
    Phase p = run("capacity", kOverloadQps, spec_.capacity / kRounds,
                  spec_.publish_during_ref);
    settle();
    return p;
  }

  /// Lets an overload burst's backlog clear before the next phase: the
  /// stragglers in flight and, with defense on, the penalty queues (which
  /// drain at the compute meter's rate; at most 2 s).
  void settle() {
    const std::int64_t t0 = mono_ns();
    const auto queued = [this] {
      return rig_.server->metrics_snapshot().gauge_value("akadns_penalty_queue_depth") > 0;
    };
    while (mono_ns() < t0 + 150'000'000 || (mono_ns() < t0 + 2'000'000'000 && queued())) {
      rig_.sender->run(1000.0, 0.0, 0.0);  // no sends: drains stragglers
    }
  }

  std::vector<double> publish_ms, visible_ms, scrape_us, queue_depths;
  std::size_t next_step = 0;
  std::string error;

 private:
  void tick() {
    const std::int64_t now = mono_ns();
    if (now >= next_scrape_ns_) {
      next_scrape_ns_ = now + static_cast<std::int64_t>(kScrapePeriodS * 1e9);
      const std::int64_t t0 = mono_ns();
      const auto snap = rig_.server->metrics_snapshot();
      const std::string text = obs::render_prometheus(snap);
      const std::int64_t t1 = mono_ns();
      spans_.add(static_cast<std::uint32_t>(scrape_us.size()), kScrape, -1, t0, t1);
      scrape_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      queue_depths.push_back(snap.gauge_value("akadns_penalty_queue_depth"));
      if (text.empty()) error = "empty metrics exposition";
    }
    if (!publishing_ || now < next_publish_ns_) return;
    Oracle& o = rig_.inputs->oracle;
    if (next_step >= o.steps) return;
    next_publish_ns_ = now + static_cast<std::int64_t>(spec_.publish_every_s * 1e9);
    const std::size_t i = next_step++;
    const std::size_t slot = i % o.slots;
    o.current[slot].store(static_cast<std::uint32_t>(i / o.slots + 1), std::memory_order_release);
    const std::int64_t t0 = mono_ns();
    o.published_ns[i].store(t0, std::memory_order_release);
    auto published = rig_.server->publisher().publish(std::move(rig_.inputs->step_zones[i]));
    const std::int64_t t1 = mono_ns();
    spans_.add(static_cast<std::uint32_t>(i), kPublish, -1, t0, t1);
    publish_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (!published) {
      error = "publish: " + published.error();
      return;
    }
    // An overloaded server may drop the probe itself; visibility is only
    // timed below capacity.
    if (!probing_) return;
    // Publish-to-visible: ask the republished zone on every worker's
    // probe flow until each answers from the new version.
    const std::size_t e = rig_.inputs->probe_entry[slot];
    const auto seen = rig_.probe->wait_new(
        rig_.inputs->corpus->entries()[e].wire,
        [&o, e](std::span<const std::uint8_t> got) {
          return static_cast<VisibilityProbe::Fresh>(o.classify(e, got));
        },
        t0 + 2'000'000'000);
    if (seen < 0) {
      error = "publish " + std::to_string(i) + " not visible on every worker within 2 s";
      return;
    }
    visible_ms.push_back(static_cast<double>(seen - t0) / 1e6);
  }

  const Spec& spec_;
  Rig& rig_;
  double seconds_;
  SpanLog& spans_;
  bool publishing_ = false;
  bool probing_ = false;
  std::int64_t next_publish_ns_ = 0;
  std::int64_t next_scrape_ns_ = 0;
};

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + fmt(v[i]);
  return s + "]";
}

std::string phase_json(const Phase& p) {
  const auto& l = p.r.legit;
  const auto& a = p.r.attack;
  const auto server = p.server_cpu();
  auto lat = p.r.latency;
  const double p50 = quantile(lat, 0.5) / 1e3, p99 = quantile(lat, 0.99) / 1e3,
               p999 = quantile(lat, 0.999) / 1e3;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"phase\": \"%s\", \"offered_qps\": %s, \"seconds\": %s, \"answered_qps\": %s, "
      "\"legit\": {\"sent\": %llu, \"received\": %llu, \"timeouts\": %llu, \"mismatched\": %llu, "
      "\"servfail\": %llu}, \"attack\": {\"sent\": %llu, \"received\": %llu, \"timeouts\": %llu, "
      "\"mismatched\": %llu}, \"unexpected\": %llu, \"send_errors\": %llu, "
      "\"legit_p50_us\": %s, \"legit_p99_us\": %s, \"legit_p999_us\": %s, \"late_p99_us\": %s, "
      "\"server_cpu_s\": %s, \"server_sys_s\": %s, \"generator_cpu_s\": %s, "
      "\"worker_share_max_mean\": %s, \"server_packets\": %llu, "
      "\"server_pkts_per_recv\": %s, \"sent_qps\": %s, \"unsent\": %llu, \"host_steal_s\": %s}",
      p.name.c_str(), fmt(p.r.offered_qps).c_str(), fmt(p.r.seconds).c_str(),
      fmt(p.answered_qps()).c_str(), (unsigned long long)l.sent, (unsigned long long)l.received,
      (unsigned long long)l.timeouts, (unsigned long long)l.mismatched,
      (unsigned long long)l.servfail, (unsigned long long)a.sent, (unsigned long long)a.received,
      (unsigned long long)a.timeouts, (unsigned long long)a.mismatched,
      (unsigned long long)p.r.unexpected, (unsigned long long)p.r.send_errors, fmt(p50).c_str(),
      fmt(p99).c_str(), fmt(p999).c_str(), fmt(p.late_p99_us()).c_str(),
      fmt(server.total()).c_str(), fmt(server.sys_s).c_str(),
      fmt(p.r.generator_cpu.total()).c_str(), fmt(p.worker_share_max_mean()).c_str(),
      (unsigned long long)(p.after.packets - p.before.packets), fmt(p.pkts_per_recv()).c_str(),
      fmt(p.sent_qps()).c_str(),
      (unsigned long long)p.r.unsent, fmt(p.steal_s).c_str());
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool digest = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--digest") {
      a.digest = true;
    } else if (k == "--workload" && has) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has) {
      a.trace = std::atoi(argv[++i]);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

int fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

int digest(const Spec& spec, std::uint64_t seed) {
  std::string error;
  const auto in = build_inputs(spec, seed, 0, error);
  if (!in) return fail(error);
  std::uint64_t corpus = 0xcbf29ce484222325ULL, expected = 0xcbf29ce484222325ULL;
  for (const auto& e : in->corpus->entries()) corpus = fnv1a(corpus, e.wire);
  for (const auto& e : in->oracle.base) expected = fnv1a(expected, e);
  std::printf("{\"corpus_digest\": \"%016llx\", \"expected_digest\": \"%016llx\"}\n",
              (unsigned long long)corpus, (unsigned long long)expected);
  return 0;
}

int run(const Args& args, const Spec& spec) {
  const std::string out_dir = ".bench_out";
  ::mkdir(out_dir.c_str(), 0755);
  const std::string tag = out_dir + "/" + spec.name + "-" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);

  // Publish steps the schedule can reach (with slack); every version's
  // expected answers are part of the inputs, built in setup.
  const double publish_s =
      args.seconds * (spec.publish_during_ref ? spec.ref + spec.capacity : spec.probe);
  const auto steps = static_cast<std::size_t>(publish_s / spec.publish_every_s) + 4;

  // Setups: a cold one (not counted; its resident growth is the fresh
  // process's), then the measured one; kLateSetups more follow the
  // measurement.
  std::vector<double> setup_s, inputs_s, start_s, calibrate_s, build_s;
  std::unique_ptr<Rig> rig;
  const CpuSplit cpus;
  const auto set_up_again = [&](std::string& error) {
    rig.reset();
    rig = set_up(spec, args.seed, steps, cpus, error);
    if (!rig) return false;
    setup_s.push_back(rig->setup_s);
    inputs_s.push_back(rig->inputs_s);
    start_s.push_back(rig->server_start_s);
    calibrate_s.push_back(rig->calibrate_s);
    build_s.push_back(rig->inputs->store_build_s);
    return true;
  };
  double cold_setup_s = 0.0, rss_growth = 0.0;
  {
    std::string error;
    rig = set_up(spec, args.seed, steps, cpus, error);
    if (!rig) return fail("setup: " + error);
    cold_setup_s = rig->setup_s;
    rss_growth = rig->rss_growth_mb;
    if (!set_up_again(error)) return fail("setup: " + error);
  }

  SpanLog spans;
  Runner runner(spec, *rig, args.seconds, spans);
  // How much of the machine the host took away while measuring: figures
  // from a run where this share is high are disturbed, not slow.
  const double steal0 = host_steal_s();
  const std::int64_t measure0 = mono_ns();
  std::vector<Phase> phases;
  const bool live = spec.publish_during_ref;
  phases.push_back(runner.run("warmup", spec.ref_qps, spec.warm, false));
  if (spec.light_qps > 0) {
    phases.push_back(runner.run("light", spec.light_qps, spec.light, false));
  }
  // The reference rate runs as several parts; latency and CPU figures are
  // order statistics over the parts, so a disturbed stretch moves them less.
  // While zones are republished, each part spans several publishes, so
  // every part sees the same share of publish stalls.
  const std::size_t parts =
      live ? std::max<std::size_t>(1, static_cast<std::size_t>(
                                          args.seconds * spec.ref /
                                          (kPublishesPerPart * spec.publish_every_s)))
           : kRefParts;
  std::vector<Phase> ref_parts, bursts;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = round * parts / kRounds; i < (round + 1) * parts / kRounds; ++i) {
      ref_parts.push_back(runner.run("ref", spec.ref_qps, spec.ref / parts, live));
      phases.push_back(ref_parts.back());
    }
    bursts.push_back(runner.overload());
    if (spec.probe > 0) {
      phases.push_back(runner.run("publish_probe", spec.probe_qps, spec.probe / kRounds, true));
    }
  }
  const Phase ref = combine(ref_parts);

  const double steal_share = (host_steal_s() - steal0) /
                             (seconds_since(measure0) * static_cast<double>(cpus.all.size()));

  // Packet conservation, server side, once every worker is quiescent.
  rig->server->stop();
  const auto snap = rig->server->metrics_snapshot();
  const auto stats = net::render_server_stats(snap, kWorkers, spec.defense);
  const std::uint64_t sheds = stats.defense.drops.total();
  const auto backlog = static_cast<std::uint64_t>(snap.gauge_value("akadns_penalty_queue_depth"));
  const auto& fe = stats.frontend;
  const bool server_conserved = fe.udp_packets == fe.udp_responses + fe.udp_malformed +
                                                      fe.udp_send_failures + sheds + backlog;

  // Verification and gate results.
  std::uint64_t mismatched = 0, attempted = 0, failed = 0, legit_sent = 0, legit_received = 0;
  const auto account = [&](const Phase& p, bool counted) {
    mismatched += p.r.legit.mismatched + p.r.attack.mismatched;
    if (!counted) return;
    attempted += spec.defense ? p.r.legit.sent : p.r.sent();
    failed += p.failures(spec.defense);
  };
  for (const auto& p : phases) account(p, p.name != "warmup");
  for (const auto& b : bursts) account(b, false);
  for (const auto& p : phases) {
    if (p.name == "warmup") continue;
    legit_sent += p.r.legit.sent;
    legit_received += p.r.legit.received - p.r.legit.mismatched;
  }
  // The lateness gate takes the median phase: a single descheduled
  // stretch shows in that phase's latency, while a generator that cannot
  // keep the schedule fails most phases. Each phase is judged against its
  // own length, the most a query can be late in it.
  // Balance is judged on the fixed-rate phases taken together: the hash
  // lottery it guards against skews every phase alike, while a worker
  // stalled by the host for a moment skews only one short part.
  double late_max = 0.0;
  std::uint64_t scheduled = 0, unsent = 0;
  std::vector<double> lates, late_shares;
  std::vector<double> worker_packets(kWorkers, 0.0);
  for (const auto& p : phases) {
    if (p.name == "warmup") continue;
    lates.push_back(p.late_p99_us());
    late_shares.push_back(lates.back() /
                          std::min(kLateGateUs, kLateGateShare * p.r.seconds * 1e6));
    late_max = std::max(late_max, lates.back());
    for (std::size_t w = 0; w < kWorkers; ++w) {
      worker_packets[w] += static_cast<double>(p.after.per_worker[w] - p.before.per_worker[w]);
    }
    scheduled += p.r.scheduled();
    unsent += p.r.unsent;
  }
  const double packets_total =
      std::accumulate(worker_packets.begin(), worker_packets.end(), 0.0);
  const double share_max =
      packets_total > 0.0
          ? *std::max_element(worker_packets.begin(), worker_packets.end()) /
                (packets_total / static_cast<double>(kWorkers))
          : 0.0;
  const double late_median = median(lates);
  const double unsent_share =
      scheduled ? static_cast<double>(unsent) / static_cast<double>(scheduled) : 1.0;
  // The capacity bursts taken together: answers per second of server CPU
  // time, how busy the server was, the rate the generator sent, and how
  // full the server's receive calls came back.
  double burst_answered = 0.0, burst_cpu = 0.0, burst_wall = 0.0, burst_sent = 0.0,
         burst_s = 0.0, burst_packets = 0.0, burst_batches = 0.0;
  for (const auto& b : bursts) {
    burst_answered += static_cast<double>(b.r.received());
    burst_cpu += b.server_cpu().total();
    burst_wall += b.wall_s;
    burst_sent += static_cast<double>(b.r.sent());
    burst_s += b.r.seconds;
    burst_packets += static_cast<double>(b.after.packets - b.before.packets);
    burst_batches += static_cast<double>(b.after.batches - b.before.batches);
  }
  const double capacity =
      burst_cpu > 0.0 ? static_cast<double>(kWorkers) * burst_answered / burst_cpu : 0.0;
  const double capacity_busy = burst_cpu / (burst_wall * static_cast<double>(kWorkers));
  const double capacity_sent_qps = burst_sent / burst_s;
  const double capacity_pkts_per_recv = burst_packets / std::max(1.0, burst_batches);
  // The open-loop traffic's own first sightings of each new version
  // (reported in the details; the metric is the probe's figure).
  std::vector<double> sender_visible_ms;
  const Oracle& o = rig->inputs->oracle;
  std::size_t unseen = 0;
  for (std::size_t i = 0; i < runner.next_step; ++i) {
    const std::int64_t first = o.first_new_ns[i].load();
    if (first < 0) {
      ++unseen;
      continue;
    }
    sender_visible_ms.push_back(static_cast<double>(first - o.published_ns[i].load()) / 1e6);
  }
  // Lower quartile over publishes: interference only adds delay.
  std::vector<double> visible_ms = runner.visible_ms;
  std::sort(visible_ms.begin(), visible_ms.end());
  const double visible_quiet = visible_ms.empty() ? 0.0 : visible_ms[(visible_ms.size() - 1) / 4];
  const bool verified = mismatched == 0 && runner.error.empty();
  const bool balanced = share_max <= kBalanceGate;
  const bool on_time = median(late_shares) <= 1.0;
  const bool kept_schedule = unsent_share <= kUnsentGate;
  const bool saturated =
      spec.defense
          ? capacity_sent_qps >= kOverMeter * defense_options(spec).compute_qps
          : capacity_busy >= kBusyGate ||
                capacity_pkts_per_recv >=
                    kFullBatchShare * static_cast<double>(net::ServeConfig{}.udp_batch);
  const bool visible = !visible_ms.empty();
  const bool correct = verified && server_conserved && balanced && on_time && kept_schedule &&
                       saturated && visible;

  // The late setups. Each builds the same inputs from the same seed; the
  // traced replay below runs on the last one's, with its server stopped.
  for (std::size_t i = 0; i < kLateSetups; ++i) {
    std::string error;
    if (!set_up_again(error)) return fail("setup: " + error);
    rig->server->stop();
  }

  // p99 per part, second lowest over parts: interference from outside
  // the benchmark (the host is shared) only ever adds latency, and how
  // many parts it reaches varies from run to run. The second rather than
  // the lowest, so that one part that dodged a disturbance by luck does
  // not set the figure.
  std::vector<double> part_p99;
  for (const auto& p : ref_parts) part_p99.push_back(p.latency_us(0.99));
  std::sort(part_p99.begin(), part_p99.end());
  const double p99_quiet = part_p99[std::min<std::size_t>(1, part_p99.size() - 1)];

  const double cpu = median_of(ref_parts, [](const Phase& p) { return p.cpu_us_per_query(); });
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_us",
         median_of(quieter_half(ref_parts), [](const Phase& p) { return p.latency_us(0.5); }),
         "us"},
        {"capacity_qps", capacity, "1/s"},
        {"ok_ratio", attempted ? 1.0 - static_cast<double>(failed) / attempted : 0.0, "ratio"},
        {"cpu_us_per_query", cpu, "us"},
        {"server_rss_mb", rss_growth, "MB"},
        {"legit_goodput",
         legit_sent ? static_cast<double>(legit_received) / static_cast<double>(legit_sent) : 0.0,
         "ratio"},
        {"publish_visible_ms", visible_quiet, "ms"},
    };
  }

  // The traced run: the same stream one worker sees, replayed in-process.
  std::string ledger_json = "null";
  if (args.trace == 1) {
    // Worker 0's share: generator thread t sends query k of its sequence
    // on flow k % 2, and flow 0 of every thread hashes to worker 0.
    const std::size_t n = rig->inputs->entries.size();
    std::vector<std::uint32_t> stream;
    for (std::size_t k = 0; stream.size() < kReplayQueries; k += kFlowsPerWorker) {
      for (std::size_t t = 0; t < kThreads && stream.size() < kReplayQueries; ++t) {
        stream.push_back(static_cast<std::uint32_t>((t * n / kThreads + k) % n));
      }
    }
    ReplayConfig rc;
    rc.defense_on_path = spec.defense;
    rc.defense = defense_options(spec);
    const auto& store = rig->inputs->zones->store();
    const auto& entries = rig->inputs->entries;
    // Alternate untraced and traced passes; each starts from fresh state.
    const ReplayResult plain1 = replay(store, entries, stream, rc, nullptr);
    SpanLog discard;
    const ReplayResult traced1 = replay(store, entries, stream, rc, &discard);
    const ReplayResult plain2 = replay(store, entries, stream, rc, nullptr);
    SpanLog replay_spans;
    replay_spans.reserve(stream.size() * 8);
    const ReplayResult t = replay(store, entries, stream, rc, &replay_spans);
    const double overhead_us =
        0.5 * ((traced1.cpu_us_per_query - plain1.cpu_us_per_query) +
               (t.cpu_us_per_query - plain2.cpu_us_per_query));
    const double decode_us = t.decode_ns / 1e3;
    const double defense_us =
        spec.defense ? (t.score_ns + t.queue_ns + t.observe_ns) / 1e3 : 0.0;
    const double respond_us = t.respond_ns / 1e3;
    const double unattributed = cpu - decode_us - defense_us - respond_us;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"cpu_us_per_query\": %s, \"decode_us\": %s, \"defense_us\": %s, "
                  "\"respond_us\": %s, \"unattributed_us\": %s, \"replayed_queries\": %zu, "
                  "\"trace_overhead_us\": %s}",
                  fmt(cpu).c_str(), fmt(decode_us).c_str(), fmt(defense_us).c_str(),
                  fmt(respond_us).c_str(), fmt(unattributed).c_str(), t.queries,
                  fmt(overhead_us).c_str());
    ledger_json = buf;
    // One replay span file per workload (the newest run), not per seed.
    const std::string replay_path = out_dir + "/" + spec.name + "-replay-spans.tsv";
    if (!replay_spans.write(replay_path) || !spans.write(tag + "-spans.tsv")) {
      std::fprintf(stderr, "perfbench: could not write spans under %s\n", out_dir.c_str());
    }

    const auto hits = static_cast<double>(ref.after.hits - ref.before.hits);
    const auto misses = static_cast<double>(ref.after.misses - ref.before.misses);
    const auto& a = ref.r.attack;
    const double depth_max =
        runner.queue_depths.empty()
            ? 0.0
            : *std::max_element(runner.queue_depths.begin(), runner.queue_depths.end());
    const CpuTimes server = ref.server_cpu();
    metrics = {
        {"net.pkts_per_recv", ref.pkts_per_recv(), "pkts"},
        {"net.sys_cpu_share", server.total() > 0 ? server.sys_s / server.total() : 0.0, "ratio"},
        {"net.worker_share_max_mean", ref.worker_share_max_mean(), "ratio"},
        {"net.server_start_s", median(start_s), "s"},
        {"dns.decode_ns", t.decode_ns, "ns"},
        {"server.respond_hit_ns", t.respond_hit_ns, "ns"},
        {"server.respond_miss_ns", t.respond_miss_ns, "ns"},
        {"server.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
        {"server.cache_invalidations",
         static_cast<double>(ref.after.invalidations - ref.before.invalidations), "count"},
        {"zone.find_best_ns", t.find_best_ns, "ns"},
        {"zone.store_build_s", median(build_s), "s"},
        {"propagation.publish_ms", median(runner.publish_ms), "ms"},
        {"propagation.replica_compiles",
         static_cast<double>(stats.replica_compiles.compiles + stats.replica_compiles.incremental_compiles),
         "count"},
        {"defense.score_ns", t.score_ns, "ns"},
        {"defense.queue_ns", t.queue_ns, "ns"},
        {"defense.attack_shed_ratio",
         a.sent ? static_cast<double>(a.sent - a.received) / static_cast<double>(a.sent) : 0.0,
         "ratio"},
        {"defense.legit_shed", static_cast<double>(ref.r.legit.timeouts), "count"},
        {"defense.queue_depth_max", depth_max, "count"},
        {"obs.scrape_us", median(runner.scrape_us), "us"},
        {"latency_p99_us", p99_quiet, "us"},
        {"loadgen.late_p99_us", ref.late_p99_us(), "us"},
        {"loadgen.cpu_us_per_query",
         ref.r.sent() ? ref.r.generator_cpu.total() * 1e6 / static_cast<double>(ref.r.sent()) : 0.0,
         "us"},
        {"ledger.unattributed_us", unattributed, "us"},
        {"trace.overhead_us", overhead_us, "us"},
    };
  }

  // Human-readable summary, then the detail file, then the result line.
  for (const auto& m : metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace == 0) {
    std::printf("%-32s %16.4f us (unbounded; also in --trace 1)\n", "latency_p99_us", p99_quiet);
  }
  std::string detail = "{\"workload\": \"" + std::string(spec.name) +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + fmt(args.seconds) + ", \"checks\": {" +
                       "\"verified\": " + (verified ? "true" : "false") +
                       ", \"server_conserved\": " + (server_conserved ? "true" : "false") +
                       ", \"balanced\": " + (balanced ? "true" : "false") +
                       ", \"generator_on_time\": " + (on_time ? "true" : "false") +
                       ", \"generator_kept_schedule\": " + (kept_schedule ? "true" : "false") +
                       ", \"capacity_saturated\": " + (saturated ? "true" : "false") +
                       ", \"publish_visible\": " + (visible ? "true" : "false") +
                       ", \"worker_share_max_mean\": " + fmt(share_max) +
                       ", \"late_p99_us_median\": " + fmt(late_median) +
                       ", \"late_p99_us_max\": " + fmt(late_max) +
                       ", \"late_p99_share_of_gate_median\": " + fmt(median(late_shares)) +
                       ", \"scheduled\": " + std::to_string(scheduled) +
                       ", \"unsent\": " + std::to_string(unsent) +
                       ", \"unsent_share\": " + fmt(unsent_share) +
                       ", \"capacity_qps\": " + fmt(capacity) +
                       ", \"capacity_sent_qps\": " + fmt(capacity_sent_qps) +
                       ", \"capacity_pkts_per_recv\": " + fmt(capacity_pkts_per_recv) +
                       ", \"capacity_busy\": " + fmt(capacity_busy) +
                       ", \"mismatched\": " + std::to_string(mismatched) +
                       ", \"publishes\": " + std::to_string(runner.next_step) +
                       ", \"publishes_unseen_by_sender\": " + std::to_string(unseen) +
                       ", \"sender_visible_ms\": " + fmt(median(sender_visible_ms)) +
                       ", \"visible_ms\": " + list_json(visible_ms) +
                       ", \"publish_ms\": " + list_json(runner.publish_ms) +
                       ", \"ref_part_p99_us\": " + list_json(part_p99) +
                       ", \"ref_pooled_p99_us\": " + fmt(ref.latency_us(0.99)) +
                       ", \"host_steal_share\": " + fmt(steal_share) +
                       ", \"error\": \"" + runner.error + "\"}, " +
                       "\"server\": {\"udp_packets\": " + std::to_string(fe.udp_packets) +
                       ", \"udp_responses\": " + std::to_string(fe.udp_responses) +
                       ", \"udp_malformed\": " + std::to_string(fe.udp_malformed) +
                       ", \"udp_send_failures\": " + std::to_string(fe.udp_send_failures) +
                       ", \"defense_sheds\": " + std::to_string(sheds) +
                       ", \"backlog\": " + std::to_string(backlog) + "}, " +
                       "\"setup\": {\"cold_setup_s\": " + fmt(cold_setup_s) +
                       ", \"setup_s\": " + list_json(setup_s) +
                       ", \"inputs_s\": " + list_json(inputs_s) +
                       ", \"server_start_s\": " + list_json(start_s) +
                       ", \"calibrate_s\": " + list_json(calibrate_s) + "}, " +
                       "\"ledger\": " + ledger_json +
                       ", \"phases\": [";
  for (const auto& p : phases) detail += phase_json(p) + ", ";
  for (std::size_t i = 0; i < bursts.size(); ++i) detail += (i ? ", " : "") + phase_json(bursts[i]);
  detail += "], \"metrics\": " + metrics_json(metrics) + "}\n";
  if (std::FILE* f = std::fopen((tag + ".json").c_str(), "w")) {
    std::fputs(detail.c_str(), f);
    std::fclose(f);
  }
  if (!correct) {
    std::string which;
    const std::pair<const char*, bool> checks[] = {
        {"verified", verified},           {"server_conserved", server_conserved},
        {"balanced", balanced},           {"generator_on_time", on_time},
        {"generator_kept_schedule", kept_schedule}, {"capacity_saturated", saturated},
        {"publish_visible", visible}};
    for (const auto& [name, ok] : checks) {
      if (!ok) which += std::string(which.empty() ? "" : ", ") + name;
    }
    if (!runner.error.empty()) which += " (" + runner.error + ")";
    std::fprintf(stderr, "perfbench: checks failed: %s; see %s.json\n", which.c_str(), tag.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--digest]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Spec* spec = perfbench::find_spec(args.workload);
  if (spec == nullptr) return perfbench::fail("unknown workload " + args.workload);
  return args.digest ? perfbench::digest(*spec, args.seed) : perfbench::run(args, *spec);
}
