// Zone propagation bench: what a zone update costs end to end.
//
// Five sections. (1) Full vs incremental recompile across zone size ×
// delta size — the case for compile_incremental is that a 1-record
// change in a 100k-record zone should cost the delta, not the zone.
// (2) The publisher pipeline: diff + journal + incremental compile per
// publish, sustained over a long serial chain. (3) Publish-to-visible
// latency at an in-process subscriber, which adopts each compiled
// snapshot. (4) The heap per hosted zone of the benchmark's zone
// population (HostedZones, 5000 zones, seed 1), split into the
// interpreted Zone, its CompiledZone and the rest. (5) An
// apex-count sweep over the zone store (10^3..10^5 small zones):
// building it one publish at a time, seeding a replica, republishing one
// apex, lookup cost, and RSS and heap per apex. Loading n zones must
// cost O(n) and one republish must not grow with n. The sweep also
// checks that every apex's www name resolves to that apex and exits
// nonzero on a mismatch; it gates no timing and no memory figure.
//
// With AKADNS_BENCH_JSON=<path> every row is also written as JSON (the
// CI artifact).

#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "propagation/zone_publisher.hpp"
#include "propagation/zone_subscriber.hpp"
#include "workload/zones.hpp"
#include "zone/compiled_zone.hpp"
#include "zone/zone_builder.hpp"

namespace akadns {
namespace {

using zone::CompiledZone;
using zone::Zone;
using zone::ZoneBuilder;

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

// A zone with `hosts` A records; `serial` rotates the first `churn`
// addresses so consecutive serials differ in exactly `churn` records.
Zone make_zone(std::size_t hosts, std::uint32_t serial, std::size_t churn) {
  ZoneBuilder builder("bench.example", serial);
  builder.soa("ns1.bench.example", "hostmaster.bench.example", serial);
  builder.ns("@", "ns1.bench.example");
  builder.a("ns1", "10.0.0.1");
  for (std::size_t i = 0; i < hosts; ++i) {
    const std::uint32_t rotate = i < churn ? serial : 0;
    builder.a("h" + std::to_string(i), "10." + std::to_string((i >> 14) & 255) + "." +
                                           std::to_string((i >> 6) & 255) + "." +
                                           std::to_string((i + rotate) % 250 + 1));
  }
  return builder.build();
}

void compile_section() {
  bench::subheading("recompile cost: full vs incremental");
  std::printf("  %-10s %-8s %14s %14s %10s\n", "zone", "delta", "full (us)", "incr (us)",
              "speedup");

  for (const std::size_t hosts : {1'000ULL, 10'000ULL, 50'000ULL}) {
    for (const std::size_t churn : {1ULL, 16ULL, 256ULL}) {
      const auto base = std::make_shared<const Zone>(make_zone(hosts, 1, churn));
      const auto next = std::make_shared<const Zone>(make_zone(hosts, 2, churn));
      const zone::ZoneDiff diff = zone::diff_zones(*base, *next);
      const auto compiled_base = CompiledZone::compile(base);

      constexpr int kReps = 5;
      double full_us = 0.0;
      double incr_us = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        const auto scratch = CompiledZone::compile(next);
        full_us += elapsed_us(t0);

        t0 = std::chrono::steady_clock::now();
        const auto incremental = CompiledZone::compile_incremental(*compiled_base, next, diff);
        incr_us += elapsed_us(t0);

        if (incremental->content_hash() != scratch->content_hash()) {
          std::printf("  !! incremental diverged from scratch at %zu/%zu\n", hosts, churn);
          return;
        }
      }
      full_us /= kReps;
      incr_us /= kReps;

      const std::string label =
          std::to_string(hosts) + " rr x " + std::to_string(churn) + " delta";
      std::printf("  %-10zu %-8zu %14.1f %14.1f %9.1fx\n", hosts, churn, full_us, incr_us,
                  full_us / incr_us);
      bench::print_row((label + ": full compile").c_str(), full_us, "us");
      bench::print_row((label + ": incremental").c_str(), incr_us, "us");
      bench::print_row((label + ": speedup").c_str(), full_us / incr_us, "x");
    }
  }
}

void publisher_section() {
  bench::subheading("publisher pipeline: diff + journal + incremental compile");
  MonotonicClock clock;

  for (const std::size_t hosts : {1'000ULL, 10'000ULL}) {
    propagation::ZonePublisher publisher(clock);
    auto seeded = publisher.publish(make_zone(hosts, 1, 16));
    if (!seeded.ok()) {
      std::printf("  !! seed publish failed: %s\n", seeded.error().c_str());
      return;
    }

    constexpr std::uint32_t kPublishes = 64;
    std::vector<Zone> versions;
    versions.reserve(kPublishes);
    for (std::uint32_t serial = 2; serial <= 1 + kPublishes; ++serial) {
      versions.push_back(make_zone(hosts, serial, 16));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (Zone& version : versions) {
      auto result = publisher.publish(std::move(version));
      if (!result.ok()) {
        std::printf("  !! publish failed: %s\n", result.error().c_str());
        return;
      }
    }
    const double per_publish_us = elapsed_us(t0) / kPublishes;

    const auto stats = publisher.stats();
    const std::string label = std::to_string(hosts) + " rr zone";
    bench::print_row((label + ": publish (diff+compile)").c_str(), per_publish_us, "us");
    bench::print_count_row((label + ": incremental publishes").c_str(), stats.incremental);
    bench::print_count_row((label + ": full publishes").c_str(), stats.full);
    bench::print_count_row((label + ": journal deltas retained").c_str(),
                           publisher.journal_stats().appended -
                               publisher.journal_stats().evicted);
  }
}

void visibility_section() {
  bench::subheading("publish -> subscriber-visible latency");
  MonotonicClock clock;

  propagation::ZonePublisher publisher(clock);
  if (!publisher.publish(make_zone(10'000, 1, 16)).ok()) return;

  zone::ZoneStore replica;
  propagation::ZoneSubscriber subscriber(replica);
  subscriber.attach(publisher);

  constexpr std::uint32_t kPublishes = 32;
  for (std::uint32_t serial = 2; serial <= 1 + kPublishes; ++serial) {
    if (!publisher.publish(make_zone(10'000, serial, 16)).ok()) return;
    subscriber.poll(clock.now());
  }

  const auto& stats = subscriber.stats();
  bench::print_row("adopt (in-process): last latency",
                   static_cast<double>(stats.last_latency_ns) / 1e3, "us");
  bench::print_row("adopt (in-process): max latency",
                   static_cast<double>(stats.max_latency_ns) / 1e3, "us");
  bench::print_count_row("adopt (in-process): updates applied", stats.updates);
}

std::size_t rss_bytes() {
  std::size_t pages = 0;
  std::size_t resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%zu %zu", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// Bytes in use in malloc's arenas. Blocks it serves straight from mmap
// (128 KB and up, here only a few large vectors) are not counted.
std::size_t heap_bytes() { return mallinfo2().uordblks; }

// Where the heap of a hosted zone goes. The total is the heap the whole
// HostedZones build keeps; the Zone part is what one more shared copy of
// every published snapshot costs, and the CompiledZone part what
// compiling every snapshot once more costs (the copies and compiles are
// kept alive while measured). The rest — the store's apex map, the
// workload's name lists — is the difference.
void heap_split_section() {
  bench::subheading("heap per hosted zone: HostedZones{5000}, seed 1");
  constexpr std::size_t kZones = 5000;
  const std::size_t h0 = heap_bytes();
  workload::HostedZonesConfig config;
  config.zone_count = kZones;
  const auto zones = std::make_unique<workload::HostedZones>(config, 1);
  const std::size_t total = heap_bytes() - h0;

  std::vector<zone::ZonePtr> sources;
  for (const dns::DnsName& apex : zones->store().zone_apexes()) {
    sources.push_back(zones->store().find_zone(apex));
  }
  std::vector<zone::ZonePtr> copies;
  copies.reserve(sources.size());
  std::vector<zone::CompiledZonePtr> compiled;
  compiled.reserve(sources.size());

  const std::size_t h1 = heap_bytes();
  for (const zone::ZonePtr& z : sources) copies.push_back(std::make_shared<const Zone>(*z));
  const std::size_t h2 = heap_bytes();
  std::size_t nodes = 0;
  for (const zone::ZonePtr& z : sources) {
    compiled.push_back(CompiledZone::compile(z));
    nodes += compiled.back()->node_count();
  }
  const std::size_t h3 = heap_bytes();

  const auto per_zone_kb = [](std::size_t bytes) {
    return static_cast<double>(bytes) / kZones / 1000.0;
  };
  const std::size_t zone_part = h2 - h1;
  const std::size_t compiled_part = h3 - h2;
  const std::size_t parts = zone_part + compiled_part;
  const std::size_t rest = total > parts ? total - parts : 0;
  bench::print_row("heap per hosted zone", per_zone_kb(total), "KB");
  bench::print_row("  interpreted Zone", per_zone_kb(zone_part), "KB");
  bench::print_row("  CompiledZone", per_zone_kb(compiled_part), "KB");
  bench::print_row("  rest (apex map, workload names)", per_zone_kb(rest), "KB");
  bench::print_row("CompiledZone heap per node",
                   static_cast<double>(compiled_part) / static_cast<double>(nodes), "B");
  bench::print_row("compiled nodes per zone", static_cast<double>(nodes) / kZones, "");
}

// A 5-record zone: SOA, NS and three A records.
zone::ZonePtr small_zone(const std::string& apex, std::uint32_t serial) {
  return std::make_shared<const Zone>(ZoneBuilder(apex, serial)
                                          .ns("@", "ns1." + apex)
                                          .a("ns1", "10.0.0.1")
                                          .a("www", "10.0.1." + std::to_string(serial % 250 + 1))
                                          .a("mail", "10.0.2.1")
                                          .build());
}

// Returns false when a lookup resolves to the wrong apex.
bool apex_sweep_section() {
  bench::subheading("apex-count sweep: build, seed a replica, republish one apex");
  std::printf("  %-8s %10s %11s %15s %12s %13s %14s\n", "apexes", "build (s)", "adopt (ms)",
              "republish (us)", "lookup (ns)", "RSS/apex (B)", "heap/apex (B)");
  constexpr std::size_t kRepublishes = 64;
  constexpr std::size_t kLookups = 200'000;

  for (const std::size_t n : {1'000ULL, 10'000ULL, 100'000ULL}) {
    malloc_trim(0);  // earlier rows' freed memory must not hide this row's growth
    const std::size_t rss_before = rss_bytes();
    const std::size_t heap_before = heap_bytes();
    std::vector<zone::ZonePtr> zones;
    zones.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      zones.push_back(small_zone("a" + std::to_string(i) + ".example", 1));
    }

    zone::ZoneStore store;
    auto t0 = std::chrono::steady_clock::now();
    for (const zone::ZonePtr& z : zones) store.publish(z);
    const double build_s = elapsed_us(t0) / 1e6;
    const std::size_t rss_after = rss_bytes();
    const double rss_per_apex =
        rss_after > rss_before ? static_cast<double>(rss_after - rss_before) / n : 0.0;
    const std::size_t heap_after = heap_bytes();
    const double heap_per_apex =
        heap_after > heap_before ? static_cast<double>(heap_after - heap_before) / n : 0.0;

    zone::ZoneStore replica;
    t0 = std::chrono::steady_clock::now();
    replica.adopt(store);
    const double adopt_ms = elapsed_us(t0) / 1e3;

    std::vector<zone::ZonePtr> next;
    for (std::size_t k = 0; k < kRepublishes; ++k) {
      next.push_back(small_zone(zones[k * n / kRepublishes]->apex().to_string(), 2));
    }
    t0 = std::chrono::steady_clock::now();
    for (const zone::ZonePtr& z : next) store.publish(z);
    const double republish_us = elapsed_us(t0) / kRepublishes;

    std::size_t mismatches = 0;
    for (const zone::ZonePtr& z : zones) {
      const dns::DnsName www = *dns::DnsName::from("www").concat(z->apex());
      for (const zone::ZoneStore* s : {&store, &replica}) {
        const zone::CompiledZonePtr best = s->find_best_compiled(www);
        if (!best || best->apex() != z->apex()) ++mismatches;
      }
    }

    // Cold names over the whole store; one in five lies outside every zone.
    Rng rng(n);
    std::vector<dns::DnsName> queries;
    std::size_t inside = 0;
    queries.reserve(kLookups);
    for (std::size_t q = 0; q < kLookups; ++q) {
      const std::string apex = "a" + std::to_string(rng.next_below(n));
      const bool outside = rng.next_bool(0.2);
      inside += outside ? 0 : 1;
      queries.push_back(dns::DnsName::from("www." + apex + (outside ? ".invalid" : ".example")));
    }
    std::size_t hits = 0;
    t0 = std::chrono::steady_clock::now();
    for (const dns::DnsName& q : queries) hits += store.find_best_compiled(q) != nullptr;
    const double lookup_ns = elapsed_us(t0) * 1e3 / kLookups;
    if (hits != inside) ++mismatches;  // the timed pass must hit exactly the inside names

    std::printf("  %-8zu %10.3f %11.2f %15.1f %12.1f %13.0f %14.0f\n", n, build_s, adopt_ms,
                republish_us, lookup_ns, rss_per_apex, heap_per_apex);
    const std::string label = std::to_string(n) + " apexes: ";
    bench::print_row((label + "build, one publish each").c_str(), build_s, "s");
    bench::print_row((label + "seed a replica (adopt)").c_str(), adopt_ms, "ms");
    bench::print_row((label + "republish one apex").c_str(), republish_us, "us");
    bench::print_row((label + "find_best_compiled").c_str(), lookup_ns, "ns");
    bench::print_row((label + "RSS per apex").c_str(), rss_per_apex, "B");
    bench::print_row((label + "heap per apex").c_str(), heap_per_apex, "B");
    bench::print_count_row((label + "lookup mismatches").c_str(), mismatches);
    if (mismatches != 0) {
      std::printf("  !! %zu lookups resolved to the wrong apex at %zu apexes\n", mismatches, n);
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace akadns

int main() {
  akadns::bench::heading("Zone propagation: incremental recompile and fan-out",
                         "§3.2 zone updates; live reload under load");
  akadns::compile_section();
  akadns::publisher_section();
  akadns::visibility_section();
  akadns::heap_split_section();
  const bool sweep_ok = akadns::apex_sweep_section();
  std::printf("\n");
  return sweep_ok ? 0 : 1;
}
