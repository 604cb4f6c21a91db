// Protocol hot-path microbenchmarks (google-benchmark): wire encode /
// decode, zone lookup, filter scoring, and the full receive-to-respond
// datapath — the per-query costs behind the platform's "millions of
// queries each second" scaling story.
//
// The datapath section also reports heap allocations per query, counted
// through a global operator new hook; test_alloc pins that count.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dns/wire.hpp"
#include "filters/rate_limit_filter.hpp"
#include "server/nameserver.hpp"
#include "zone/zone_builder.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

}  // namespace

// The replaced operators pair new->malloc with delete->free; GCC cannot
// see the pairing across the replacement boundary.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace akadns;

zone::Zone big_zone() {
  zone::ZoneBuilder builder("bench.example", 1);
  builder.soa("ns1.bench.example", "hostmaster.bench.example", 1);
  builder.ns("@", "ns1.bench.example");
  builder.a("ns1", "10.0.0.1");
  for (int i = 0; i < 500; ++i) {
    builder.a("host" + std::to_string(i), "192.0.2.1");
  }
  builder.a("*.apps", "192.0.2.200");
  return builder.build();
}

const zone::ZoneStore& store() {
  static const zone::ZoneStore instance = [] {
    zone::ZoneStore s;
    s.publish(big_zone());
    return s;
  }();
  return instance;
}

void BM_WireEncodeQuery(benchmark::State& state) {
  const auto query =
      dns::make_query(1, dns::DnsName::from("host42.bench.example"), dns::RecordType::A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(query));
  }
}
BENCHMARK(BM_WireEncodeQuery);

void BM_WireDecodeQuery(benchmark::State& state) {
  const auto wire = dns::encode(
      dns::make_query(1, dns::DnsName::from("host42.bench.example"), dns::RecordType::A));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_WireDecodeQuery);

void BM_WireDecodeQuestionFastPath(benchmark::State& state) {
  const auto wire = dns::encode(
      dns::make_query(1, dns::DnsName::from("host42.bench.example"), dns::RecordType::A));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode_question(wire));
  }
}
BENCHMARK(BM_WireDecodeQuestionFastPath);

void BM_ZoneLookupHit(benchmark::State& state) {
  const auto zone = store().find_zone(dns::DnsName::from("bench.example"));
  const auto qname = dns::DnsName::from("host123.bench.example");
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone->lookup(qname, dns::RecordType::A));
  }
}
BENCHMARK(BM_ZoneLookupHit);

void BM_ZoneLookupNxDomain(benchmark::State& state) {
  const auto zone = store().find_zone(dns::DnsName::from("bench.example"));
  const auto qname = dns::DnsName::from("a3n92nv9.bench.example");
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone->lookup(qname, dns::RecordType::A));
  }
}
BENCHMARK(BM_ZoneLookupNxDomain);

void BM_ZoneLookupWildcard(benchmark::State& state) {
  const auto zone = store().find_zone(dns::DnsName::from("bench.example"));
  const auto qname = dns::DnsName::from("anything.apps.bench.example");
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone->lookup(qname, dns::RecordType::A));
  }
}
BENCHMARK(BM_ZoneLookupWildcard);

// ---- compiled snapshots: zone lookup + response build ---------------------
//
// The compiled-vs-interpreted split this section measures is the PR's
// core claim: publish-time compilation (flat suffix-hashed node table,
// precoded wire fragments, answer cache) must beat the per-query
// interpreted walk on both time and heap allocations — target zero
// allocations steady-state for cached static answers.

void BM_CompiledZoneLookupHit(benchmark::State& state) {
  const auto compiled = store().find_compiled(dns::DnsName::from("bench.example"));
  const auto qname = dns::DnsName::from("host123.bench.example");
  const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->lookup(qname, dns::RecordType::A));
  }
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_query"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CompiledZoneLookupHit);

void BM_CompiledZoneLookupNxDomain(benchmark::State& state) {
  const auto compiled = store().find_compiled(dns::DnsName::from("bench.example"));
  const auto qname = dns::DnsName::from("a3n92nv9.bench.example");
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->lookup(qname, dns::RecordType::A));
  }
}
BENCHMARK(BM_CompiledZoneLookupNxDomain);

void BM_CompiledZoneLookupWildcard(benchmark::State& state) {
  const auto compiled = store().find_compiled(dns::DnsName::from("bench.example"));
  const auto qname = dns::DnsName::from("anything.apps.bench.example");
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->lookup(qname, dns::RecordType::A));
  }
}
BENCHMARK(BM_CompiledZoneLookupWildcard);

// The REFUSED flood path: longest-suffix zone matching for a name in no
// hosted zone. The interpreted finder materializes suffix DnsNames; the
// hashed apex index must answer without touching the heap.
void BM_FindBestZoneMissInterpreted(benchmark::State& state) {
  const auto qname = dns::DnsName::from("www.random-attack-name.example");
  const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store().find_best_zone(qname));
  }
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_query"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FindBestZoneMissInterpreted);

void BM_FindBestZoneMissCompiled(benchmark::State& state) {
  const auto qname = dns::DnsName::from("www.random-attack-name.example");
  const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store().find_best_compiled(qname));
  }
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_query"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FindBestZoneMissCompiled);

// Full response build, wire in -> wire out, with the three responder
// configurations: interpreted reference, fragment stitching (cache off),
// and the answer cache replay path.
void bench_response_build(benchmark::State& state, server::ResponderConfig config) {
  server::Responder responder(store(), config);
  const auto wire = dns::encode(
      dns::make_query(7, dns::DnsName::from("host7.bench.example"), dns::RecordType::A));
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  std::vector<std::uint8_t> out;
  // The view is decoded once, as in the pipeline (receive-time decode into
  // a pooled QueryContext); this isolates resolution + encoding.
  auto view = dns::decode_query_view(wire);
  // Warm: first answer populates the cache and sizes the scratch buffers.
  responder.respond_view_into(wire, view.value(), src, SimTime(), out);
  const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    responder.respond_view_into(wire, view.value(), src, SimTime(), out);
    benchmark::DoNotOptimize(out.data());
  }
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_query"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}

void BM_ResponseBuildInterpreted(benchmark::State& state) {
  bench_response_build(state, {.enable_compiled_path = false});
}
BENCHMARK(BM_ResponseBuildInterpreted);

void BM_ResponseBuildCompiled(benchmark::State& state) {
  bench_response_build(state, {.enable_compiled_path = true, .enable_answer_cache = false});
}
BENCHMARK(BM_ResponseBuildCompiled);

void BM_ResponseBuildCached(benchmark::State& state) {
  bench_response_build(state, {.enable_compiled_path = true, .enable_answer_cache = true});
}
BENCHMARK(BM_ResponseBuildCached);

void BM_RateLimitFilterScore(benchmark::State& state) {
  filters::RateLimitFilter filter;
  const dns::Question question{dns::DnsName::from("host1.bench.example"), dns::RecordType::A,
                               dns::RecordClass::IN};
  filters::QueryContext ctx{Endpoint{*IpAddr::parse("198.51.100.1"), 5353}, 64, question,
                            SimTime()};
  std::int64_t ns = 0;
  for (auto _ : state) {
    ctx.now = SimTime::from_nanos(ns += 1'000'000);
    benchmark::DoNotOptimize(filter.score(ctx));
  }
}
BENCHMARK(BM_RateLimitFilterScore);

// ---- receive -> respond datapath ------------------------------------------
//
// Pushes one clean query at a time through a full
// admit/score/queue/resolve/respond cycle and reports queries/sec plus
// heap allocations per query.

void BM_FullDatapathReceiveProcess(benchmark::State& state) {
  server::Nameserver nameserver({.compute_capacity_qps = 1e12, .io_capacity_qps = 1e12},
                                store());
  std::uint64_t responses = 0;
  nameserver.set_response_span_sink(
      [&](const Endpoint&, std::span<const std::uint8_t>) { ++responses; });
  const auto wire = dns::encode(
      dns::make_query(7, dns::DnsName::from("host7.bench.example"), dns::RecordType::A));
  const Endpoint src{*IpAddr::parse("198.51.100.1"), 5353};
  std::int64_t ns = 0;
  // Warm the buffer pool and the token buckets before counting.
  for (int i = 0; i < 64; ++i) {
    const auto now = SimTime::from_nanos(ns += 1'000'000);
    nameserver.receive(wire, src, 57, now);
    nameserver.process(now);
  }
  const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const auto now = SimTime::from_nanos(ns += 1'000'000);
    nameserver.receive(wire, src, 57, now);
    nameserver.process(now);
  }
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(responses);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_query"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullDatapathReceiveProcess);

}  // namespace

BENCHMARK_MAIN();
