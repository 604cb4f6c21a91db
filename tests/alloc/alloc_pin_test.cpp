// Heap-allocation pins. This binary replaces the global operator new and
// delete with counting versions, which is why the pins live apart from
// the module tests: the counters see every allocation in the process.
//
// - Decoding a query with a short name touches the heap zero times: the
//   qname's labels land in the name's inline buffer.
// - A compiled node holding one A record costs a fixed number of heap
//   blocks: the shared node, its type ranges, its fragment vector, and
//   the fragment's rdata ops and literal bytes (no per-node name arena).
// - A clean query through the sim nameserver's receive/process cycle
//   allocates nothing once warm: the penalty queue is a ring whose slots
//   are reused.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include "dns/wire.hpp"
#include "server/nameserver.hpp"
#include "zone/compiled_zone.hpp"
#include "zone/zone_builder.hpp"

namespace {

// The tests are single-threaded; gtest allocates only between them.
std::size_t g_allocations = 0;     // operator new calls
std::ptrdiff_t g_live_blocks = 0;  // blocks allocated and not yet freed

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  ++g_live_blocks;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  --g_live_blocks;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace akadns {
namespace {

TEST(AllocationPins, DecodingAThreeLabelQueryAllocatesNothing) {
  const auto wire =
      dns::encode(dns::make_query(7, dns::DnsName::from("www.example.com"), dns::RecordType::A));
  const std::size_t before = g_allocations;
  const auto view = dns::decode_query_view(wire);
  const std::size_t allocations = g_allocations - before;
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().question.name, dns::DnsName::from("www.example.com"));
  EXPECT_EQ(allocations, 0u);
}

// Heap blocks a compiled snapshot keeps alive: the zone is built first,
// so only the compile's own storage is counted.
std::ptrdiff_t blocks_held_by_compile(const zone::ZonePtr& source, zone::CompiledZonePtr& out) {
  const std::ptrdiff_t before = g_live_blocks;
  out = zone::CompiledZone::compile(source);
  return g_live_blocks - before;
}

TEST(AllocationPins, CompiledSingleARecordNodeHeapBlocks) {
  const auto base = [] {
    return zone::ZoneBuilder("example.test", 1)
        .soa("ns1.example.test", "hostmaster.example.test", 1)
        .ns("@", "ns1.example.test")
        .a("ns1", "192.0.2.53");
  };
  const auto without = std::make_shared<const zone::Zone>(base().build());
  const auto with = std::make_shared<const zone::Zone>(base().a("www", "192.0.2.1").build());
  zone::CompiledZonePtr compiled_without;
  zone::CompiledZonePtr compiled_with;
  const std::ptrdiff_t blocks_without = blocks_held_by_compile(without, compiled_without);
  const std::ptrdiff_t blocks_with = blocks_held_by_compile(with, compiled_with);
  ASSERT_EQ(compiled_with->node_count(), compiled_without->node_count() + 1);
  // The node table and hash index are sized exactly, so one more node
  // adds no block there: the difference is the www node alone. It was 8
  // while every node carried a std::deque name arena (2 blocks even
  // empty) and its owner name a heap vector of labels.
  EXPECT_LE(blocks_with - blocks_without, 5);
}

TEST(AllocationPins, CleanSimQueryAllocatesNothing) {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("example.test", 1)
                    .soa("ns1.example.test", "hostmaster.example.test", 1)
                    .ns("@", "ns1.example.test")
                    .a("ns1", "192.0.2.53")
                    .a("www", "192.0.2.1")
                    .build());
  server::Nameserver nameserver({.compute_capacity_qps = 1e12, .io_capacity_qps = 1e12},
                                store);
  std::size_t responses = 0;
  nameserver.set_response_span_sink(
      [&](const Endpoint&, std::span<const std::uint8_t>) { ++responses; });
  const auto wire =
      dns::encode(dns::make_query(7, dns::DnsName::from("www.example.test"), dns::RecordType::A));
  const Endpoint source{*IpAddr::parse("198.51.100.1"), 5353};
  std::int64_t ns = 0;
  const auto one_query = [&] {
    const auto now = SimTime::from_nanos(ns += 1'000'000);
    nameserver.receive(wire, source, 57, now);
    nameserver.process(now);
  };
  // Warm the buffer pool, the token buckets, the answer cache and the
  // penalty queue's ring.
  for (int i = 0; i < 64; ++i) one_query();
  const std::size_t before = g_allocations;
  for (int i = 0; i < 2'000; ++i) one_query();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(responses, 2'064u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace akadns
