// Answer-cache correctness: TTL expiry against simulated time, per-zone
// staleness on a republish (only the answers that read the republished
// apex are refused, a CNAME chain's every zone counts), whole-cache
// invalidation when an apex is added or removed, the mapping-hook bypass
// (dynamic answers can never be served stale), REFUSED never cached,
// bounded FIFO eviction, transaction-id patching, and exact stat parity
// between hits and misses.

#include "server/answer_cache.hpp"

#include <gtest/gtest.h>

#include "dns/wire.hpp"
#include "server/responder.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::server {
namespace {

using dns::DnsName;
using dns::Rcode;
using dns::RecordType;

zone::Zone example_zone(std::uint32_t serial, const char* www_addr = "93.184.216.34") {
  return zone::ZoneBuilder("example.com", serial)
      .soa("ns1.example.com", "hostmaster.example.com", serial, 3600, 300)
      .ns("@", "ns1.example.com")
      .a("ns1", "10.0.0.1")
      .a("www", www_addr)            // ttl 300
      .a("api", "10.1.1.1", 5)       // short ttl: expiry tests
      .cname("alias", "www.example.com")
      .a("*.wild", "10.9.9.9")
      .build();
}

struct Fixture {
  zone::ZoneStore store;
  Endpoint client{*IpAddr::parse("198.51.100.1"), 4242};

  explicit Fixture() { store.publish(example_zone(1)); }

  static std::vector<std::uint8_t> query_wire(const char* qname, RecordType qtype,
                                              std::uint16_t id = 42) {
    return dns::encode(dns::make_query(id, DnsName::from(qname), qtype));
  }

  std::vector<std::uint8_t> ask(Responder& responder, const char* qname, RecordType qtype,
                                SimTime now = SimTime::origin(), std::uint16_t id = 42) {
    const auto response = responder.respond_wire(query_wire(qname, qtype, id), client, now);
    EXPECT_TRUE(response.has_value());
    return response.value_or(std::vector<std::uint8_t>{});
  }
};

TEST(AnswerCache, HitReplaysIdenticalBytes) {
  Fixture f;
  Responder responder(f.store);
  const auto t0 = SimTime::origin();
  const auto first = f.ask(responder, "www.example.com", RecordType::A, t0);
  const auto second = f.ask(responder, "www.example.com", RecordType::A,
                            t0 + Duration::seconds(1));
  EXPECT_EQ(first, second);
  EXPECT_EQ(responder.answer_cache().stats().misses, 1u);
  EXPECT_EQ(responder.answer_cache().stats().insertions, 1u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  EXPECT_EQ(responder.stats().compiled_answers, 1u);
  EXPECT_EQ(responder.stats().cache_hits, 1u);
  EXPECT_EQ(responder.stats().noerror, 2u);
}

TEST(AnswerCache, HitPatchesTransactionId) {
  Fixture f;
  Responder responder(f.store);
  const auto first = f.ask(responder, "www.example.com", RecordType::A, SimTime::origin(), 0x1111);
  const auto second = f.ask(responder, "www.example.com", RecordType::A, SimTime::origin(), 0x2222);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  ASSERT_GE(second.size(), 2u);
  EXPECT_EQ(second[0], 0x22);
  EXPECT_EQ(second[1], 0x22);
  // Only the id differs.
  auto normalized = second;
  normalized[0] = first[0];
  normalized[1] = first[1];
  EXPECT_EQ(normalized, first);
}

TEST(AnswerCache, EntriesExpireWithRecordTtl) {
  Fixture f;
  Responder responder(f.store);
  const auto t0 = SimTime::origin();
  f.ask(responder, "api.example.com", RecordType::A, t0);  // ttl 5s
  f.ask(responder, "api.example.com", RecordType::A, t0 + Duration::seconds(4));
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  f.ask(responder, "api.example.com", RecordType::A, t0 + Duration::seconds(6));
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  EXPECT_EQ(responder.answer_cache().stats().expired, 1u);
  EXPECT_EQ(responder.answer_cache().stats().misses, 2u);
  EXPECT_EQ(responder.answer_cache().stats().insertions, 2u);
}

TEST(AnswerCache, NegativeAnswersCachedForNegativeTtl) {
  Fixture f;
  Responder responder(f.store);
  const auto t0 = SimTime::origin();
  const auto first = f.ask(responder, "missing.example.com", RecordType::A, t0);
  const auto second = f.ask(responder, "missing.example.com", RecordType::A,
                            t0 + Duration::seconds(1));
  EXPECT_EQ(first, second);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  EXPECT_EQ(responder.stats().nxdomain, 2u);
  // Past the SOA minimum (300s) the entry is gone.
  f.ask(responder, "missing.example.com", RecordType::A, t0 + Duration::seconds(301));
  EXPECT_EQ(responder.answer_cache().stats().expired, 1u);
}

TEST(AnswerCache, PublishInvalidatesAndServesNewData) {
  Fixture f;
  Responder responder(f.store);
  const auto stale = f.ask(responder, "www.example.com", RecordType::A);
  EXPECT_EQ(responder.answer_cache().stats().insertions, 1u);

  ASSERT_TRUE(f.store.publish(example_zone(2, "203.0.113.99")));
  const auto fresh = f.ask(responder, "www.example.com", RecordType::A,
                           SimTime::origin() + Duration::seconds(1));
  EXPECT_NE(stale, fresh);  // new rdata, not the cached bytes
  EXPECT_EQ(responder.answer_cache().stats().stale, 1u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);

  const auto decoded = dns::decode(fresh);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().answers[0].to_string(),
            "www.example.com. 300 IN A 203.0.113.99");
}

TEST(AnswerCache, RemoveInvalidatesViaGeneration) {
  Fixture f;
  f.store.publish(zone::ZoneBuilder("other.net", 1).ns("@", "ns1.other.net").build());
  Responder responder(f.store);
  f.ask(responder, "www.example.com", RecordType::A);
  ASSERT_TRUE(f.store.remove(DnsName::from("other.net")));
  f.ask(responder, "www.example.com", RecordType::A, SimTime::origin() + Duration::seconds(1));
  // Conservative whole-cache clear even though example.com did not change.
  EXPECT_EQ(responder.answer_cache().stats().invalidations, 1u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);
}

zone::Zone other_zone(std::uint32_t serial) {
  return zone::ZoneBuilder("other.net", serial)
      .soa("ns1.other.net", "hostmaster.other.net", serial, 3600, 300)
      .ns("@", "ns1.other.net")
      .a("ns1", "10.0.0.2")
      .a("www", "198.51.100.7")
      .cname("to-example", "www.example.com")
      .build();
}

TEST(AnswerCache, RepublishingOneApexKeepsAnotherApexsEntries) {
  Fixture f;
  ASSERT_TRUE(f.store.publish(other_zone(1)));
  Responder responder(f.store);
  const auto t1 = SimTime::origin() + Duration::seconds(1);
  f.ask(responder, "www.example.com", RecordType::A);
  const auto other_before = f.ask(responder, "www.other.net", RecordType::A);

  ASSERT_TRUE(f.store.publish(example_zone(2, "203.0.113.99")));
  const auto other_after = f.ask(responder, "www.other.net", RecordType::A, t1);
  EXPECT_EQ(other_before, other_after);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u) << "other.net's entry was refused";
  f.ask(responder, "www.example.com", RecordType::A, t1);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  EXPECT_EQ(responder.answer_cache().stats().stale, 1u);
  EXPECT_EQ(responder.answer_cache().stats().invalidations, 0u);
}

TEST(AnswerCache, CnameIntoAnotherZoneIsStaleOnceItsTargetZoneIsRepublished) {
  Fixture f;
  ASSERT_TRUE(f.store.publish(other_zone(1)));
  Responder responder(f.store);
  const auto t1 = SimTime::origin() + Duration::seconds(1);
  const auto t2 = SimTime::origin() + Duration::seconds(2);
  // other.net's CNAME leads into example.com: the answer read both zones.
  const auto before = f.ask(responder, "to-example.other.net", RecordType::A);
  f.ask(responder, "to-example.other.net", RecordType::A, t1);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);

  ASSERT_TRUE(f.store.publish(example_zone(2, "203.0.113.99")));
  const auto after = f.ask(responder, "to-example.other.net", RecordType::A, t2);
  EXPECT_NE(before, after);
  EXPECT_EQ(responder.answer_cache().stats().hits, 1u);
  EXPECT_EQ(responder.answer_cache().stats().stale, 1u);
  EXPECT_EQ(responder.stats().cname_chases, 3u);

  const auto decoded = dns::decode(after);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded.value().answers.size(), 2u);
  EXPECT_EQ(decoded.value().answers[1].to_string(),
            "www.example.com. 300 IN A 203.0.113.99");
}

TEST(AnswerCache, NxdomainIsRefusedOnceADeeperApexIsAdded) {
  Fixture f;
  Responder responder(f.store);
  const auto t1 = SimTime::origin() + Duration::seconds(1);
  const auto nx = f.ask(responder, "www.sub.example.com", RecordType::A);
  ASSERT_EQ(dns::decode(nx).value().header.rcode, Rcode::NxDomain);

  ASSERT_TRUE(f.store.publish(zone::ZoneBuilder("sub.example.com", 1)
                                  .soa("ns1.sub.example.com", "hostmaster.sub.example.com", 1)
                                  .ns("@", "ns1.sub.example.com")
                                  .a("ns1", "10.0.0.3")
                                  .a("www", "10.3.3.3")
                                  .build()));
  const auto answer = f.ask(responder, "www.sub.example.com", RecordType::A, t1);
  const auto decoded = dns::decode(answer);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded.value().header.rcode, Rcode::NoError);
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().answers[0].to_string(), "www.sub.example.com. 300 IN A 10.3.3.3");
  EXPECT_EQ(responder.answer_cache().stats().invalidations, 1u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);
}

TEST(AnswerCache, SteadyStateNeverInvalidates) {
  Fixture f;
  Responder responder(f.store);
  for (int i = 0; i < 10; ++i) {
    f.ask(responder, "www.example.com", RecordType::A, SimTime::origin() + Duration::seconds(i));
  }
  EXPECT_EQ(responder.answer_cache().stats().invalidations, 0u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 9u);
}

TEST(AnswerCache, MappedAnswersBypassTheCache) {
  Fixture f;
  Responder responder(f.store);
  int calls = 0;
  responder.set_mapping_hook([&calls](const dns::Question&, const Endpoint&,
                                      const std::optional<dns::ClientSubnet>&)
                                 -> std::optional<MappedAnswer> {
    ++calls;
    // A different answer every call — the load-balancing decision moves.
    return MappedAnswer{{dns::make_a(DnsName::from("www.example.com"),
                                     Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(calls)), 30)},
                        0};
  });
  const auto first = f.ask(responder, "www.example.com", RecordType::A);
  const auto second = f.ask(responder, "www.example.com", RecordType::A);
  EXPECT_EQ(calls, 2);
  EXPECT_NE(first, second);  // second decision served, never the cached first
  EXPECT_EQ(responder.stats().mapped_answers, 2u);
  EXPECT_EQ(responder.answer_cache().stats().insertions, 0u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);
}

TEST(AnswerCache, RefusedIsNeverCached) {
  Fixture f;
  Responder responder(f.store);
  f.ask(responder, "www.unhosted.org", RecordType::A);
  f.ask(responder, "www.unhosted.org", RecordType::A);
  EXPECT_EQ(responder.stats().refused, 2u);
  EXPECT_EQ(responder.answer_cache().stats().insertions, 0u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);
}

TEST(AnswerCache, FifoEvictionBoundsEntries) {
  Fixture f;
  Responder responder(f.store, {.answer_cache_entries = 2});
  f.ask(responder, "www.example.com", RecordType::A);
  f.ask(responder, "api.example.com", RecordType::A);
  f.ask(responder, "alias.example.com", RecordType::A);
  EXPECT_LE(responder.answer_cache().size(), 2u);
  EXPECT_EQ(responder.answer_cache().stats().evictions, 1u);
  // The oldest entry (www) was the victim: re-asking misses.
  f.ask(responder, "www.example.com", RecordType::A, SimTime::origin() + Duration::seconds(1));
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);
}

TEST(AnswerCache, EdnsSignatureSplitsKeys) {
  Fixture f;
  Responder responder(f.store);
  auto plain = dns::make_query(7, DnsName::from("www.example.com"), RecordType::A);
  auto edns = plain;
  edns.edns.emplace();
  edns.edns->udp_payload_size = 4096;
  auto ecs = edns;
  ecs.edns->client_subnet = dns::ClientSubnet{*IpAddr::parse("203.0.113.0"), 24, 0};
  for (const auto* q : {&plain, &edns, &ecs}) {
    responder.respond_wire(dns::encode(*q), f.client);
  }
  // Three distinct keys: no cross-signature hit could have happened.
  EXPECT_EQ(responder.answer_cache().stats().insertions, 3u);
  EXPECT_EQ(responder.answer_cache().stats().hits, 0u);
  EXPECT_EQ(responder.answer_cache().size(), 3u);
}

// Delta replay keeps every derived counter identical between a cached and
// an uncached responder fed the same query stream twice.
TEST(AnswerCache, HitsPreserveStatParity) {
  Fixture f;
  Responder with_cache(f.store);
  Responder without_cache(f.store, {.enable_answer_cache = false});
  const char* stream[] = {"www.example.com", "alias.example.com", "x.wild.example.com",
                          "missing.example.com", "www.example.com"};
  for (int round = 0; round < 2; ++round) {
    for (const char* qname : stream) {
      f.ask(with_cache, qname, RecordType::A, SimTime::origin() + Duration::seconds(round));
      f.ask(without_cache, qname, RecordType::A, SimTime::origin() + Duration::seconds(round));
    }
  }
  EXPECT_GT(with_cache.answer_cache().stats().hits, 0u);
  const auto& a = with_cache.stats();
  const auto& b = without_cache.stats();
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.noerror, b.noerror);
  EXPECT_EQ(a.nxdomain, b.nxdomain);
  EXPECT_EQ(a.nodata, b.nodata);
  EXPECT_EQ(a.wildcard_answers, b.wildcard_answers);
  EXPECT_EQ(a.cname_chases, b.cname_chases);
  EXPECT_EQ(a.cache_hits + a.compiled_answers, b.compiled_answers);
}

}  // namespace
}  // namespace akadns::server
