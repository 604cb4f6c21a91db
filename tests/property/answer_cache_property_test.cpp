// Differential property suite for the answer cache's invalidation rules:
// two responders share one zone store, one with the answer cache and one
// without, and every answer must be byte-identical. Random republishes,
// adds and removes of three apexes — example.test, the nested
// sub.example.test and other.test — are interleaved with lookups of
// cross-zone CNAME chains (up to three zones), wildcards, NXDOMAIN,
// NODATA and referrals, so a cached answer that outlives a change to any
// zone it read, or to which zone answers a name, shows up as a diff.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dns/wire.hpp"
#include "server/responder.hpp"
#include "zone/zone_builder.hpp"
#include "zone/zone_store.hpp"

namespace akadns::server {
namespace {

using dns::DnsName;
using dns::RecordType;

std::string addr(std::uint32_t serial, int host) {
  return "10." + std::to_string(host) + "." + std::to_string(serial / 250 % 250) + "." +
         std::to_string(serial % 250);
}

// Each version moves rdata and TTLs, and odd serials hold records even
// ones lack, so a republish changes answers, NXDOMAINs and NODATAs alike.
zone::Zone example_test(std::uint32_t serial) {
  const auto ttl = 30 + serial % 5 * 20;
  zone::ZoneBuilder b("example.test", serial);
  b.soa("ns1.example.test", "hostmaster.example.test", serial, 3600, ttl)
      .ns("@", "ns1.example.test")
      .a("ns1", "10.0.0.1")
      .a("www", addr(serial, 1), ttl)
      .a("*.wild", addr(serial, 2), ttl)
      .cname("alias", "www.sub.example.test", ttl)  // into the child apex
      .cname("chain", "alias.example.test", ttl)
      .cname("to-other", "www.other.test", ttl)
      .txt("txtonly", "v=" + std::to_string(serial), ttl)
      // The child is delegated here: while sub.example.test is not hosted
      // its names get this referral; once it is, the child answers.
      .ns("sub", "ns1.sub.example.test")
      .a("ns1.sub", "10.0.0.9")
      .ns("deleg", "ns.elsewhere.test");
  if (serial % 2 == 1) b.a("flip", addr(serial, 3), ttl);
  return b.build();
}

zone::Zone sub_example_test(std::uint32_t serial) {
  const auto ttl = 40 + serial % 4 * 25;
  zone::ZoneBuilder b("sub.example.test", serial);
  b.soa("ns1.sub.example.test", "hostmaster.sub.example.test", serial, 3600, ttl)
      .ns("@", "ns1.sub.example.test")
      .a("ns1", "10.0.0.9")
      .a("www", addr(serial, 4), ttl)
      .a("*.w", addr(serial, 5), ttl)
      .cname("back", "www.example.test", ttl)  // back into the parent
      .cname("far", "to-other.example.test", ttl);
  if (serial % 2 == 0) b.aaaa("www", "2001:db8::" + std::to_string(serial % 9999 + 1), ttl);
  return b.build();
}

zone::Zone other_test(std::uint32_t serial) {
  const auto ttl = 50 + serial % 3 * 30;
  zone::ZoneBuilder b("other.test", serial);
  b.soa("ns1.other.test", "hostmaster.other.test", serial, 3600, ttl)
      .ns("@", "ns1.other.test")
      .a("ns1", "10.0.0.2")
      .a("www", addr(serial, 6), ttl)
      .cname("to-sub", "www.sub.example.test", ttl)
      .cname("three", "chain.example.test", ttl);  // other -> example -> sub
  if (serial % 2 == 1) b.cname("loop", "loop.other.test", ttl);
  return b.build();
}

using Builder = zone::Zone (*)(std::uint32_t);

struct Apex {
  const char* name;
  Builder build;
};

constexpr Apex kApexes[] = {
    {"example.test", example_test},
    {"sub.example.test", sub_example_test},
    {"other.test", other_test},
};

const char* const kNames[] = {
    "www.example.test",      "x.wild.example.test", "a.b.wild.example.test",
    "alias.example.test",    "chain.example.test",  "to-other.example.test",
    "txtonly.example.test",  "flip.example.test",   "missing.example.test",
    "www.sub.example.test",  "q.w.sub.example.test", "back.sub.example.test",
    "far.sub.example.test",  "missing.sub.example.test", "sub.example.test",
    "x.deleg.example.test",  "example.test",        "www.other.test",
    "to-sub.other.test",     "three.other.test",    "loop.other.test",
    "nope.other.test",       "www.unhosted.test",
};

const RecordType kTypes[] = {RecordType::A,   RecordType::AAAA, RecordType::TXT,
                             RecordType::NS,  RecordType::SOA,  RecordType::CNAME,
                             RecordType::ANY};

class AnswerCacheDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnswerCacheDifferential, CachedAnswersEqualUncachedThroughRepublishAddAndRemove) {
  Rng rng(GetParam());
  zone::ZoneStore store;
  Responder cached(store);
  Responder uncached(store, {.enable_answer_cache = false});
  const Endpoint client{*IpAddr::parse("198.51.100.1"), 4242};

  std::map<std::string, std::uint32_t> serial;  // last serial published per apex
  const auto publish = [&](const Apex& apex) {
    ASSERT_TRUE(store.publish(apex.build(++serial[apex.name]))) << apex.name;
  };
  for (const Apex& apex : kApexes) publish(apex);

  SimTime now = SimTime::origin();
  std::uint16_t id = 0;
  for (int op = 0; op < 4000; ++op) {
    const auto dice = rng.next_below(100);
    const Apex& apex = kApexes[rng.next_below(std::size(kApexes))];
    const DnsName apex_name = DnsName::from(apex.name);
    if (dice < 12) {
      // Republish if hosted, add if not.
      publish(apex);
    } else if (dice < 16) {
      // Remove if hosted, else add.
      if (store.has_zone(apex_name)) {
        ASSERT_TRUE(store.remove(apex_name));
      } else {
        publish(apex);
      }
    } else {
      now += Duration::millis(static_cast<std::int64_t>(rng.next_below(4000)));
      const DnsName qname = DnsName::from(kNames[rng.next_below(std::size(kNames))]);
      auto query = dns::make_query(++id, qname, kTypes[rng.next_below(std::size(kTypes))]);
      if (rng.next_bool(0.3)) {
        query.edns.emplace();
        query.edns->udp_payload_size = rng.next_bool(0.5) ? 1232 : 4096;
      }
      const auto wire = dns::encode(query);
      const auto with_cache = cached.respond_wire(wire, client, now);
      const auto without_cache = uncached.respond_wire(wire, client, now);
      ASSERT_TRUE(with_cache && without_cache);
      ASSERT_EQ(*with_cache, *without_cache)
          << "op " << op << ": " << qname.to_string() << " type "
          << static_cast<int>(query.questions[0].qtype);
    }
  }
  // The run exercised every rule: hits, refusals of stale entries, and
  // whole-cache clears on a layout change.
  const auto& stats = cached.answer_cache().stats();
  EXPECT_GT(stats.hits.value(), 0u);
  EXPECT_GT(stats.stale.value(), 0u);
  EXPECT_GT(stats.expired.value(), 0u);
  EXPECT_GT(stats.invalidations.value(), 0u);
  EXPECT_EQ(cached.stats().responses.value(), uncached.stats().responses.value());
  EXPECT_EQ(cached.stats().cname_chases.value(), uncached.stats().cname_chases.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnswerCacheDifferential, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace akadns::server
