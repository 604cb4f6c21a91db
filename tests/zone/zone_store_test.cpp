#include "zone/zone_store.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "zone/zone_builder.hpp"
#include "zone/zone_transfer.hpp"

namespace akadns::zone {
namespace {

using dns::DnsName;

Zone simple_zone(std::string_view apex, std::uint32_t serial) {
  return ZoneBuilder(apex, serial)
      .ns("@", std::string("ns1.") + std::string(apex))
      .a("ns1", "10.0.0.1")
      .a("www", "10.0.0.2")
      .build();
}

TEST(ZoneStore, PublishAndFind) {
  ZoneStore store;
  EXPECT_TRUE(store.publish(simple_zone("example.com", 1)));
  EXPECT_EQ(store.zone_count(), 1u);
  EXPECT_TRUE(store.has_zone(DnsName::from("example.com")));
  const auto zone = store.find_zone(DnsName::from("example.com"));
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->serial(), 1u);
}

TEST(ZoneStore, SerialMustIncrease) {
  ZoneStore store;
  EXPECT_TRUE(store.publish(simple_zone("example.com", 5)));
  EXPECT_FALSE(store.publish(simple_zone("example.com", 5)));
  EXPECT_FALSE(store.publish(simple_zone("example.com", 4)));
  EXPECT_TRUE(store.publish(simple_zone("example.com", 6)));
  EXPECT_EQ(store.find_zone(DnsName::from("example.com"))->serial(), 6u);
}

TEST(ZoneStore, ForcePublishOverridesSerial) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 10));
  store.force_publish(simple_zone("example.com", 2));
  EXPECT_EQ(store.find_zone(DnsName::from("example.com"))->serial(), 2u);
}

TEST(ZoneStore, LongestSuffixMatch) {
  ZoneStore store;
  store.publish(simple_zone("com", 1));
  store.publish(simple_zone("example.com", 1));
  store.publish(simple_zone("deep.example.com", 1));

  EXPECT_EQ(store.find_best_zone(DnsName::from("www.deep.example.com"))->apex().to_string(),
            "deep.example.com.");
  EXPECT_EQ(store.find_best_zone(DnsName::from("www.example.com"))->apex().to_string(),
            "example.com.");
  EXPECT_EQ(store.find_best_zone(DnsName::from("other.com"))->apex().to_string(), "com.");
  EXPECT_EQ(store.find_best_zone(DnsName::from("example.org")), nullptr);
}

TEST(ZoneStore, ApexItselfMatches) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 1));
  const auto zone = store.find_best_zone(DnsName::from("example.com"));
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->apex().to_string(), "example.com.");
}

TEST(ZoneStore, RemoveZone) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 1));
  EXPECT_TRUE(store.remove(DnsName::from("example.com")));
  EXPECT_FALSE(store.remove(DnsName::from("example.com")));
  EXPECT_EQ(store.find_best_zone(DnsName::from("www.example.com")), nullptr);
}

TEST(ZoneStore, GenerationAdvancesOnChange) {
  ZoneStore store;
  const auto g0 = store.generation();
  store.publish(simple_zone("a.com", 1));
  const auto g1 = store.generation();
  EXPECT_GT(g1, g0);
  store.publish(simple_zone("a.com", 1));  // rejected: no change
  EXPECT_EQ(store.generation(), g1);
  store.remove(DnsName::from("a.com"));
  EXPECT_GT(store.generation(), g1);
}

TEST(ZoneStore, SnapshotsAreStable) {
  ZoneStore store;
  store.publish(simple_zone("example.com", 1));
  const auto snapshot = store.find_zone(DnsName::from("example.com"));
  store.publish(simple_zone("example.com", 2));
  // The old snapshot is still valid and unchanged (readers never see
  // partial updates — mirrors the paper's atomic metadata swap).
  EXPECT_EQ(snapshot->serial(), 1u);
  EXPECT_EQ(store.find_zone(DnsName::from("example.com"))->serial(), 2u);
}

TEST(ZoneStore, TotalRecordsAndApexes) {
  ZoneStore store;
  // Published out of order: zone_apexes() must still list canonically.
  store.publish(simple_zone("b.com", 1));
  store.publish(simple_zone("a.com", 1));
  EXPECT_EQ(store.zone_count(), 2u);
  EXPECT_GT(store.total_records(), 0u);
  const auto apexes = store.zone_apexes();
  ASSERT_EQ(apexes.size(), 2u);
  EXPECT_EQ(apexes[0].to_string(), "a.com.");
  EXPECT_EQ(apexes[1].to_string(), "b.com.");
}

// -- randomized check against a naive oracle --------------------------------
//
// A plain std::map mirror of what the store should hold, and a linear
// longest-suffix scan over it, checked after every operation of a random
// sequence of publishes, removes, deltas and adopts.

// Nested apexes (root, com, example.com, a.example.com, b.a.example.com),
// siblings, and the same labels in another order (com.example).
const std::vector<DnsName>& apex_pool() {
  static const std::vector<DnsName> pool = [] {
    std::vector<DnsName> out;
    for (const char* name : {".", "com", "example.com", "a.example.com", "b.a.example.com",
                             "c.example.com", "other.com", "com.example", "example",
                             "a.com.example", "org", "example.org", "www.example.org"}) {
      out.push_back(DnsName::from(name));
    }
    return out;
  }();
  return pool;
}

// Every apex, a child, a deeper name under each, unrelated names and the root.
const std::vector<DnsName>& query_names() {
  static const std::vector<DnsName> names = [] {
    std::vector<DnsName> out;
    for (const DnsName& apex : apex_pool()) {
      out.push_back(apex);
      out.push_back(*DnsName::from("www").concat(apex));
      out.push_back(*DnsName::from("x.y.z").concat(apex));
    }
    for (const char* name : {".", "net", "nomatch.test", "example.net", "com.example.com",
                             "example.com.example", "b.example.com"}) {
      out.push_back(DnsName::from(name));
    }
    return out;
  }();
  return names;
}

// A small zone whose www address depends on `variant`, so two versions of
// one apex differ by real records.
ZonePtr pool_zone(const DnsName& apex, std::uint32_t serial, std::uint64_t variant) {
  return std::make_shared<const Zone>(
      ZoneBuilder(apex.to_string(), serial)
          .ns("@", "ns1.nameserver.net.")
          .a("www", "10.0.0." + std::to_string(variant % 250 + 1))
          .build());
}

using Mirror = std::map<DnsName, ZonePtr>;

const DnsName* oracle_best(const Mirror& mirror, const DnsName& qname) {
  const DnsName* best = nullptr;
  for (const auto& [apex, zone] : mirror) {
    if (qname.is_subdomain_of(apex) && (!best || apex.label_count() > best->label_count())) {
      best = &apex;
    }
  }
  return best;
}

void expect_matches(const ZoneStore& store, const Mirror& mirror) {
  ASSERT_EQ(store.zone_count(), mirror.size());
  std::vector<DnsName> keys;
  for (const auto& [apex, zone] : mirror) keys.push_back(apex);
  EXPECT_EQ(store.zone_apexes(), keys);
  for (const DnsName& apex : apex_pool()) {
    const auto it = mirror.find(apex);
    const bool hosted = it != mirror.end();
    EXPECT_EQ(store.has_zone(apex), hosted) << apex.to_string();
    const CompiledZonePtr compiled = store.find_compiled(apex);
    ASSERT_EQ(compiled != nullptr, hosted) << apex.to_string();
    if (!hosted) continue;
    EXPECT_EQ(compiled->apex(), apex);
    EXPECT_EQ(compiled->zone().all_records(), it->second->all_records()) << apex.to_string();
  }
  for (const DnsName& qname : query_names()) {
    const DnsName* want = oracle_best(mirror, qname);
    const CompiledZonePtr best = store.find_best_compiled(qname);
    const ZonePtr best_zone = store.find_best_zone(qname);
    ASSERT_EQ(best != nullptr, want != nullptr) << qname.to_string();
    ASSERT_EQ(best_zone != nullptr, want != nullptr) << qname.to_string();
    if (!want) continue;
    EXPECT_EQ(best->apex(), *want) << qname.to_string();
    EXPECT_EQ(best_zone->apex(), *want) << qname.to_string();
    EXPECT_EQ(best, store.find_compiled(*want)) << qname.to_string();
  }
}

TEST(ZoneStore, RandomOperationsMatchNaiveOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ZoneStore store;
    Mirror mirror;
    std::uint64_t generation = store.generation();
    std::uint64_t adopted = 0;
    const auto& pool = apex_pool();
    for (int op = 0; op < 1000; ++op) {
      const DnsName& apex = pool[rng.next_below(pool.size())];
      const auto held = mirror.find(apex);
      const std::uint32_t serial = held == mirror.end() ? 0 : held->second->serial();
      switch (rng.next_below(6)) {
        case 0: {  // publish, with or without a newer serial
          const auto next = static_cast<std::uint32_t>(
              std::max<std::int64_t>(1, static_cast<std::int64_t>(serial) + rng.next_int(-1, 2)));
          ZonePtr zone = pool_zone(apex, next, rng.next_u64());
          const bool accepted = held == mirror.end() || next > serial;
          EXPECT_EQ(store.publish(zone), accepted);
          if (accepted) {
            mirror[apex] = zone;
            ++generation;
          }
          break;
        }
        case 1: {  // force_publish, any serial
          ZonePtr zone = pool_zone(apex, static_cast<std::uint32_t>(rng.next_int(1, serial + 2)),
                                   rng.next_u64());
          store.force_publish(zone);
          mirror[apex] = zone;
          ++generation;
          break;
        }
        case 2: {  // remove
          const bool hosted = mirror.erase(apex) == 1;
          EXPECT_EQ(store.remove(apex), hosted);
          if (hosted) ++generation;
          break;
        }
        case 3: {  // a valid delta (fails only when the apex is not hosted)
          if (held == mirror.end()) {
            ZoneDiff diff;
            diff.apex = apex;
            diff.from_serial = 1;
            diff.to_serial = 2;
            EXPECT_FALSE(store.apply_delta(diff));
            break;
          }
          ZonePtr next = pool_zone(apex, serial + 1, rng.next_u64());
          const auto applied = store.apply_delta(diff_zones(*held->second, *next));
          ASSERT_TRUE(applied) << applied.error();
          mirror[apex] = next;
          ++generation;
          break;
        }
        case 4: {  // an invalid delta: wrong base serial or a phantom deletion
          if (held == mirror.end()) break;
          ZoneDiff diff;
          diff.apex = apex;
          diff.to_serial = serial + 2;
          if (rng.next_bool(0.5)) {
            diff.from_serial = serial + 1;
          } else {
            diff.from_serial = serial;
            diff.deletions.push_back(dns::make_a(*DnsName::from("ghost").concat(apex),
                                                 Ipv4Addr(9, 9, 9, 9), 60));
          }
          EXPECT_FALSE(store.apply_delta(diff));
          break;
        }
        default: {  // adopt a second store's snapshots
          ZoneStore other;
          for (const DnsName& name : pool) {
            if (rng.next_bool(0.3)) {
              other.force_publish(pool_zone(name, static_cast<std::uint32_t>(rng.next_int(1, 9)),
                                            rng.next_u64()));
            }
          }
          store.adopt(other);
          for (const DnsName& name : other.zone_apexes()) {
            mirror[name] = other.find_zone(name);
            EXPECT_EQ(store.find_compiled(name), other.find_compiled(name));
          }
          generation += other.zone_count();
          adopted += other.zone_count();
          break;
        }
      }
      ASSERT_EQ(store.generation(), generation) << "op " << op;
      ASSERT_EQ(store.compile_stats().adopted.value(), adopted) << "op " << op;
      expect_matches(store, mirror);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace akadns::zone
