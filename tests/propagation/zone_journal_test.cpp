#include "propagation/zone_journal.hpp"

#include <gtest/gtest.h>

#include "zone/zone_builder.hpp"

namespace akadns::propagation {
namespace {

using dns::DnsName;
using zone::Zone;
using zone::ZoneBuilder;
using zone::ZoneDiff;

const DnsName kApex = DnsName::from("j.example");

// One zone version: `width` host records whose addresses rotate with the
// serial, so consecutive versions differ in exactly `width` records.
Zone version(std::uint32_t serial, std::size_t width = 1) {
  ZoneBuilder builder("j.example", serial);
  builder.soa("ns1.j.example", "hostmaster.j.example", serial);
  builder.ns("@", "ns1.j.example");
  builder.a("ns1", "10.0.0.1");
  for (std::size_t i = 0; i < width; ++i) {
    builder.a("h" + std::to_string(i),
              "192.0.2." + std::to_string((serial + i) % 250 + 1));
  }
  return builder.build();
}

ZoneDiff step(std::uint32_t from, std::uint32_t to, std::size_t width = 1) {
  return zone::diff_zones(version(from, width), version(to, width));
}

TEST(ZoneJournal, ChainCoversContiguousSpan) {
  ZoneJournal journal;
  journal.append(step(1, 2));
  journal.append(step(2, 3));
  journal.append(step(3, 4));

  const auto full = journal.chain(kApex, 1, 4);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->size(), 3u);
  EXPECT_EQ(full->front().from_serial, 1u);
  EXPECT_EQ(full->back().to_serial, 4u);

  const auto suffix = journal.chain(kApex, 2, 4);
  ASSERT_TRUE(suffix.has_value());
  EXPECT_EQ(suffix->size(), 2u);
  EXPECT_EQ(journal.stats().chain_hits, 2u);
}

TEST(ZoneJournal, ChainMissesOutsideTheWindow) {
  ZoneJournal journal;
  journal.append(step(2, 3));
  journal.append(step(3, 4));

  EXPECT_FALSE(journal.chain(kApex, 1, 4).has_value());  // from before window
  EXPECT_FALSE(journal.chain(kApex, 2, 5).has_value());  // to beyond window
  EXPECT_FALSE(journal.chain(DnsName::from("other.example"), 2, 4).has_value());
  EXPECT_EQ(journal.stats().chain_misses, 3u);
}

TEST(ZoneJournal, DiscontinuityResetsTheLog) {
  ZoneJournal journal;
  journal.append(step(1, 2));
  journal.append(step(2, 3));
  // A delta that does not continue the log: intermediate history is
  // unknowable, so the old entries must not survive.
  journal.append(step(7, 8));
  EXPECT_EQ(journal.delta_count(kApex), 1u);
  EXPECT_FALSE(journal.chain(kApex, 1, 3).has_value());
  const auto fresh = journal.chain(kApex, 7, 8);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->size(), 1u);
  EXPECT_GE(journal.stats().resets, 1u);
}

TEST(ZoneJournal, BoundedByDeltaCount) {
  ZoneJournal journal({.max_deltas_per_apex = 3});
  for (std::uint32_t s = 1; s <= 5; ++s) journal.append(step(s, s + 1));
  EXPECT_EQ(journal.delta_count(kApex), 3u);
  EXPECT_EQ(journal.stats().evicted, 2u);
  // Evicted history is a miss; the surviving window still answers.
  EXPECT_FALSE(journal.chain(kApex, 1, 6).has_value());
  ASSERT_TRUE(journal.chain(kApex, 3, 6).has_value());
}

TEST(ZoneJournal, BoundedByRecordCount) {
  // Each step with width 4 carries 8 records (4 deletions + 4 additions),
  // so a 20-record budget holds at most two deltas.
  ZoneJournal journal({.max_deltas_per_apex = 64, .max_records_per_apex = 20});
  for (std::uint32_t s = 1; s <= 4; ++s) journal.append(step(s, s + 1, 4));
  EXPECT_LE(journal.record_count(kApex), 20u);
  EXPECT_EQ(journal.delta_count(kApex), 2u);
  EXPECT_EQ(journal.stats().evicted, 2u);
}

TEST(ZoneJournal, ResetClearsOneApex) {
  ZoneJournal journal;
  journal.append(step(1, 2));
  journal.reset(kApex);
  EXPECT_EQ(journal.delta_count(kApex), 0u);
  EXPECT_FALSE(journal.chain(kApex, 1, 2).has_value());
  // Appending after the reset starts a fresh contiguous log.
  journal.append(step(2, 3));
  EXPECT_TRUE(journal.chain(kApex, 2, 3).has_value());
}

TEST(ZoneJournal, RemoveDropsTheApex) {
  ZoneJournal journal;
  journal.append(step(1, 2));
  journal.remove(kApex);
  EXPECT_EQ(journal.delta_count(kApex), 0u);
  EXPECT_EQ(journal.record_count(kApex), 0u);
}

TEST(ZoneJournal, ApexLogsAreIndependent) {
  ZoneJournal journal;
  journal.append(step(1, 2));
  zone::Zone other_a = ZoneBuilder("k.example", 1)
                           .soa("ns1.k.example", "hostmaster.k.example", 1)
                           .ns("@", "ns1.k.example")
                           .a("ns1", "10.0.0.2")
                           .a("www", "192.0.2.50")
                           .build();
  zone::Zone other_b = ZoneBuilder("k.example", 2)
                           .soa("ns1.k.example", "hostmaster.k.example", 2)
                           .ns("@", "ns1.k.example")
                           .a("ns1", "10.0.0.2")
                           .a("www", "192.0.2.51")
                           .build();
  journal.append(zone::diff_zones(other_a, other_b));
  EXPECT_EQ(journal.delta_count(kApex), 1u);
  EXPECT_EQ(journal.delta_count(DnsName::from("k.example")), 1u);
  journal.reset(kApex);
  EXPECT_TRUE(journal.chain(DnsName::from("k.example"), 1, 2).has_value());
}

}  // namespace
}  // namespace akadns::propagation
