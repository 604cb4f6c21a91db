#include "propagation/zone_publisher.hpp"

#include <gtest/gtest.h>

#include "propagation/zone_subscriber.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::propagation {
namespace {

using dns::DnsName;
using zone::Zone;
using zone::ZoneBuilder;

const DnsName kApex = DnsName::from("p.example");

Zone version(std::uint32_t serial) {
  ZoneBuilder builder("p.example", serial);
  builder.soa("ns1.p.example", "hostmaster.p.example", serial);
  builder.ns("@", "ns1.p.example");
  builder.a("ns1", "10.0.0.1");
  builder.a("www", "192.0.2." + std::to_string(serial % 250 + 1));
  return builder.build();
}

TEST(ZonePublisher, FirstPublishCompilesFromScratch) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  auto result = publisher.publish(version(1));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_FALSE(result.value()->compiled->incremental());
  EXPECT_EQ(result.value()->compiled->serial(), 1u);
  EXPECT_EQ(publisher.stats().full, 1u);
  EXPECT_EQ(publisher.zone_count(), 1u);
}

TEST(ZonePublisher, SecondPublishTakesTheIncrementalPath) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  ASSERT_TRUE(publisher.publish(version(1)).ok());
  auto result = publisher.publish(version(2));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value()->compiled->incremental());
  const auto journaled = publisher.chain(kApex, 1, 2);
  ASSERT_TRUE(journaled.has_value());
  EXPECT_EQ(journaled->back().to_serial, 2u);
  EXPECT_EQ(publisher.stats().incremental, 1u);
  // The incremental result answers identically to a from-scratch compile.
  const auto scratch = zone::CompiledZone::compile(std::make_shared<const Zone>(version(2)));
  EXPECT_EQ(publisher.snapshot(kApex)->content_hash(), scratch->content_hash());
}

TEST(ZonePublisher, SerialRegressionIsRejectedWithoutSideEffects) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  ASSERT_TRUE(publisher.publish(version(5)).ok());
  EXPECT_FALSE(publisher.publish(version(5)).ok());
  EXPECT_FALSE(publisher.publish(version(3)).ok());
  EXPECT_EQ(publisher.stats().rejected_serial, 2u);
  EXPECT_EQ(publisher.snapshot(kApex)->serial(), 5u);
}

TEST(ZonePublisher, SoaRdataDriftForcesTheFullPath) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  ASSERT_TRUE(publisher.publish(version(1)).ok());

  // Same records, new serial, but the SOA mname changed — invisible to
  // diff_zones, so only a full publish can carry it.
  ZoneBuilder drifted("p.example", 2);
  drifted.soa("ns2.p.example", "hostmaster.p.example", 2);
  drifted.ns("@", "ns1.p.example");
  drifted.a("ns1", "10.0.0.1");
  drifted.a("www", "192.0.2.3");
  auto result = publisher.publish(drifted.build());
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_FALSE(result.value()->compiled->incremental());
  EXPECT_EQ(publisher.stats().soa_drift_fallbacks, 1u);
  const auto soa = publisher.snapshot(kApex)->zone().soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(std::get<dns::SoaRecord>(soa->rdata).mname, DnsName::from("ns2.p.example"));
}

// Regression: the fanout loop once self-move-assigned each live weak_ptr
// (subs_[i] = std::move(subs_[i])), emptying it — every subscription went
// silently dead after its first update and replicas froze at v1.
TEST(ZonePublisher, SubscriptionSurvivesManyFanouts) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  auto subscription = publisher.subscribe();
  std::size_t received = 0;
  for (std::uint32_t serial = 1; serial <= 6; ++serial) {
    ASSERT_TRUE(publisher.publish(version(serial)).ok());
    received += subscription->drain().size();
  }
  EXPECT_EQ(received, 6u);
}

TEST(ZonePublisher, DeadSubscriptionsArePrunedLiveOnesKept) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  auto dead = publisher.subscribe();
  auto live = publisher.subscribe();
  dead.reset();  // subscriber went away; fanout must skip and prune it
  ASSERT_TRUE(publisher.publish(version(1)).ok());
  ASSERT_TRUE(publisher.publish(version(2)).ok());
  EXPECT_EQ(live->drain().size(), 2u);
}

TEST(ZonePublisher, WakeFiresOncePerUpdate) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  int wakes = 0;
  auto subscription = publisher.subscribe([&] { ++wakes; });
  ASSERT_TRUE(publisher.publish(version(1)).ok());
  ASSERT_TRUE(publisher.publish(version(2)).ok());
  EXPECT_EQ(wakes, 2);
  EXPECT_TRUE(subscription->pending());
  EXPECT_EQ(subscription->drain().size(), 2u);
  EXPECT_FALSE(subscription->pending());
}

TEST(ZonePublisher, ApplyChainIngestsAReceivedDeltaChain) {
  ManualClock clock;
  // Source evolves 1 -> 4 and journals every step.
  ZonePublisher source(clock);
  for (std::uint32_t serial = 1; serial <= 4; ++serial) {
    ASSERT_TRUE(source.publish(version(serial)).ok());
  }
  const auto chain = source.chain(kApex, 1, 4);
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->size(), 3u);

  // A secondary at serial 1 replays the chain through its own publisher.
  ZonePublisher secondary(clock);
  ASSERT_TRUE(secondary.publish(version(1)).ok());
  auto result = secondary.apply_chain(*chain);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(secondary.snapshot(kApex)->serial(), 4u);
  EXPECT_EQ(secondary.snapshot(kApex)->content_hash(), source.snapshot(kApex)->content_hash());
  EXPECT_EQ(secondary.stats().chains_applied, 1u);
  // The chain's deltas are compiled on the secondary, one by one.
  obs::MetricRegistry reg;
  secondary.register_metrics(reg, {});
  const auto compiles = obs::read_series<zone::CompileStats>(reg.snapshot());
  EXPECT_EQ(compiles.compiles, 1u);  // the seed publish
  EXPECT_EQ(compiles.incremental_compiles, 3u);
  EXPECT_EQ(compiles.adopted, 0u);
}

TEST(ZonePublisher, ApplyChainSkipsTheAlreadyHeldPrefix) {
  ManualClock clock;
  ZonePublisher source(clock);
  for (std::uint32_t serial = 1; serial <= 4; ++serial) {
    ASSERT_TRUE(source.publish(version(serial)).ok());
  }
  ZonePublisher secondary(clock);
  ASSERT_TRUE(secondary.publish(version(3)).ok());
  auto result = secondary.apply_chain(*source.chain(kApex, 1, 4));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(secondary.snapshot(kApex)->serial(), 4u);
}

TEST(ZonePublisher, ApplyChainGapFailsWithoutSideEffects) {
  ManualClock clock;
  ZonePublisher source(clock);
  for (std::uint32_t serial = 1; serial <= 4; ++serial) {
    ASSERT_TRUE(source.publish(version(serial)).ok());
  }
  // Secondary holds serial 1 but the chain starts at 3: unknowable gap.
  const auto chain = source.chain(kApex, 3, 4);
  ASSERT_TRUE(chain.has_value());
  ZonePublisher secondary(clock);
  ASSERT_TRUE(secondary.publish(version(1)).ok());
  auto result = secondary.apply_chain(*chain);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(secondary.snapshot(kApex)->serial(), 1u);  // untouched
}

TEST(ZoneSubscriber, AttachSeedsTheReplica) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  ASSERT_TRUE(publisher.publish(version(3)).ok());
  zone::ZoneStore replica;
  ZoneSubscriber subscriber(replica);
  subscriber.attach(publisher);
  ASSERT_NE(replica.find_compiled(kApex), nullptr);
  EXPECT_EQ(replica.find_compiled(kApex)->serial(), 3u);
}

TEST(ZoneSubscriber, PollAdoptsTheCompiledSnapshot) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  ASSERT_TRUE(publisher.publish(version(1)).ok());
  zone::ZoneStore replica;
  ZoneSubscriber subscriber(replica);
  subscriber.attach(publisher);
  const auto generation_before = replica.generation();

  ASSERT_TRUE(publisher.publish(version(2)).ok());
  EXPECT_TRUE(subscriber.has_pending());
  EXPECT_EQ(subscriber.poll(clock.now()), 1u);
  EXPECT_FALSE(subscriber.has_pending());
  // In-process fast path: the very same compiled snapshot, and a
  // generation bump so answer caches notice.
  EXPECT_EQ(replica.find_compiled(kApex).get(), publisher.snapshot(kApex).get());
  EXPECT_GT(replica.generation(), generation_before);
  EXPECT_EQ(subscriber.stats().adopted, 1u);
}

TEST(ZoneSubscriber, StaleUpdatesAreNoops) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  auto first = publisher.publish(version(1));
  ASSERT_TRUE(first.ok());
  auto second = publisher.publish(version(2));
  ASSERT_TRUE(second.ok());

  zone::ZoneStore replica;
  ZoneSubscriber subscriber(replica);
  subscriber.attach(publisher);  // seeded at serial 2
  subscriber.apply(*first.value(), clock.now());
  EXPECT_EQ(subscriber.stats().noops, 1u);
  EXPECT_EQ(replica.find_compiled(kApex)->serial(), 2u);
}

TEST(ZoneSubscriber, LatencyIsMeasuredOnThePublisherClock) {
  ManualClock clock;
  ZonePublisher publisher(clock);
  zone::ZoneStore replica;
  ZoneSubscriber subscriber(replica);
  subscriber.attach(publisher);

  ASSERT_TRUE(publisher.publish(version(1)).ok());
  clock.advance(Duration::millis(7));
  subscriber.poll(clock.now());
  EXPECT_EQ(subscriber.stats().last_latency_ns,
            static_cast<std::uint64_t>(Duration::millis(7).count_nanos()));
  EXPECT_EQ(subscriber.stats().max_latency_ns, subscriber.stats().last_latency_ns);
}

}  // namespace
}  // namespace akadns::propagation
