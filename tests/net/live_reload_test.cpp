// Live reload through the real socket stack: a ZonePublisher publish
// while the server is answering must reach every worker replica without
// dropping a single query, and once a flow has seen the new version it
// must never see the old one again — the generation bump has to tear
// through warm AnswerCache entries, not just cold paths.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "dns/wire.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
#include "propagation/zone_publisher.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::net {
namespace {

using dns::DnsName;
using dns::RecordType;

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

// Version `serial` of the zone: the www address encodes the serial, so
// a response tells us exactly which version answered it.
zone::Zone version(std::uint32_t serial) {
  return zone::ZoneBuilder("live.example", serial)
      .soa("ns1.live.example", "hostmaster.live.example", serial)
      .ns("@", "ns1.live.example")
      .a("ns1", "10.0.0.1")
      .a("www", "10.9.0." + std::to_string(serial))
      .build();
}

TEST(LiveReloadLoopback, MidRunPublishFlipsAnswersWithoutDrops) {
  MonotonicClock clock;
  propagation::ZonePublisher publisher(clock);
  ASSERT_TRUE(publisher.publish(version(1)).ok());

  ServeConfig config;
  config.port = 0;  // ephemeral
  config.workers = 2;
  Server server(config, publisher);
  auto started = server.start();
  ASSERT_TRUE(started) << started.error();

  auto opened = StubClient::open(Endpoint{IpAddr(kLoopback), server.udp_port()},
                                 Transport::Udp, StubClient::deadline_in(Duration::seconds(3)));
  ASSERT_TRUE(opened) << opened.error();
  StubClient& client = opened.value();

  const Ipv4Addr old_addr(10, 9, 0, 1);
  const Ipv4Addr new_addr(10, 9, 0, 2);

  std::uint64_t answered = 0;
  std::uint16_t id = 1;
  const auto ask = [&]() -> std::optional<Ipv4Addr> {
    const auto wire =
        dns::encode(dns::make_query(id++, DnsName::from("www.live.example"), RecordType::A));
    const StubResult got = client.ask(wire, StubClient::deadline_in(Duration::seconds(3)));
    if (!got) return std::nullopt;
    const auto decoded = dns::decode(got.reply);
    if (!decoded.ok() || decoded.value().answers.empty()) return std::nullopt;
    const auto* a = std::get_if<dns::ARecord>(&decoded.value().answers.front().rdata);
    if (a == nullptr) return std::nullopt;
    ++answered;
    return a->address;
  };

  // Warm-up on version 1. This also warms the answer cache, so the flip
  // below must invalidate a cached entry, not merely miss a cold one.
  for (int i = 0; i < 200; ++i) {
    const auto got = ask();
    ASSERT_TRUE(got.has_value()) << "query " << i << " dropped before the flip";
    ASSERT_EQ(*got, old_addr);
  }

  // The flip, from this (non-worker) thread, mid-traffic.
  ASSERT_TRUE(publisher.publish(version(2)).ok());

  // Every query must still be answered; answers may stay on the old
  // version until this flow's worker takes the doorbell, but once the
  // new address shows up the old one must never come back.
  bool flipped = false;
  int post_flip_checks = 0;
  for (int i = 0; i < 5000 && post_flip_checks < 200; ++i) {
    const auto got = ask();
    ASSERT_TRUE(got.has_value()) << "query dropped mid-flip at iteration " << i;
    if (*got == new_addr) flipped = true;
    if (flipped) {
      ASSERT_EQ(*got, new_addr) << "stale answer after the flip became visible";
      ++post_flip_checks;
    } else {
      ASSERT_EQ(*got, old_addr);
    }
  }
  EXPECT_TRUE(flipped) << "published version never became visible";

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.frontend.udp_responses, answered);
  EXPECT_EQ(stats.frontend.udp_malformed, 0u);
  // At least this flow's worker replica absorbed the published update.
  EXPECT_GE(stats.zone_sync.updates, 1u);
  // Replicas adopt the publisher's snapshot: every update is adopted or
  // a no-op, and no worker compiles.
  EXPECT_EQ(stats.zone_sync.adopted + stats.zone_sync.noops, stats.zone_sync.updates);
  EXPECT_EQ(stats.replica_compiles.compiles, 0u);
  EXPECT_EQ(stats.replica_compiles.incremental_compiles, 0u);
}

// akadns-serve's flip drill publishes the evolved zones one at a time, so
// a lane can see zone A's new answer while zone B still answers from its
// old snapshot: that is not stale. Only a zone's old answer after that
// same zone's new one is.
TEST(FlipLedger, ZonesFlippedMillisecondsApartAreJudgedApart) {
  constexpr std::int64_t kMs = 1'000'000;
  constexpr std::uint32_t kA = 0;
  constexpr std::uint32_t kB = 1;
  constexpr std::uint32_t kNoZone = 2;
  FlipLedger ledger;
  ledger.record(kA, /*old_match=*/true, /*new_match=*/false, 1 * kMs);
  ledger.record(kB, true, false, 1 * kMs);
  ledger.record(kA, false, true, 2 * kMs);      // A's publish reached this lane's worker
  ledger.record(kB, true, false, 3 * kMs);      // B's has not yet: old, not stale
  ledger.record(kNoZone, true, true, 3 * kMs);  // the same bytes in both versions
  ledger.record(kB, false, true, 5 * kMs);      // B's publish, 3 ms after A's
  ledger.record(kA, true, true, 6 * kMs);
  EXPECT_EQ(ledger.stats().stale_old, 0u);
  EXPECT_EQ(ledger.stats().old_answers, 4u);
  EXPECT_EQ(ledger.stats().new_answers, 3u);
  EXPECT_EQ(ledger.stats().first_new_ns, 2 * kMs);

  // A v1-only answer for a zone after that zone's own v2 is stale.
  ledger.record(kA, true, false, 7 * kMs);
  ledger.record(kB, true, false, 8 * kMs);
  EXPECT_EQ(ledger.stats().stale_old, 2u);
}

}  // namespace
}  // namespace akadns::net
