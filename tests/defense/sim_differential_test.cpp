// Differential golden test for the DefenseEngine extraction.
//
// The golden values below were captured by driving the PRE-refactor
// nameserver (defense logic inline: firewall, per-lane ScoringEngine +
// PenaltyQueueSet, token buckets) through a fixed 30k-packet mixed
// legit/attack replay. The post-refactor nameserver — which delegates
// every one of those stages to defense::DefenseEngine on a ManualClock —
// must reproduce them BIT-IDENTICALLY: same machine counters, same
// per-lane counters, same response byte-sum, at every worker-thread
// count. Any drift here means the extraction changed observable
// behaviour, not just structure.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "filters/nxdomain_filter.hpp"
#include "filters/rate_limit_filter.hpp"
#include "server/nameserver.hpp"
#include "workload/population.hpp"
#include "workload/replay.hpp"
#include "workload/zones.hpp"

namespace akadns::server {
namespace {

struct GoldenLane {
  std::uint64_t received;
  std::uint64_t responses;
  std::uint64_t drops;
  std::size_t pending;
};

// Captured from the pre-refactor datapath at commit "Shard the nameserver
// datapath into RSS-hashed worker lanes" + snapshot compilation; the
// scenario parameters below are part of the golden contract.
constexpr std::uint64_t kGoldenReceived = 30000;
constexpr std::uint64_t kGoldenEnqueued = 11044;
constexpr std::uint64_t kGoldenProcessed = 7972;
constexpr std::uint64_t kGoldenResponses = 7972;
constexpr std::size_t kGoldenPending = 3072;
constexpr std::uint64_t kGoldenIoDrops = 0;
constexpr std::uint64_t kGoldenScoreDiscards = 1;
constexpr std::uint64_t kGoldenQueueFull = 18955;
constexpr std::uint64_t kGoldenByteSum = 22578230;
constexpr GoldenLane kGoldenLanes[8] = {
    {4158, 1013, 2761, 384}, {3843, 991, 2468, 384}, {3657, 992, 2281, 384},
    {3989, 988, 2617, 384},  {3728, 996, 2348, 384}, {3746, 1009, 2353, 384},
    {3348, 990, 1974, 384},  {3531, 993, 2154, 384},
};

void run_scenario(std::size_t threads) {
  workload::HostedZonesConfig zc;
  zc.zone_count = 200;
  workload::HostedZones zones(zc, 7);
  workload::PopulationConfig pc;
  pc.resolver_count = 2000;
  workload::ResolverPopulation population(pc, 7 ^ 0xC0FFEEULL);
  workload::ReplayMixConfig mix;
  mix.corpus_size = 4096;
  mix.attack_fraction = 0.5;
  mix.seed = 9;
  workload::ReplayCorpus corpus(mix, population, zones);

  NameserverConfig config;
  config.lanes = 8;
  config.compute_capacity_qps = 5000.0;
  config.io_capacity_qps = 60000.0;
  config.queue_config.queue_capacity = 192;
  Nameserver ns(config, zones.store());
  ns.install_filter([](std::size_t, std::size_t) {
    return std::make_unique<filters::RateLimitFilter>(
        filters::RateLimitFilter::Config{.penalty = 60.0, .default_limit_qps = 200.0});
  });
  const zone::ZoneStore* store = &zones.store();
  ns.install_filter([store](std::size_t, std::size_t shard_count) {
    const std::uint64_t threshold = std::max<std::uint64_t>(1, 200 / shard_count);
    return std::make_unique<filters::NxDomainFilter>(
        filters::NxDomainFilter::Config{.penalty = 150.0, .nxdomain_threshold = threshold},
        [store](const dns::DnsName& qname) -> std::optional<dns::DnsName> {
          const auto zone = store->find_best_zone(qname);
          if (!zone) return std::nullopt;
          return zone->apex();
        },
        [store](const dns::DnsName& apex) {
          const auto zone = store->find_zone(apex);
          return zone ? zone->all_names() : std::vector<dns::DnsName>{};
        });
  });

  std::uint64_t response_bytes = 0;
  ns.set_response_span_sink([&](const Endpoint&, std::span<const std::uint8_t> wire) {
    for (const auto b : wire) response_bytes += b;
    response_bytes += wire.size();
  });

  const std::uint64_t total = 30000;
  SimTime now = SimTime::origin();
  const auto& entries = corpus.entries();
  for (std::uint64_t i = 0; i < total; ++i) {
    now = SimTime::origin() + Duration::micros(static_cast<std::int64_t>(i) * 50);
    const auto& entry = entries[i % entries.size()];
    ns.receive(entry.wire, entry.source, 64, now);
    if ((i + 1) % 64 == 0 && ns.begin_phase(now)) {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t lane = t; lane < ns.lane_count(); lane += threads) {
            ns.run_lane(lane, now);
          }
        });
      }
      for (auto& th : pool) th.join();
      ns.end_phase(now);
    }
  }

  // The machine view is the registry sum over the per-lane series, like
  // every fleet report. Each value is read from the layer that decided
  // it: the engine's families for what the defense pipeline decided
  // (enqueue, release, I/O, score and queue sheds, firewall), the
  // nameserver's for the rest.
  obs::MetricRegistry reg;
  ns.register_metrics(reg, {});
  const auto snap = reg.snapshot();
  const auto drops = [&](const char* family, const char* reason) {
    return snap.sum(family, obs::labels({{"reason", reason}}));
  };
  EXPECT_EQ(snap.sum("akadns_packets_total"), kGoldenReceived);
  EXPECT_EQ(snap.sum("akadns_defense_enqueued_total"), kGoldenEnqueued);
  EXPECT_EQ(snap.sum("akadns_defense_released_total"), kGoldenProcessed);
  EXPECT_EQ(snap.sum("akadns_responses_sent_total"), kGoldenResponses);
  EXPECT_EQ(ns.pending(), kGoldenPending);
  EXPECT_EQ(drops("akadns_defense_drops_total", "io-overload"), kGoldenIoDrops);
  EXPECT_EQ(drops("akadns_defense_drops_total", "score-discard"), kGoldenScoreDiscards);
  EXPECT_EQ(drops("akadns_defense_drops_total", "queue-full"), kGoldenQueueFull);
  EXPECT_EQ(drops("akadns_drops_total", "malformed"), 0u);
  EXPECT_EQ(drops("akadns_defense_drops_total", "firewall"), 0u);
  EXPECT_EQ(response_bytes, kGoldenByteSum);

  ASSERT_EQ(ns.lane_count(), 8u);
  for (std::size_t lane = 0; lane < ns.lane_count(); ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    const auto& ls = ns.lane_stats(lane);
    EXPECT_EQ(ls.packets_received, kGoldenLanes[lane].received);
    EXPECT_EQ(ls.responses_sent, kGoldenLanes[lane].responses);
    EXPECT_EQ(ls.drops.total() + ns.defense().lane_stats(lane).drops.total(),
              kGoldenLanes[lane].drops);
    EXPECT_EQ(ns.lane_pending(lane), kGoldenLanes[lane].pending);
  }
}

TEST(SimDifferential, GoldenCountersAtOneThread) { run_scenario(1); }
TEST(SimDifferential, GoldenCountersAtTwoThreads) { run_scenario(2); }
TEST(SimDifferential, GoldenCountersAtEightThreads) { run_scenario(8); }

}  // namespace
}  // namespace akadns::server
