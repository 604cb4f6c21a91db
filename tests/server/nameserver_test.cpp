#include "server/nameserver.hpp"

#include <gtest/gtest.h>

#include "dns/wire.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::server {
namespace {

using dns::DnsName;
using dns::Rcode;
using dns::RecordType;

struct Fixture {
  zone::ZoneStore store;
  std::vector<std::pair<Endpoint, std::vector<std::uint8_t>>> responses;
  Endpoint client{*IpAddr::parse("198.51.100.1"), 4242};

  Fixture() {
    store.publish(zone::ZoneBuilder("example.com", 1)
                      .ns("@", "ns1.example.com")
                      .a("ns1", "10.0.0.1")
                      .a("www", "93.184.216.34")
                      .build());
  }

  Nameserver make(NameserverConfig config = {}) {
    Nameserver ns(std::move(config), store);
    ns.set_response_span_sink([this](const Endpoint& dst, std::span<const std::uint8_t> wire) {
      responses.emplace_back(dst, std::vector<std::uint8_t>(wire.begin(), wire.end()));
    });
    return ns;
  }

  std::vector<std::uint8_t> query_wire(const char* name, std::uint16_t id = 1) {
    return dns::encode(dns::make_query(id, DnsName::from(name), RecordType::A));
  }

  Rcode last_rcode() const {
    const auto decoded = dns::decode(responses.back().second);
    return decoded.value().header.rcode;
  }
};

TEST(Nameserver, AnswersQueryEndToEnd) {
  Fixture f;
  auto ns = f.make();
  const auto t = SimTime::origin();
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  EXPECT_EQ(ns.pending(), 1u);
  EXPECT_EQ(ns.process(t), 1u);
  ASSERT_EQ(f.responses.size(), 1u);
  EXPECT_EQ(f.responses[0].first, f.client);
  EXPECT_EQ(f.last_rcode(), Rcode::NoError);
  EXPECT_EQ(ns.lane_stats(0).responses_sent, 1u);
}

TEST(Nameserver, MalformedPacketStillCounted) {
  Fixture f;
  auto ns = f.make();
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  ns.receive(garbage, f.client, 57, SimTime::origin());
  EXPECT_EQ(ns.lane_stats(0).drops[DropReason::Malformed], 1u);
  // Dropped at receive(): never enqueued, never answered.
  EXPECT_EQ(ns.pending(), 0u);
  ns.process(SimTime::origin());
  EXPECT_TRUE(f.responses.empty());
}

TEST(Nameserver, ComputeCapacityBoundsThroughput) {
  Fixture f;
  NameserverConfig config;
  config.compute_capacity_qps = 100.0;  // burst bucket = 10
  auto ns = f.make(config);
  const auto t = SimTime::origin();
  for (int i = 0; i < 200; ++i) {
    ns.receive(f.query_wire("www.example.com", static_cast<std::uint16_t>(i)), f.client, 57, t);
  }
  // At t=0 only the burst allowance (10% of capacity) is processable.
  const auto processed_now = ns.process(t);
  EXPECT_LE(processed_now, 11u);
  // Driving process() through the next second at fine granularity admits
  // ~100 more queries (the sustained compute rate), not the whole backlog.
  std::size_t processed_later = 0;
  for (int step = 1; step <= 100; ++step) {
    processed_later += ns.process(t + Duration::millis(10 * step));
  }
  EXPECT_GE(processed_later, 90u);
  EXPECT_LE(processed_later, 111u);
}

TEST(Nameserver, IoCapacityDropsBelowApplication) {
  Fixture f;
  NameserverConfig config;
  config.io_capacity_qps = 100.0;
  auto ns = f.make(config);
  const auto t = SimTime::origin();
  for (int i = 0; i < 1000; ++i) {
    ns.receive(f.query_wire("www.example.com", static_cast<std::uint16_t>(i)), f.client, 57, t);
  }
  EXPECT_GT(ns.defense().lane_stats(0).drops[DropReason::IoOverload], 0u);
  EXPECT_LT(ns.pending(), 1000u);
}

TEST(Nameserver, QodCrashesAndTrapInstallsFirewallRule) {
  Fixture f;
  NameserverConfig config;
  config.qod_trap_enabled = true;
  auto ns = f.make(config);
  ns.set_crash_predicate([](const dns::Question& q) {
    return q.name == DnsName::from("death.example.com");
  });
  auto t = SimTime::origin();
  ns.receive(f.query_wire("death.example.com"), f.client, 57, t);
  ns.process(t);
  EXPECT_EQ(ns.state(), ServerState::Crashed);
  EXPECT_EQ(ns.lane_stats(0).crashes, 1u);
  ASSERT_TRUE(ns.last_qod());
  EXPECT_EQ(ns.last_qod()->name.to_string(), "death.example.com.");
  EXPECT_EQ(ns.firewall().rule_count(t), 1u);

  // Monitoring agent restarts the machine; the firewall rule now shields
  // the nameserver from the same QoD.
  ns.restart(t);
  EXPECT_TRUE(ns.running());
  ns.receive(f.query_wire("death.example.com"), f.client, 57, t);
  EXPECT_EQ(ns.defense().lane_stats(0).drops[DropReason::Firewall], 1u);
  EXPECT_EQ(ns.process(t), 0u);
  EXPECT_TRUE(ns.running());  // survived

  // Dissimilar queries continue to be answered.
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  ns.process(t);
  EXPECT_EQ(f.responses.size(), 1u);
}

TEST(Nameserver, QodWithoutTrapCrashesRepeatedly) {
  Fixture f;
  NameserverConfig config;
  config.qod_trap_enabled = false;
  auto ns = f.make(config);
  ns.set_crash_predicate([](const dns::Question& q) {
    return q.name == DnsName::from("death.example.com");
  });
  auto t = SimTime::origin();
  for (int round = 0; round < 3; ++round) {
    ns.receive(f.query_wire("death.example.com"), f.client, 57, t);
    ns.process(t);
    EXPECT_EQ(ns.state(), ServerState::Crashed);
    ns.restart(t);
  }
  EXPECT_EQ(ns.lane_stats(0).crashes, 3u);
  EXPECT_EQ(ns.firewall().rule_count(t), 0u);
}

TEST(Nameserver, CrashRateLimitedToOncePerTQod) {
  Fixture f;
  NameserverConfig config;
  config.qod_trap_enabled = true;
  config.qod_rule_ttl = Duration::minutes(10);
  auto ns = f.make(config);
  ns.set_crash_predicate([](const dns::Question& q) {
    return q.name == DnsName::from("death.example.com");
  });
  auto t = SimTime::origin();
  int crashes = 0;
  // QoD arrives once a minute for an hour.
  for (int minute = 0; minute < 60; ++minute) {
    ns.receive(f.query_wire("death.example.com"), f.client, 57, t);
    ns.process(t);
    if (ns.state() == ServerState::Crashed) {
      ++crashes;
      ns.restart(t);
    }
    t += Duration::minutes(1);
  }
  // Rule TTL 10 min -> at most ~6 crashes in the hour.
  EXPECT_LE(crashes, 7);
  EXPECT_GE(crashes, 5);
}

TEST(Nameserver, SelfSuspendStopsServing) {
  Fixture f;
  auto ns = f.make();
  const auto t = SimTime::origin();
  ns.self_suspend();
  EXPECT_EQ(ns.state(), ServerState::SelfSuspended);
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  EXPECT_EQ(ns.lane_stats(0).drops[DropReason::NotRunning], 1u);
  EXPECT_EQ(ns.process(t), 0u);
  ns.resume();
  EXPECT_TRUE(ns.running());
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  EXPECT_EQ(ns.process(t), 1u);
}

TEST(Nameserver, ResumeDoesNotRestartCrashed) {
  Fixture f;
  auto ns = f.make();
  ns.set_crash_predicate([](const dns::Question&) { return true; });
  const auto t = SimTime::origin();
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  ns.process(t);
  ASSERT_EQ(ns.state(), ServerState::Crashed);
  ns.resume();  // resume only lifts self-suspension
  EXPECT_EQ(ns.state(), ServerState::Crashed);
  ns.restart(t);
  EXPECT_TRUE(ns.running());
}

TEST(Nameserver, StalenessDetection) {
  Fixture f;
  NameserverConfig config;
  config.staleness_threshold = Duration::seconds(30);
  auto ns = f.make(config);
  auto t = SimTime::origin();
  ns.metadata_updated(t);
  EXPECT_FALSE(ns.is_stale(t + Duration::seconds(29)));
  EXPECT_TRUE(ns.is_stale(t + Duration::seconds(31)));
  ns.metadata_updated(t + Duration::seconds(31));
  EXPECT_FALSE(ns.is_stale(t + Duration::seconds(40)));
}

TEST(Nameserver, InputDelayedNeverReportsStale) {
  Fixture f;
  NameserverConfig config;
  config.input_delayed = true;
  config.staleness_threshold = Duration::seconds(30);
  auto ns = f.make(config);
  EXPECT_FALSE(ns.is_stale(SimTime::origin() + Duration::days(365)));
}

TEST(Nameserver, ScoringDiscardsDefinitivelyMalicious) {
  Fixture f;
  NameserverConfig config;
  config.queue_config.max_scores = {0.0, 50.0};
  config.queue_config.discard_score = 100.0;
  auto ns = f.make(config);

  // Install a filter that brands one qname as malicious.
  class BrandFilter : public filters::Filter {
   public:
    std::string_view name() const noexcept override { return "brand"; }
    double score(const filters::QueryContext& ctx) override {
      return ctx.question.name == DnsName::from("bad.example.com") ? 500.0 : 0.0;
    }
  };
  ns.scoring().add_filter(std::make_unique<BrandFilter>());

  const auto t = SimTime::origin();
  ns.receive(f.query_wire("bad.example.com"), f.client, 57, t);
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  EXPECT_EQ(ns.defense().lane_stats(0).drops[DropReason::ScoreDiscard], 1u);
  EXPECT_EQ(ns.defense().lane_stats(0).enqueued, 1u);
  ns.process(t);
  EXPECT_EQ(f.responses.size(), 1u);
}

TEST(Nameserver, RestartClearsQueues) {
  Fixture f;
  auto ns = f.make();
  const auto t = SimTime::origin();
  for (int i = 0; i < 10; ++i) {
    ns.receive(f.query_wire("www.example.com", static_cast<std::uint16_t>(i)), f.client, 57, t);
  }
  EXPECT_EQ(ns.pending(), 10u);
  ns.restart(t);
  EXPECT_EQ(ns.pending(), 0u);
}

TEST(Nameserver, ProcessUnmeteredIgnoresCapacity) {
  Fixture f;
  NameserverConfig config;
  config.compute_capacity_qps = 1.0;
  auto ns = f.make(config);
  const auto t = SimTime::origin();
  for (int i = 0; i < 50; ++i) {
    ns.receive(f.query_wire("www.example.com", static_cast<std::uint16_t>(i)), f.client, 57, t);
  }
  EXPECT_EQ(ns.process_unmetered(t, 50), 50u);
  EXPECT_EQ(f.responses.size(), 50u);
}

}  // namespace
}  // namespace akadns::server
