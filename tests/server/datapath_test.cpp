// The QueryContext pipeline: malformed wires die at receive() with a
// Malformed drop (never crash, never enqueue), the buffer pool recycles
// packet storage, per-stage telemetry records every packet, and the
// drop taxonomy keeps the conservation invariant
//   packets_received == responses_sent + nameserver drops
//                       + defense-engine drops + pending,
// with each drop counted once, by the layer that decided it.
#include <gtest/gtest.h>

#include "dns/wire.hpp"
#include "server/nameserver.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::server {
namespace {

using dns::DnsName;
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

  static std::uint64_t conservation_gap(const Nameserver& ns) {
    const auto& s = ns.lane_stats(0);
    return s.packets_received - (s.responses_sent + s.drops.total() +
                                 ns.defense().lane_stats(0).drops.total() + ns.pending());
  }
};

/// A 12-byte header claiming one question, followed by `question_bytes`.
std::vector<std::uint8_t> header_plus(std::vector<std::uint8_t> question_bytes) {
  static constexpr std::uint8_t kHeader[] = {0x12, 0x34, 0x00, 0x00, 0x00, 0x01,
                                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  question_bytes.insert(question_bytes.begin(), std::begin(kHeader), std::end(kHeader));
  return question_bytes;
}

TEST(Datapath, TruncatedHeaderDropsAsMalformed) {
  Fixture f;
  auto ns = f.make();
  ns.receive(std::vector<std::uint8_t>{1, 2, 3}, f.client, 57, SimTime::origin());
  EXPECT_EQ(ns.lane_stats(0).drops[DropReason::Malformed], 1u);
  EXPECT_EQ(ns.pending(), 0u);
  ns.process(SimTime::origin());
  EXPECT_TRUE(f.responses.empty());
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);
}

TEST(Datapath, TruncatedQuestionDropsAsMalformed) {
  Fixture f;
  auto ns = f.make();
  // Name starts with a 5-byte label but the wire ends after 3 bytes.
  ns.receive(header_plus({5, 'w', 'w'}), f.client, 57, SimTime::origin());
  EXPECT_EQ(ns.lane_stats(0).drops[DropReason::Malformed], 1u);
  EXPECT_EQ(ns.pending(), 0u);
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);
}

TEST(Datapath, CompressionPointerLoopsDropAsMalformed) {
  Fixture f;
  auto ns = f.make();
  // Self-pointing name at offset 12 (0xC00C -> 12).
  ns.receive(header_plus({0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01}), f.client, 57,
             SimTime::origin());
  // Two-pointer cycle: offset 12 -> 14 -> 12.
  ns.receive(header_plus({0xC0, 0x0E, 0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01}), f.client, 57,
             SimTime::origin());
  EXPECT_EQ(ns.lane_stats(0).drops[DropReason::Malformed], 2u);
  EXPECT_EQ(ns.pending(), 0u);
  ns.process(SimTime::origin());
  EXPECT_TRUE(f.responses.empty());
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);
}

TEST(Datapath, BufferPoolRecyclesPacketStorage) {
  Fixture f;
  auto ns = f.make();
  auto t = SimTime::origin();
  for (int i = 0; i < 10; ++i) {
    ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
    ns.process(t);
    t += Duration::millis(1);
  }
  const auto& pool = ns.pool().stats();
  EXPECT_EQ(pool.acquired, 10u);
  // The first lease allocates; every later one reuses the returned buffer.
  EXPECT_EQ(pool.allocated, 1u);
  EXPECT_EQ(pool.reused, 9u);
  EXPECT_EQ(f.responses.size(), 10u);
}

TEST(Datapath, TelemetryRecordsEveryStage) {
  Fixture f;
  auto ns = f.make();
  const auto t = SimTime::origin();
  ns.receive(f.query_wire("www.example.com"), f.client, 57, t);
  ns.receive(std::vector<std::uint8_t>{1, 2, 3}, f.client, 57, t);  // malformed
  ns.process(t + Duration::micros(250));
  // Stage telemetry is read the way every consumer reads it now: a
  // registry snapshot, with per-stage counts as label-filtered merges.
  obs::MetricRegistry reg;
  ns.register_metrics(reg, {});
  const auto snap = reg.snapshot();
  const auto stage_count = [&](Stage s) {
    return snap.merged_histogram("akadns_stage_latency_ns",
                                 obs::labels({{"stage", std::string(to_string(s))}}))
        .count();
  };
  EXPECT_EQ(stage_count(Stage::Receive), 2u);  // every packet
  EXPECT_EQ(stage_count(Stage::Parse), 2u);    // both attempted the decode
  EXPECT_EQ(stage_count(Stage::Score), 1u);    // malformed never scored
  EXPECT_EQ(stage_count(Stage::Resolve), 1u);
  const auto queue_wait = snap.merged_histogram("akadns_queue_wait_us");
  EXPECT_EQ(queue_wait.count(), 1u);
  // Queue wait is recorded in simulated microseconds.
  EXPECT_NEAR(queue_wait.mean(), 250.0, 1e-6);
}

TEST(Datapath, RestartFlushAccountsQueuedQueries) {
  Fixture f;
  auto ns = f.make();
  ns.set_crash_predicate([](const dns::Question& q) {
    return q.name == DnsName::from("death.example.com");
  });
  const auto t = SimTime::origin();
  ns.receive(f.query_wire("death.example.com"), f.client, 57, t);
  ns.receive(f.query_wire("www.example.com", 2), f.client, 57, t);
  ns.receive(f.query_wire("www.example.com", 3), f.client, 57, t);
  ns.process(t);  // first query kills the instance
  EXPECT_EQ(ns.state(), ServerState::Crashed);
  EXPECT_EQ(ns.lane_stats(0).drops[DropReason::QueryOfDeath], 1u);
  EXPECT_EQ(ns.pending(), 2u);
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);

  ns.restart(t + Duration::seconds(1));
  EXPECT_EQ(ns.defense().lane_stats(0).drops[DropReason::RestartFlush], 2u);
  EXPECT_EQ(ns.pending(), 0u);
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);
}

TEST(Datapath, EveryReceiveSideDropKeepsConservation) {
  Fixture f;
  // Small I/O burst (100 qps -> 5 tokens) and a one-slot queue so every
  // overload path triggers within a handful of packets.
  NameserverConfig config;
  config.io_capacity_qps = 100.0;
  config.queue_config.queue_capacity = 1;
  config.queue_config.discard_score = 50.0;
  auto ns = f.make(std::move(config));
  ns.scoring().add_filter([] {
    class Hostile : public filters::Filter {
     public:
      std::string_view name() const noexcept override { return "hostile"; }
      double score(const filters::QueryContext& ctx) override {
        return ctx.question.name.labels().front() == "evil" ? 100.0 : 0.0;
      }
    };
    return std::make_unique<Hostile>();
  }());

  const auto t = SimTime::origin();
  ns.firewall().install(
      dns::Question{DnsName::from("blocked.example.com"), RecordType::A,
                    dns::RecordClass::IN},
      t, Duration::minutes(5));

  ns.receive(f.query_wire("blocked.example.com"), f.client, 57, t);      // firewall
  ns.receive(f.query_wire("evil.example.com", 2), f.client, 57, t);      // score discard
  ns.receive(f.query_wire("www.example.com", 3), f.client, 57, t);      // enqueued
  ns.receive(f.query_wire("www.example.com", 4), f.client, 57, t);      // queue full
  ns.receive(std::vector<std::uint8_t>{9}, f.client, 57, t);            // malformed
  ns.receive(f.query_wire("www.example.com", 5), f.client, 57,
             t + Duration::millis(1));                                   // io overload
  ns.self_suspend();
  ns.receive(f.query_wire("www.example.com", 6), f.client, 57, t);      // not running
  ns.resume();

  const auto& s = ns.lane_stats(0);
  const auto& d = ns.defense().lane_stats(0);
  EXPECT_EQ(d.drops[DropReason::Firewall], 1u);
  EXPECT_EQ(d.drops[DropReason::ScoreDiscard], 1u);
  EXPECT_EQ(d.drops[DropReason::QueueFull], 1u);
  EXPECT_EQ(s.drops[DropReason::Malformed], 1u);
  EXPECT_EQ(d.drops[DropReason::IoOverload], 1u);
  EXPECT_EQ(s.drops[DropReason::NotRunning], 1u);
  EXPECT_EQ(s.packets_received, 7u);
  EXPECT_EQ(ns.pending(), 1u);
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);

  ns.process(t + Duration::seconds(1));
  EXPECT_EQ(s.responses_sent, 1u);
  EXPECT_EQ(ns.pending(), 0u);
  EXPECT_EQ(Fixture::conservation_gap(ns), 0u);
}

TEST(Datapath, EveryDropIsCountedOnce) {
  // The receive-side traffic above, plus a query-of-death and a restart
  // flush, over two lanes: every sim drop reason fires exactly once.
  Fixture f;
  NameserverConfig config;
  config.lanes = 2;
  config.io_capacity_qps = 100.0;
  config.queue_config.queue_capacity = 1;
  config.queue_config.discard_score = 50.0;
  auto ns = f.make(std::move(config));
  class Hostile : public filters::Filter {
   public:
    std::string_view name() const noexcept override { return "hostile"; }
    double score(const filters::QueryContext& ctx) override {
      const auto& label = ctx.question.name.labels().front();
      if (label == "evil") return 100.0;  // >= S_max: discarded
      if (label == "odd") return 10.0;    // penalty queue 1
      return 0.0;
    }
  };
  ns.install_filter([](std::size_t, std::size_t) { return std::make_unique<Hostile>(); });
  ns.set_crash_predicate([](const dns::Question& q) {
    return q.name == DnsName::from("death.example.com");
  });
  Endpoint other = f.client;
  while (ns.lane_of(other) == ns.lane_of(f.client)) ++other.port;

  const auto t = SimTime::origin();
  ns.firewall().install(
      dns::Question{DnsName::from("blocked.example.com"), RecordType::A,
                    dns::RecordClass::IN},
      t, Duration::minutes(5));
  ns.receive(f.query_wire("blocked.example.com"), f.client, 57, t);  // firewall
  ns.receive(f.query_wire("evil.example.com", 2), f.client, 57, t);  // score discard
  ns.receive(f.query_wire("www.example.com", 3), f.client, 57, t);   // enqueued
  ns.receive(f.query_wire("www.example.com", 4), f.client, 57, t);   // queue full
  ns.receive(std::vector<std::uint8_t>{9}, f.client, 57, t);         // malformed
  const auto t1 = t + Duration::millis(1);
  ns.receive(f.query_wire("www.example.com", 5), f.client, 57, t1);  // io overload
  ns.self_suspend();
  ns.receive(f.query_wire("www.example.com", 6), f.client, 57, t1);  // not running
  ns.resume();

  const auto t2 = t + Duration::seconds(1);
  ns.receive(f.query_wire("www.example.com", 7), other, 57, t2);  // the other lane
  ns.process(t2);                                                  // answers #3 and #7
  const auto t3 = t + Duration::seconds(2);
  ns.receive(f.query_wire("death.example.com", 8), f.client, 57, t3);
  ns.receive(f.query_wire("odd.example.com", 9), f.client, 57, t3);
  ns.process(t3);  // the query-of-death crashes the instance; "odd" stays queued
  ASSERT_EQ(ns.state(), ServerState::Crashed);
  ns.restart(t3 + Duration::seconds(1));  // restart flush
  EXPECT_EQ(f.responses.size(), 2u);

  obs::MetricRegistry reg;
  ns.register_metrics(reg, {});
  const auto snap = reg.snapshot();
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const auto reason = static_cast<DropReason>(i);
    SCOPED_TRACE(std::string(to_string(reason)));
    const auto by_reason = obs::labels({{"reason", std::string(to_string(reason))}});
    const std::uint64_t decided_here = snap.sum("akadns_drops_total", by_reason);
    const std::uint64_t decided_by_engine = snap.sum("akadns_defense_drops_total", by_reason);
    EXPECT_FALSE(decided_here > 0 && decided_by_engine > 0);
    EXPECT_EQ(decided_here + decided_by_engine, reason == DropReason::NicFailure ? 0u : 1u);
  }
  for (std::size_t lane = 0; lane < ns.lane_count(); ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    const obs::LabelSet l = obs::with({}, "lane", lane);
    EXPECT_EQ(snap.sum("akadns_packets_total", l),
              snap.sum("akadns_responses_sent_total", l) + snap.sum("akadns_drops_total", l) +
                  snap.sum("akadns_defense_drops_total", l) + snap.sum("akadns_pending", l));
  }
  EXPECT_EQ(snap.sum("akadns_packets_total"), 10u);
}

}  // namespace
}  // namespace akadns::server
