// Round trip through every stats table: give each member a distinct
// value through the table, register the struct under a base label next
// to a second instance under another, and read it back under the base
// label twice — from the registry snapshot and from the parsed text
// exposition. The original and both reads must hold the values given.
// A row that names a member another row already names leaves a value
// overwritten; a row that repeats a label value is a duplicate series,
// refused at registration. A member no row names shows up as missing
// bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <variant>

#include "fleet/anycast_front.hpp"
#include "fleet/probe_suite.hpp"
#include "fleet/supervisor.hpp"
#include "net/server.hpp"
#include "net/zone_sync.hpp"
#include "obs/series.hpp"
#include "pop/machine.hpp"
#include "propagation/transfer_service.hpp"
#include "propagation/zone_journal.hpp"
#include "propagation/zone_publisher.hpp"
#include "propagation/zone_subscriber.hpp"
#include "server/answer_cache.hpp"
#include "server/nameserver.hpp"
#include "server/responder.hpp"
#include "zone/zone_store.hpp"

namespace akadns::obs {
namespace {

/// Every member a row names gets its own value, starting at `first`.
template <typename S>
void fill_distinct(S& s, std::uint64_t first) {
  std::uint64_t next = first;
  for (const SeriesRow<S>& row : S::kSeries) {
    if (const auto* c = std::get_if<Counter S::*>(&row.member)) {
      s.**c = next++;
    } else if (const auto* g = std::get_if<Gauge S::*>(&row.member)) {
      s.**g = static_cast<double>(next++) + 0.5;
    } else {
      DropCounters& drops = s.*std::get<DropCounters S::*>(row.member);
      for (std::size_t i = 0; i < kDropReasonCount; ++i) {
        drops.add(static_cast<DropReason>(i), next++);
      }
    }
  }
}

/// Row k of `s` reads the k-th value fill_distinct(s, first) assigns;
/// fails when two rows name one member, as the later write wins.
template <typename S>
void expect_filled(const S& s, std::uint64_t first) {
  std::uint64_t next = first;
  for (const SeriesRow<S>& row : S::kSeries) {
    SCOPED_TRACE(std::string(row.family.name) + "{" + std::string(row.value) + "}");
    if (const auto* c = std::get_if<Counter S::*>(&row.member)) {
      EXPECT_EQ((s.**c).value(), next++);
    } else if (const auto* g = std::get_if<Gauge S::*>(&row.member)) {
      EXPECT_EQ((s.**g).value(), static_cast<double>(next++) + 0.5);
    } else {
      const DropCounters& drops = s.*std::get<DropCounters S::*>(row.member);
      for (std::size_t i = 0; i < kDropReasonCount; ++i) {
        EXPECT_EQ(drops[static_cast<DropReason>(i)], next++);
      }
    }
  }
}

/// Bytes of S that some row names.
template <typename S>
std::size_t covered_bytes() {
  std::size_t bytes = 0;
  for (const SeriesRow<S>& row : S::kSeries) {
    bytes += std::holds_alternative<Counter S::*>(row.member) ? sizeof(Counter)
             : std::holds_alternative<Gauge S::*>(row.member) ? sizeof(Gauge)
                                                               : sizeof(DropCounters);
  }
  return bytes;
}

template <typename S>
class SeriesTable : public ::testing::Test {};

using Tables =
    ::testing::Types<net::FrontendStats, server::ResponderStats, server::AnswerCache::Stats,
                     server::NameserverStats, pop::MachineStats, defense::DefenseLaneStats,
                     zone::CompileStats, propagation::ZoneSyncStats,
                     propagation::TransferStats, propagation::PublisherStats,
                     propagation::JournalStats, net::SecondaryStats, fleet::FrontStats,
                     fleet::SupervisorStats, fleet::ProbeSuiteStats>;
TYPED_TEST_SUITE(SeriesTable, Tables);

TYPED_TEST(SeriesTable, ReadsBackWhatItRegisters) {
  TypeParam original;
  TypeParam neighbour;
  fill_distinct(original, 1);
  fill_distinct(neighbour, 1000);
  expect_filled(original, 1);
  MetricRegistry reg;
  const LabelSet base = labels({{"worker", "3"}});
  register_series(reg, base, original);
  register_series(reg, labels({{"worker", "4"}}), neighbour);
  const MetricsSnapshot snap = reg.snapshot();

  expect_filled(read_series<TypeParam>(snap, base), 1);
  expect_filled(read_series<TypeParam>(Exposition::parse(render_prometheus(snap)), base), 1);
}

TYPED_TEST(SeriesTable, RowsCoverEveryMember) {
  // The front keeps its flow-table and upstream counters out of /metrics.
  if constexpr (std::is_same_v<TypeParam, fleet::FrontStats>) {
    EXPECT_LT(covered_bytes<TypeParam>(), sizeof(TypeParam));
  } else {
    EXPECT_EQ(covered_bytes<TypeParam>(), sizeof(TypeParam));
  }
}

TEST(SeriesTableRead, SumsCountersAndCombinesGaugesAcrossTheFilter) {
  zone::CompileStats a;
  zone::CompileStats b;
  a.compiles = 2;
  b.compiles = 5;
  a.last_micros = 40.0;
  b.last_micros = 30.0;
  MetricRegistry reg;
  register_series(reg, labels({{"worker", "0"}}), a);
  register_series(reg, labels({{"worker", "1"}}), b);
  const MetricsSnapshot snap = reg.snapshot();
  const auto all = read_series<zone::CompileStats>(snap);
  EXPECT_EQ(all.compiles, 7u);
  EXPECT_EQ(all.last_micros, 40.0);  // GaugeAgg::Max
  const auto from_text = read_series<zone::CompileStats>(
      Exposition::parse(render_prometheus(snap)));
  EXPECT_EQ(from_text.compiles, 7u);
  EXPECT_EQ(from_text.last_micros, 40.0);
}

TEST(SeriesTableRead, FleetCountsAreExposedAsCounters) {
  // akadns-fleet's restart and probe-round counts only ever grow, so
  // /metrics must type them as counters, not gauges.
  fleet::SupervisorConfig fleet_config;
  fleet_config.machines = 0;
  fleet::Supervisor supervisor(fleet_config, nullptr);
  workload::HostedZonesConfig zones_config;
  zones_config.zone_count = 2;
  const workload::HostedZones zones(zones_config, 1);
  fleet::ProbeSuite probes(fleet::ProbeConfig{}, zones, nullptr, nullptr);
  MetricRegistry reg;
  supervisor.register_metrics(reg, {});
  probes.register_metrics(reg, {});
  probes.run_round();  // no targets: the round completes at once

  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE akadns_fleet_restarts_total counter\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE akadns_fleet_probe_rounds_total counter\n"), std::string::npos)
      << text;
  EXPECT_EQ(Exposition::parse(text).sum("akadns_fleet_probe_rounds_total"), 1.0);
}

/// A table whose second row repeats the first row's label value.
struct Twice {
  Counter a;
  Counter b;
  static constexpr FamilySpec kEvent{"akadns_twice_total", "event", "test"};
  static constexpr SeriesRow<Twice> kSeries[] = {
      {kEvent, "same", &Twice::a},
      {kEvent, "same", &Twice::b},
  };
};

TEST(SeriesTableRead, DuplicateLabelValueIsRefusedAtRegistration) {
  MetricRegistry reg;
  const Twice twice;
  EXPECT_THROW(register_series(reg, {}, twice), std::invalid_argument);
}

}  // namespace
}  // namespace akadns::obs
