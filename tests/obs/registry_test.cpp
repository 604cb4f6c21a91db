#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace akadns::obs {
namespace {

TEST(Counter, SingleWriterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c += 4;
  c.add(5);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(static_cast<std::uint64_t>(c), 10u);

  const Counter copy = c;  // copy = detached snapshot
  ++c;
  EXPECT_EQ(copy.value(), 10u);
  EXPECT_EQ(c.value(), 11u);

  Counter assigned;
  assigned = 42;
  EXPECT_EQ(assigned.value(), 42u);
}

TEST(Gauge, SetAndMaxOf) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.max_of(2.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.max_of(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g = 1.0;
  EXPECT_DOUBLE_EQ(static_cast<double>(g), 1.0);
}

TEST(ObsHistogram, RecordsAndSnapshots) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);

  const Histogram copy = h;
  EXPECT_EQ(copy.count(), 100u);
  EXPECT_DOUBLE_EQ(copy.sum(), 5050.0);
}

TEST(Registry, CounterFamiliesSumAcrossLabels) {
  Counter w0, w1;
  w0 += 7;
  w1 += 5;
  MetricRegistry reg;
  reg.counter("akadns_udp_packets_total", labels({{"worker", "0"}}), w0, "per-worker rx");
  reg.counter("akadns_udp_packets_total", labels({{"worker", "1"}}), w1);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.sum("akadns_udp_packets_total"), 12u);
  EXPECT_EQ(snap.sum("akadns_udp_packets_total", labels({{"worker", "1"}})), 5u);
  EXPECT_EQ(snap.sum("akadns_udp_packets_total", labels({{"worker", "0"}})), 7u);
  EXPECT_EQ(snap.sum("no_such_family"), 0u);
  ASSERT_NE(snap.family("akadns_udp_packets_total"), nullptr);
  EXPECT_EQ(snap.family("akadns_udp_packets_total")->help, "per-worker rx");
}

TEST(Registry, SnapshotTracksLiveInstrument) {
  Counter c;
  MetricRegistry reg;
  reg.counter("akadns_events_total", {}, c);
  EXPECT_EQ(reg.snapshot().sum("akadns_events_total"), 0u);
  c += 3;
  EXPECT_EQ(reg.snapshot().sum("akadns_events_total"), 3u);
}

TEST(Registry, GaugeAggregationSumVsMax) {
  Gauge depth0, depth1, watermark0, watermark1;
  depth0.set(10.0);
  depth1.set(32.0);
  watermark0.set(5.0);
  watermark1.set(17.0);
  MetricRegistry reg;
  reg.gauge("akadns_queue_depth", labels({{"lane", "0"}}), depth0, GaugeAgg::Sum);
  reg.gauge("akadns_queue_depth", labels({{"lane", "1"}}), depth1, GaugeAgg::Sum);
  reg.gauge("akadns_latency_watermark_ns", labels({{"lane", "0"}}), watermark0,
            GaugeAgg::Max);
  reg.gauge("akadns_latency_watermark_ns", labels({{"lane", "1"}}), watermark1,
            GaugeAgg::Max);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge_value("akadns_queue_depth"), 42.0);
  EXPECT_DOUBLE_EQ(snap.gauge_value("akadns_latency_watermark_ns"), 17.0);
}

TEST(Registry, GaugeFnRunsAtSnapshotTime) {
  double live = 1.0;
  MetricRegistry reg;
  reg.gauge_fn("akadns_zone_serial_max", {}, [&] { return live; }, GaugeAgg::Max);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge_value("akadns_zone_serial_max"), 1.0);
  live = 99.0;
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge_value("akadns_zone_serial_max"), 99.0);
}

TEST(Registry, HistogramSnapshotIsExact) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i % 250 + 1));
  MetricRegistry reg;
  reg.histogram("akadns_batch_size", {}, h);
  const LogHistogram snap = reg.snapshot().merged_histogram("akadns_batch_size");
  EXPECT_EQ(snap.count(), h.count());
  EXPECT_DOUBLE_EQ(snap.sum(), h.sum());
  EXPECT_DOUBLE_EQ(snap.min(), h.min());
  EXPECT_DOUBLE_EQ(snap.max(), h.max());
}

TEST(Registry, RejectsDuplicatesAndMismatches) {
  Counter c;
  Gauge g;
  MetricRegistry reg;
  reg.counter("akadns_x_total", labels({{"worker", "0"}}), c);
  // duplicate (name, labels)
  EXPECT_THROW(reg.counter("akadns_x_total", labels({{"worker", "0"}}), c),
               std::invalid_argument);
  // same family, different kind
  EXPECT_THROW(reg.gauge("akadns_x_total", labels({{"worker", "1"}}), g),
               std::invalid_argument);
  // malformed names / labels
  EXPECT_THROW(reg.counter("9starts_with_digit", {}, c), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", {}, c), std::invalid_argument);
  EXPECT_THROW(reg.counter("akadns_ok_total", labels({{"bad-key", "v"}}), c),
               std::invalid_argument);
  // gauge agg mismatch within one family
  reg.gauge("akadns_depth", labels({{"lane", "0"}}), g, GaugeAgg::Sum);
  EXPECT_THROW(reg.gauge("akadns_depth", labels({{"lane", "1"}}), g, GaugeAgg::Max),
               std::invalid_argument);
}

TEST(Snapshot, MergeSumsCountersAndRespectsGaugeAgg) {
  Counter c0, c1;
  c0 += 10;
  c1 += 32;
  Gauge max0, max1;
  max0.set(4.0);
  max1.set(9.0);
  MetricRegistry reg0, reg1;
  reg0.counter("akadns_q_total", labels({{"machine", "0"}}), c0);
  reg0.gauge("akadns_age_s", {}, max0, GaugeAgg::Max);
  reg1.counter("akadns_q_total", labels({{"machine", "1"}}), c1);
  reg1.gauge("akadns_age_s", {}, max1, GaugeAgg::Max);

  MetricsSnapshot fleet = reg0.snapshot();
  fleet.merge(reg1.snapshot());
  EXPECT_EQ(fleet.sum("akadns_q_total"), 42u);
  // Same labels on the gauge: merged per family agg (max).
  EXPECT_DOUBLE_EQ(fleet.gauge_value("akadns_age_s"), 9.0);

  // Merging a snapshot with identical labels sums counters sample-wise.
  MetricsSnapshot doubled = reg0.snapshot();
  doubled.merge(reg0.snapshot());
  EXPECT_EQ(doubled.sum("akadns_q_total", labels({{"machine", "0"}})), 20u);
}

TEST(Snapshot, MergedHistogramFoldsAllSamples) {
  Histogram lane0, lane1;
  for (int i = 0; i < 10; ++i) lane0.add(10.0);
  for (int i = 0; i < 30; ++i) lane1.add(1000.0);
  MetricRegistry reg;
  reg.histogram("akadns_lat", labels({{"lane", "0"}}), lane0);
  reg.histogram("akadns_lat", labels({{"lane", "1"}}), lane1);
  const LogHistogram merged = reg.snapshot().merged_histogram("akadns_lat");
  EXPECT_EQ(merged.count(), 40u);
  EXPECT_DOUBLE_EQ(merged.min(), 10.0);
  EXPECT_DOUBLE_EQ(merged.max(), 1000.0);
}

TEST(Registry, LiveScrapeWhileWriterRuns) {
  // The single-writer/many-reader contract: one thread hammers a counter
  // and histogram while another scrapes; every scrape is monotone.
  Counter c;
  Histogram h;
  MetricRegistry reg;
  reg.counter("akadns_hot_total", {}, c);
  reg.histogram("akadns_hot_lat", {}, h);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ++c;
      h.add(42.0);
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    const std::uint64_t now = snap.sum("akadns_hot_total");
    EXPECT_GE(now, last);
    last = now;
    const LogHistogram lat = snap.merged_histogram("akadns_hot_lat");
    EXPECT_LE(lat.count(), c.value());
  }
  stop.store(true);
  writer.join();
  const MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.sum("akadns_hot_total"), c.value());
  EXPECT_EQ(final_snap.merged_histogram("akadns_hot_lat").count(), h.count());
}

TEST(Labels, SortedConstructionAndWith) {
  const LabelSet base = labels({{"worker", "0"}, {"reason", "malformed"}});
  ASSERT_EQ(base.size(), 2u);
  EXPECT_EQ(base[0].key, "reason");  // sorted by key
  const LabelSet extended = with(base, "lane", std::uint64_t{3});
  ASSERT_EQ(extended.size(), 3u);
  EXPECT_EQ(extended[0].key, "lane");
  EXPECT_EQ(extended[0].value, "3");
}

}  // namespace
}  // namespace akadns::obs
