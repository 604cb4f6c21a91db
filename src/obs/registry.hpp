// The fleet telemetry registry (§3.2, Figure 5): one naming scheme, one
// label model, one scrape path for every metric the reproduction emits.
//
// Design: instruments (obs/instruments.hpp) stay lane/worker-local and
// are written lock-free by their single owner; the registry is a
// *catalog* of references to them, built at startup (registration takes
// a mutex, the hot path never touches the registry). A scrape —
// snapshot() — walks the catalog reading every instrument atomically and
// produces a MetricsSnapshot: plain, copyable data that can be merged
// across workers/machines (the "merge only at scrape/report time"
// contract), rendered as Prometheus-style text exposition or JSON, or
// read back into stats structs through their tables (obs/series.hpp):
// net::render_server_stats for a socket server, control::render_datapath
// for sim machines — two renderers, as the two transports count their
// packets in different families.
//
// Label model (small and static by design):
//   subsystem  producing stage ("udp", "defense", "responder", ...)
//   stage      pipeline stage for latency families
//   worker/lane which shard of the machine
//   machine    which machine of the fleet (sim reports)
//   reason     DropReason taxonomy
//   rcode      response-code split
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "obs/instruments.hpp"

namespace akadns::obs {

struct Label {
  std::string key;
  std::string value;
  bool operator==(const Label&) const = default;
  bool operator<(const Label& o) const {
    return key != o.key ? key < o.key : value < o.value;
  }
};

/// Sorted-by-key label list. Construct via `labels({{"worker","0"}})` or
/// extend a base set with `with(base, "lane", i)`.
using LabelSet = std::vector<Label>;

LabelSet labels(std::initializer_list<Label> init);
LabelSet with(LabelSet base, std::string key, std::string value);
LabelSet with(LabelSet base, std::string key, std::uint64_t value);

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// How gauge samples combine when snapshots merge / families aggregate:
/// depths and sizes sum across lanes; watermarks (max latency, age) keep
/// the max.
enum class GaugeAgg : std::uint8_t { Sum, Max };

struct Sample {
  LabelSet labels;
  std::uint64_t counter = 0;  // MetricKind::Counter
  double gauge = 0.0;         // MetricKind::Gauge
  LogHistogram hist{1.0, 2.0, 1};  // MetricKind::Histogram (placeholder axis otherwise)
};

struct MetricFamily {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::Counter;
  GaugeAgg agg = GaugeAgg::Sum;
  std::vector<Sample> samples;  // sorted by labels
};

/// Plain-data scrape result: merge across sources, query by name, render.
class MetricsSnapshot {
 public:
  /// Folds `other` in: counters sum, gauges combine per family agg,
  /// histograms merge (axes must match), samples matched on
  /// (family name, labels); unmatched samples/families are appended.
  void merge(const MetricsSnapshot& other);

  const MetricFamily* family(std::string_view name) const noexcept;

  /// Sum across the samples whose labels include every entry of
  /// `filter` (0 when none match).
  std::uint64_t sum(std::string_view name, const LabelSet& filter = {}) const noexcept;
  /// Gauge family aggregated per its GaugeAgg across the samples whose
  /// labels include every entry of `filter` (0.0 when none match).
  double gauge_value(std::string_view name, const LabelSet& filter = {}) const noexcept;
  /// The samples of one histogram family whose labels include every
  /// entry of `filter` (e.g. one stage of akadns_stage_latency_ns),
  /// merged into one distribution. Returns an empty default-axis
  /// histogram when the family is absent.
  LogHistogram merged_histogram(std::string_view name, const LabelSet& filter = {}) const;

  std::vector<MetricFamily> families;  // sorted by name
};

class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registration binds a *reference*: the instrument must outlive the
  // registry (instruments live on worker/lane stats structs owned by the
  // server/machine that also owns the registry). Family metadata (kind,
  // help, gauge aggregation) is fixed by the first registration; a
  // mismatched re-registration throws std::invalid_argument, as does a
  // malformed name/label or a duplicate (name, labels) series.
  void counter(std::string_view name, LabelSet ls, const Counter& c,
               std::string_view help = {});
  void gauge(std::string_view name, LabelSet ls, const Gauge& g,
             GaugeAgg agg = GaugeAgg::Sum, std::string_view help = {});
  /// Computed gauge: `fn` runs at snapshot time (must be cheap and safe
  /// to call from the scrape thread — read atomics or immutable state).
  void gauge_fn(std::string_view name, LabelSet ls, std::function<double()> fn,
                GaugeAgg agg = GaugeAgg::Sum, std::string_view help = {});
  void histogram(std::string_view name, LabelSet ls, const Histogram& h,
                 std::string_view help = {});

  /// Reads every registered instrument. Thread-safe against concurrent
  /// registration; instrument reads are relaxed-atomic (single-writer
  /// contract), so this never blocks or perturbs the writers.
  MetricsSnapshot snapshot() const;

 private:
  struct Series;
  struct Family;

  Family& family_for(std::string_view name, MetricKind kind, GaugeAgg agg,
                     std::string_view help);
  void add_series(std::string_view name, MetricKind kind, GaugeAgg agg,
                  std::string_view help, LabelSet ls, Series series);

  mutable std::mutex mutex_;
  std::vector<Family> families_;
};

}  // namespace akadns::obs
