// Fleet datapath report (§3.2, Figure 5's Data Collection/Aggregation):
// the sim's conservation check over every machine's counters, rendered
// from the same registry families that /metrics exposes.
#pragma once

#include <string>
#include <vector>

#include "defense/defense_engine.hpp"
#include "obs/registry.hpp"
#include "pop/machine.hpp"
#include "server/nameserver.hpp"

namespace akadns::control {

/// Fleet-wide datapath accounting: the merged drop taxonomy, per-stage
/// telemetry, and the conservation check over every machine's counters.
/// This is the report the NOCC reads to see *where* an attack's packets
/// are dying (firewall vs I/O vs score vs queue — Figure 10's regions).
///
/// The report is a *renderer over a registry snapshot*: collect_datapath
/// registers every machine's instruments under a machine label, merges
/// the per-machine snapshots, and fills these fields from label-filtered
/// sums (render_datapath). The same renderer works on any merged
/// MetricsSnapshot — e.g. one assembled from live /metrics scrapes.
struct DatapathReport {
  std::uint64_t packets_received = 0;  // includes machine-level NIC losses
  std::uint64_t responses_sent = 0;
  std::uint64_t pending = 0;  // still sitting in penalty queues
  DropCounters drops;

  /// The merged fleet snapshot the report was rendered from; the stage
  /// telemetry accessors below are label-filtered views of it.
  obs::MetricsSnapshot snapshot;

  /// All machines' and lanes' latency for one pipeline stage, merged.
  LogHistogram stage_latency(server::Stage stage) const;
  /// Simulated queue-wait distribution (arrival → dequeue), merged.
  LogHistogram queue_wait() const;

  /// Conservation accounting for one lane index, summed across the fleet
  /// (lane i of every machine). The invariant holds per lane exactly as
  /// it does fleet-wide — a lane leaking packets shows up here even when
  /// the machine totals still balance.
  struct LaneReport {
    std::uint64_t packets_received = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t pending = 0;
    DropCounters drops;

    std::uint64_t accounted() const noexcept {
      return responses_sent + drops.total() + pending;
    }
    bool conservative() const noexcept { return packets_received == accounted(); }
    bool operator==(const LaneReport&) const noexcept = default;
  };
  /// Indexed by lane; sized to the widest machine in the fleet.
  std::vector<LaneReport> lanes;

  // Defense-engine accounting (§4.3.3): the fleet's merged filter/queue
  // counters plus the live penalty-queue backlog shape, per priority
  // index — during an attack the NOCC reads the skew (deep high-penalty
  // queues, shallow queue 0) as "the filters are classifying".
  defense::DefenseLaneStats defense;
  std::vector<std::size_t> penalty_queue_depths;

  // Compiled-snapshot datapath: how responses were produced (fragments /
  // answer-cache replay / interpreted Message encoder) and what the
  // publish-time compilation cost — the compile-once/serve-many split the
  // NOCC watches to confirm the fast path is actually carrying traffic.
  std::uint64_t compiled_answers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t interpreted_answers = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t zone_compiles = 0;
  std::uint64_t zone_incremental_compiles = 0;
  std::uint64_t zone_snapshots_adopted = 0;
  std::uint64_t zone_compile_micros = 0;

  // Propagation rollup (§3.2's delivery pipeline): how the fleet's
  // replicas absorbed published zone versions, and the worst observed
  // publish→applied latency on the shared clock axis.
  propagation::ZoneSyncStats zone_sync;

  /// Fraction of fast-path responses served straight from the cache.
  double cache_hit_rate() const noexcept {
    const std::uint64_t fast = cache_hits + compiled_answers;
    return fast ? static_cast<double>(cache_hits) / static_cast<double>(fast) : 0.0;
  }

  /// Packets with a known fate.
  std::uint64_t accounted() const noexcept {
    return responses_sent + drops.total() + pending;
  }
  /// The invariant: every packet either got a response, was dropped with
  /// a recorded reason, or is still queued.
  bool conservative() const noexcept { return packets_received == accounted(); }

  /// Multi-line human-readable rendering for the Management Portal / NOCC.
  std::string render() const;
};

/// Renders a DatapathReport from an already-merged fleet snapshot (every
/// field is a label-filtered sum/merge over the metric families).
DatapathReport render_datapath(obs::MetricsSnapshot snapshot);

/// Registers every machine in `fleet` into a per-machine registry (under
/// a `machine` label), merges the snapshots, and renders the report.
/// Shared zone stores are registered exactly once.
DatapathReport collect_datapath(const std::vector<pop::Machine*>& fleet);

}  // namespace akadns::control
