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

/// Conservation accounting over the series a label filter selects: the
/// sim nameserver's packet counters, both drop families (each drop is
/// counted once, by the layer that decided it) and the penalty-queue
/// backlog.
struct Ledger {
  std::uint64_t packets_received = 0;  // includes machine-level NIC losses
  std::uint64_t responses_sent = 0;
  std::uint64_t pending = 0;  // still sitting in penalty queues
  DropCounters drops;

  /// Packets with a known fate.
  std::uint64_t accounted() const noexcept {
    return responses_sent + drops.total() + pending;
  }
  /// The invariant: every packet either got a response, was dropped with
  /// a recorded reason, or is still queued.
  bool conservative() const noexcept { return packets_received == accounted(); }
  bool operator==(const Ledger&) const noexcept = default;
};

/// Fleet-wide datapath accounting: the merged drop taxonomy, per-stage
/// telemetry, and the conservation check over every machine's counters.
/// This is the report the NOCC reads to see *where* an attack's packets
/// are dying (firewall vs I/O vs score vs queue — Figure 10's regions).
///
/// The report is a *renderer over a registry snapshot*: collect_datapath
/// registers every machine's instruments under a machine label, merges
/// the per-machine snapshots, and reads the stats structs back through
/// their tables (render_datapath). The same renderer works on any merged
/// snapshot of sim machines — e.g. one assembled from their scrapes.
struct DatapathReport : Ledger {
  /// The merged fleet snapshot the report was rendered from; the stage
  /// telemetry accessors below are label-filtered views of it.
  obs::MetricsSnapshot snapshot;

  /// All machines' and lanes' latency for one pipeline stage, merged.
  LogHistogram stage_latency(server::Stage stage) const;
  /// Simulated queue-wait distribution (arrival → dequeue), merged.
  LogHistogram queue_wait() const;

  /// Conservation accounting per lane index, summed across the fleet
  /// (lane i of every machine) and sized to the widest machine. The
  /// invariant holds per lane exactly as it does fleet-wide — a lane
  /// leaking packets shows up here even when the machine totals still
  /// balance.
  std::vector<Ledger> lanes;

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
  server::ResponderStats responder;
  server::AnswerCache::Stats answer_cache;
  zone::CompileStats compiles;

  // Propagation rollup (§3.2's delivery pipeline): how the fleet's
  // replicas absorbed published zone versions, and the worst observed
  // publish→applied latency on the shared clock axis.
  propagation::ZoneSyncStats zone_sync;

  /// Multi-line human-readable rendering for the Management Portal / NOCC.
  std::string render() const;
};

/// Renders a DatapathReport from an already-merged fleet snapshot (every
/// field is read back through a stats table or merged from the families).
DatapathReport render_datapath(obs::MetricsSnapshot snapshot);

/// Registers every machine in `fleet` into a per-machine registry (under
/// a `machine` label), merges the snapshots, and renders the report.
/// Shared zone stores are registered exactly once.
DatapathReport collect_datapath(const std::vector<pop::Machine*>& fleet);

}  // namespace akadns::control
