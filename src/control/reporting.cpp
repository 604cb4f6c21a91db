#include "control/reporting.hpp"

#include <algorithm>

namespace akadns::control {

LogHistogram DatapathReport::stage_latency(server::Stage stage) const {
  return snapshot.merged_histogram(
      "akadns_stage_latency_ns",
      obs::labels({{"stage", std::string(server::to_string(stage))}}));
}

LogHistogram DatapathReport::queue_wait() const {
  return snapshot.merged_histogram("akadns_queue_wait_us");
}

std::string DatapathReport::render() const {
  std::string out = "datapath: received=" + std::to_string(packets_received) +
                    " responded=" + std::to_string(responses_sent) +
                    " pending=" + std::to_string(pending) +
                    " dropped=" + std::to_string(drops.total()) +
                    (conservative() ? "" : " [UNACCOUNTED PACKETS]") + "\n";
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const auto reason = static_cast<DropReason>(i);
    if (drops[reason] == 0) continue;
    out += "  drop/";
    out += to_string(reason);
    out += ": " + std::to_string(drops[reason]) + "\n";
  }
  out += "  answers: compiled=" + std::to_string(compiled_answers) +
         " cached=" + std::to_string(cache_hits) +
         " interpreted=" + std::to_string(interpreted_answers) + " (cache hit rate " +
         std::to_string(cache_hit_rate() * 100.0) + "%" +
         (cache_evictions ? ", evictions=" + std::to_string(cache_evictions) : "") +
         (cache_invalidations ? ", invalidations=" + std::to_string(cache_invalidations) : "") +
         ")\n";
  out += "  publish: compiles=" + std::to_string(zone_compiles) +
         " incremental=" + std::to_string(zone_incremental_compiles) +
         " adopted=" + std::to_string(zone_snapshots_adopted) +
         " compile_time=" + std::to_string(zone_compile_micros) + "us\n";
  if (zone_sync.updates) {
    out += "  propagation: updates=" + std::to_string(zone_sync.updates) +
           " adopted=" + std::to_string(zone_sync.adopted) +
           " incremental=" + std::to_string(zone_sync.incremental) +
           " full=" + std::to_string(zone_sync.full) +
           " noops=" + std::to_string(zone_sync.noops) +
           " max_latency=" +
           std::to_string(static_cast<std::uint64_t>(zone_sync.max_latency_ns.value()) / 1000) +
           "us\n";
  }
  out += "  defense: scored=" + std::to_string(defense.scored) +
         " enqueued=" + std::to_string(defense.enqueued) +
         " released=" + std::to_string(defense.released) +
         " shed=" + std::to_string(defense.drops.total()) + "\n";
  if (!penalty_queue_depths.empty()) {
    out += "  penalty_queues:";
    for (std::size_t q = 0; q < penalty_queue_depths.size(); ++q) {
      out += " q" + std::to_string(q) + "=" + std::to_string(penalty_queue_depths[q]);
    }
    out += "\n";
  }
  if (lanes.size() > 1) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const auto& lane = lanes[i];
      out += "  lane[" + std::to_string(i) + "]: received=" +
             std::to_string(lane.packets_received) +
             " responded=" + std::to_string(lane.responses_sent) +
             " pending=" + std::to_string(lane.pending) +
             " dropped=" + std::to_string(lane.drops.total()) +
             (lane.conservative() ? "" : " [UNACCOUNTED PACKETS]") + "\n";
    }
  }
  for (std::size_t s = 0; s < server::kStageCount; ++s) {
    const auto stage = static_cast<server::Stage>(s);
    const LogHistogram h = stage_latency(stage);
    if (h.count() == 0) continue;
    out += "  stage/";
    out += server::to_string(stage);
    out += ": count=" + std::to_string(h.count()) +
           " mean=" + std::to_string(h.mean()) +
           "ns p99=" + std::to_string(h.quantile(0.99)) + "ns\n";
  }
  const LogHistogram qw = queue_wait();
  if (qw.count() > 0) {
    out += "  queue_wait: count=" + std::to_string(qw.count()) +
           " mean=" + std::to_string(qw.mean()) + "us\n";
  }
  return out;
}

namespace {

/// Highest numeric value of label `key` in family `name`, plus one — the
/// series are registered per lane/queue index, so this recovers the
/// widest machine's lane count (resp. deepest queue set) from the
/// snapshot alone.
std::size_t indexed_label_width(const obs::MetricsSnapshot& snap, std::string_view name,
                                std::string_view key) {
  const auto* fam = snap.family(name);
  if (!fam) return 0;
  std::size_t width = 0;
  for (const auto& sample : fam->samples) {
    for (const auto& label : sample.labels) {
      if (label.key != key) continue;
      width = std::max(width, static_cast<std::size_t>(std::stoull(label.value)) + 1);
    }
  }
  return width;
}

void fill_drops(DropCounters& drops, const obs::MetricsSnapshot& snap, const char* family,
                const obs::LabelSet& base) {
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const auto reason = static_cast<DropReason>(i);
    const std::uint64_t n =
        snap.sum(family, obs::with(base, "reason", std::string(to_string(reason))));
    if (n) drops.add(reason, n);
  }
}

}  // namespace

DatapathReport render_datapath(obs::MetricsSnapshot snapshot) {
  DatapathReport report;

  // NIC-level losses never reach the nameserver, so the fleet's arrival
  // count is the datapath's packet counter plus those drops (the machine
  // layer is the only writer of reason=nic-failure).
  const std::uint64_t nic_losses = snapshot.sum(
      "akadns_drops_total",
      obs::labels({{"reason", std::string(to_string(DropReason::NicFailure))}}));
  report.packets_received = snapshot.sum("akadns_packets_total") + nic_losses;
  report.responses_sent = snapshot.sum("akadns_responses_sent_total");
  report.pending = snapshot.sum("akadns_pending");
  // Each drop is counted once, by the layer that decided it: the
  // nameserver and machine in akadns_drops_total, the defense engine in
  // akadns_defense_drops_total. The taxonomy is the sum of both.
  fill_drops(report.drops, snapshot, "akadns_drops_total", {});
  fill_drops(report.drops, snapshot, "akadns_defense_drops_total", {});

  // Per-lane conservation: lane i summed across every machine (the series
  // carry both machine and lane labels; filtering on lane alone folds the
  // fleet into the per-lane buckets the invariant is asserted over).
  report.lanes.resize(indexed_label_width(snapshot, "akadns_packets_total", "lane"));
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const obs::LabelSet lane_filter = obs::with({}, "lane", i);
    auto& lane = report.lanes[i];
    lane.packets_received = snapshot.sum("akadns_packets_total", lane_filter);
    lane.responses_sent = snapshot.sum("akadns_responses_sent_total", lane_filter);
    lane.pending = snapshot.sum("akadns_pending", lane_filter);
    fill_drops(lane.drops, snapshot, "akadns_drops_total", lane_filter);
    fill_drops(lane.drops, snapshot, "akadns_defense_drops_total", lane_filter);
  }

  report.defense.scored = snapshot.sum("akadns_defense_scored_total");
  report.defense.enqueued = snapshot.sum("akadns_defense_enqueued_total");
  report.defense.released = snapshot.sum("akadns_defense_released_total");
  fill_drops(report.defense.drops, snapshot, "akadns_defense_drops_total", {});
  report.penalty_queue_depths.resize(
      indexed_label_width(snapshot, "akadns_penalty_queue_depth", "queue"));
  for (std::size_t q = 0; q < report.penalty_queue_depths.size(); ++q) {
    report.penalty_queue_depths[q] = static_cast<std::size_t>(
        snapshot.sum("akadns_penalty_queue_depth", obs::with({}, "queue", q)));
  }

  const auto path = [&](const char* name) {
    return snapshot.sum("akadns_answer_path_total", obs::labels({{"path", name}}));
  };
  report.compiled_answers = path("compiled");
  report.cache_hits = path("cache");
  report.interpreted_answers = path("interpreted");
  const auto cache_event = [&](const char* name) {
    return snapshot.sum("akadns_answer_cache_total", obs::labels({{"event", name}}));
  };
  report.cache_evictions = cache_event("eviction");
  report.cache_invalidations = cache_event("invalidation");

  const auto compile_path = [&](const char* name) {
    return snapshot.sum("akadns_zone_compile_total", obs::labels({{"path", name}}));
  };
  report.zone_compiles = compile_path("full");
  report.zone_incremental_compiles = compile_path("incremental");
  report.zone_snapshots_adopted = compile_path("adopted");
  report.zone_compile_micros = snapshot.sum("akadns_zone_compile_micros_total");

  const auto sync_event = [&](const char* name) {
    return snapshot.sum("akadns_zone_sync_total", obs::labels({{"event", name}}));
  };
  report.zone_sync.updates = sync_event("update");
  report.zone_sync.noops = sync_event("noop");
  report.zone_sync.adopted = sync_event("adopted");
  report.zone_sync.deltas_applied = sync_event("delta_applied");
  report.zone_sync.incremental = sync_event("incremental");
  report.zone_sync.full = sync_event("full");
  report.zone_sync.last_latency_ns = snapshot.gauge_value("akadns_zone_sync_last_latency_ns");
  report.zone_sync.max_latency_ns = snapshot.gauge_value("akadns_zone_sync_max_latency_ns");

  report.snapshot = std::move(snapshot);
  return report;
}

DatapathReport collect_datapath(const std::vector<pop::Machine*>& fleet) {
  obs::MetricsSnapshot merged;
  std::vector<const zone::ZoneStore*> seen_stores;  // shared stores count once
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    // A throwaway per-machine registry: instruments are referenced in
    // place and read once by snapshot(), so nothing outlives this scope.
    obs::MetricRegistry reg;
    const obs::LabelSet base = obs::with({}, "machine", m);
    fleet[m]->register_metrics(reg, base);
    const zone::ZoneStore* store = &fleet[m]->zone_store();
    if (std::find(seen_stores.begin(), seen_stores.end(), store) == seen_stores.end()) {
      seen_stores.push_back(store);
      store->compile_stats().register_into(reg, base);
    }
    merged.merge(reg.snapshot());
  }
  return render_datapath(std::move(merged));
}

}  // namespace akadns::control
