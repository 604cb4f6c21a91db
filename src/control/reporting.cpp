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
  out += "  answers: compiled=" + std::to_string(responder.compiled_answers) +
         " cached=" + std::to_string(responder.cache_hits) +
         " interpreted=" + std::to_string(responder.interpreted_answers) +
         " (cache hit rate " + std::to_string(responder.cache_hit_rate() * 100.0) + "%" +
         (answer_cache.evictions ? ", evictions=" + std::to_string(answer_cache.evictions)
                                 : "") +
         (answer_cache.stale ? ", stale=" + std::to_string(answer_cache.stale) : "") +
         (answer_cache.invalidations
              ? ", invalidations=" + std::to_string(answer_cache.invalidations)
              : "") +
         ")\n";
  out += "  publish: compiles=" + std::to_string(compiles.compiles) +
         " incremental=" + std::to_string(compiles.incremental_compiles) +
         " adopted=" + std::to_string(compiles.adopted) +
         " compile_time=" + std::to_string(compiles.total_micros) + "us\n";
  if (zone_sync.updates) {
    out += "  propagation: updates=" + std::to_string(zone_sync.updates) +
           " adopted=" + std::to_string(zone_sync.adopted) +
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

/// Highest numeric value of label `key` in any family, plus one — the
/// series are registered per lane/queue index, so this recovers the
/// widest machine's lane count (resp. deepest queue set) from the
/// snapshot alone.
std::size_t indexed_label_width(const obs::MetricsSnapshot& snap, std::string_view key) {
  std::size_t width = 0;
  for (const auto& fam : snap.families) {
    for (const auto& sample : fam.samples) {
      for (const auto& label : sample.labels) {
        if (label.key != key) continue;
        width = std::max(width, static_cast<std::size_t>(std::stoull(label.value)) + 1);
      }
    }
  }
  return width;
}

void fill_ledger(Ledger& out, const obs::MetricsSnapshot& snap, const obs::LabelSet& filter) {
  const auto ns = obs::read_series<server::NameserverStats>(snap, filter);
  // NIC-level losses never reach the nameserver, so arrivals are the
  // datapath's packet counter plus those drops (the machine layer is the
  // only writer of reason=nic-failure, under no lane label).
  out.packets_received = ns.packets_received + ns.drops[DropReason::NicFailure];
  out.responses_sent = ns.responses_sent;
  out.pending = snap.sum("akadns_pending", filter);
  out.drops = ns.drops;
  obs::read_drop_counters(snap, defense::DefenseLaneStats::kDrops, filter, out.drops);
}

}  // namespace

DatapathReport render_datapath(obs::MetricsSnapshot snapshot) {
  DatapathReport report;
  fill_ledger(report, snapshot, {});
  // Per-lane conservation: lane i summed across every machine (the series
  // carry both machine and lane labels; filtering on lane alone folds the
  // fleet into the per-lane buckets the invariant is asserted over).
  report.lanes.resize(indexed_label_width(snapshot, "lane"));
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    fill_ledger(report.lanes[i], snapshot, obs::with({}, "lane", i));
  }

  report.defense = obs::read_series<defense::DefenseLaneStats>(snapshot);
  report.penalty_queue_depths.resize(indexed_label_width(snapshot, "queue"));
  for (std::size_t q = 0; q < report.penalty_queue_depths.size(); ++q) {
    report.penalty_queue_depths[q] = static_cast<std::size_t>(
        snapshot.sum("akadns_penalty_queue_depth", obs::with({}, "queue", q)));
  }

  report.responder = obs::read_series<server::ResponderStats>(snapshot);
  report.answer_cache = obs::read_series<server::AnswerCache::Stats>(snapshot);
  report.compiles = obs::read_series<zone::CompileStats>(snapshot);
  report.zone_sync = obs::read_series<propagation::ZoneSyncStats>(snapshot);
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
      obs::register_series(reg, base, store->compile_stats());
    }
    merged.merge(reg.snapshot());
  }
  return render_datapath(std::move(merged));
}

}  // namespace akadns::control
