#include "propagation/zone_subscriber.hpp"

namespace akadns::propagation {

void ZoneSubscriber::attach(ZonePublisher& publisher, std::function<void()> wake) {
  subscription_ = publisher.subscribe(std::move(wake));
  publisher.seed(replica_);
}

std::size_t ZoneSubscriber::poll(Timepoint now) {
  if (!subscription_) return 0;
  std::vector<ZoneUpdatePtr> updates = subscription_->drain();
  for (const ZoneUpdatePtr& update : updates) apply(*update, now);
  return updates.size();
}

void ZoneSubscriber::apply(const ZoneUpdate& update, Timepoint now) {
  ++stats_.updates;
  const dns::DnsName& apex = update.zone->apex();
  const std::uint32_t target = update.zone->serial();

  const zone::CompiledZonePtr held = replica_.find_compiled(apex);
  if (held && held->serial() >= target) {
    // Out-of-order or duplicate delivery; a newer version already won.
    ++stats_.noops;
    return;
  }

  bool applied = false;
  if (options_.adopt_compiled && update.compiled) {
    applied = replica_.publish_compiled(update.compiled);
    if (applied) ++stats_.adopted;
  }

  if (!applied && held && !update.deltas.empty()) {
    // Replay the contiguous part of the delta window that starts at the
    // replica's serial; any failure mid-chain leaves the replica on a
    // consistent intermediate version and the full path finishes the job.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      const std::uint32_t have = replica_.find_compiled(apex)->serial();
      if (have >= target) break;
      for (const zone::ZoneDiff& delta : update.deltas) {
        if (delta.from_serial != have) continue;
        if (replica_.apply_delta(delta).ok()) {
          ++stats_.deltas_applied;
          progressed = true;
        }
        break;
      }
    }
    applied = replica_.find_compiled(apex)->serial() >= target;
    if (applied) ++stats_.incremental;
  }

  if (!applied) {
    applied = replica_.publish(update.zone);
    if (applied) ++stats_.full;
  }

  if (applied) {
    const Duration latency = now - update.published_at;
    const std::uint64_t ns =
        latency.count_nanos() > 0 ? static_cast<std::uint64_t>(latency.count_nanos()) : 0;
    stats_.last_latency_ns = ns;
    if (ns > stats_.max_latency_ns) stats_.max_latency_ns = ns;
  } else {
    ++stats_.noops;
  }
}

}  // namespace akadns::propagation
