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
  if (!replica_.publish_compiled(update.compiled)) {
    // Out-of-order or duplicate delivery; a newer version already won.
    ++stats_.noops;
    return;
  }
  ++stats_.adopted;
  const Duration latency = now - update.published_at;
  const std::uint64_t ns =
      latency.count_nanos() > 0 ? static_cast<std::uint64_t>(latency.count_nanos()) : 0;
  stats_.last_latency_ns = ns;
  if (ns > stats_.max_latency_ns) stats_.max_latency_ns = ns;
}

}  // namespace akadns::propagation
