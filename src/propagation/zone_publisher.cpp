#include "propagation/zone_publisher.hpp"

#include <utility>

namespace akadns::propagation {

using zone::CompiledZonePtr;
using zone::Zone;
using zone::ZoneDiff;
using zone::ZonePtr;

// ---------------------------------------------------------------------------
// Subscription
// ---------------------------------------------------------------------------

void Subscription::push(ZoneUpdatePtr update) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(update));
    pending_.store(true, std::memory_order_release);
  }
  // Wake outside the queue lock so a wake that blocks (it should not)
  // cannot hold up a drain.
  if (wake_) wake_();
}

std::vector<ZoneUpdatePtr> Subscription::drain() {
  std::lock_guard lock(mutex_);
  std::vector<ZoneUpdatePtr> out(queue_.begin(), queue_.end());
  queue_.clear();
  pending_.store(false, std::memory_order_release);
  return out;
}

// ---------------------------------------------------------------------------
// ZonePublisher
// ---------------------------------------------------------------------------

Result<ZoneUpdatePtr> ZonePublisher::publish(Zone zone) {
  return publish(std::make_shared<const Zone>(std::move(zone)));
}

Result<ZoneUpdatePtr> ZonePublisher::publish(ZonePtr zone) {
  Result<ZoneUpdatePtr> result = [&] {
    std::lock_guard lock(mutex_);
    return publish_locked(std::move(zone));
  }();
  // Fan out after dropping the publisher lock: a wake callback may probe
  // the publisher, and subscribers tolerate out-of-order delivery (serial
  // checks make stale updates no-ops).
  if (result.ok()) fanout(result.value());
  return result;
}

Result<ZoneUpdatePtr> ZonePublisher::publish_locked(ZonePtr zone) {
  auto fail = [](std::string what) { return Result<ZoneUpdatePtr>::failure(std::move(what)); };
  const dns::DnsName apex = zone->apex();
  const CompiledZonePtr current = master_.find_compiled(apex);

  if (current) {
    if (current->serial() >= zone->serial()) {
      ++stats_.rejected_serial;
      return fail("serial regression at " + apex.to_string() + ": have " +
                  std::to_string(current->serial()) + ", offered " +
                  std::to_string(zone->serial()));
    }

    // diff_zones() excludes the SOA, so rdata-level SOA drift (mname,
    // refresh, ...) is invisible to the delta path. Detect it by
    // serial-patching the base SOA: if that is not the new SOA, only a
    // full publish carries the change.
    const auto base_soa = current->zone().soa();
    const auto new_soa = zone->soa();
    bool soa_drift = !base_soa || !new_soa;
    if (!soa_drift) {
      dns::ResourceRecord expected = *base_soa;
      std::get<dns::SoaRecord>(expected.rdata).serial = zone->serial();
      soa_drift = !(expected == *new_soa);
    }

    if (!soa_drift) {
      ZoneDiff diff = zone::diff_zones(current->zone(), *zone);
      auto applied = master_.apply_delta(diff);
      if (applied.ok()) {
        journal_.append(std::move(diff));
        ++stats_.published;
        ++stats_.incremental;
        return make_update(std::move(applied).take());
      }
      // The diff came from the stored base, so failure here means the
      // base itself is inconsistent — the full path below still works.
    } else {
      ++stats_.soa_drift_fallbacks;
    }
  }

  if (!master_.publish(zone)) {
    ++stats_.rejected_serial;
    return fail("serial regression at " + apex.to_string());
  }
  // A full publish severs delta history: replicas behind this version
  // must take the snapshot, not a chain spanning it.
  journal_.reset(apex);
  ++stats_.published;
  ++stats_.full;
  return make_update(master_.find_compiled(apex));
}

Result<ZoneUpdatePtr> ZonePublisher::apply_chain(std::span<const ZoneDiff> chain) {
  auto fail = [](std::string what) { return Result<ZoneUpdatePtr>::failure(std::move(what)); };
  if (chain.empty()) return fail("empty delta chain");
  const dns::DnsName& apex = chain.front().apex;

  Result<ZoneUpdatePtr> result = [&]() -> Result<ZoneUpdatePtr> {
    std::lock_guard lock(mutex_);
    const CompiledZonePtr held = master_.find_compiled(apex);
    if (!held) return fail("no zone at " + apex.to_string() + " (fall back to AXFR)");

    // Journal tails overlap what we already hold; skip the covered prefix.
    std::size_t start = 0;
    while (start < chain.size() && chain[start].to_serial <= held->serial()) ++start;
    if (start == chain.size()) return ZoneUpdatePtr{};  // already current: no-op

    const std::span<const ZoneDiff> rest = chain.subspan(start);
    auto applied = master_.apply_chain(rest);
    if (!applied) return fail(applied.error());
    for (const ZoneDiff& delta : rest) journal_.append(delta);
    ++stats_.published;
    ++stats_.chains_applied;
    stats_.incremental += rest.size();
    return make_update(std::move(applied).take());
  }();

  if (result.ok() && result.value()) fanout(result.value());
  return result;
}

void ZonePublisher::adopt(const zone::ZoneStore& store) {
  std::lock_guard lock(mutex_);
  master_.adopt(store);
}

SubscriptionPtr ZonePublisher::subscribe(std::function<void()> wake) {
  auto sub = std::make_shared<Subscription>();
  sub->wake_ = std::move(wake);
  std::lock_guard lock(mutex_);
  subs_.push_back(sub);
  return sub;
}

void ZonePublisher::seed(zone::ZoneStore& replica) const {
  std::lock_guard lock(mutex_);
  replica.adopt(master_);
}

ZoneUpdatePtr ZonePublisher::make_update(CompiledZonePtr compiled) const {
  return std::make_shared<const ZoneUpdate>(ZoneUpdate{std::move(compiled), clock_.now()});
}

void ZonePublisher::fanout(const ZoneUpdatePtr& update) {
  std::vector<SubscriptionPtr> targets;
  {
    std::lock_guard lock(mutex_);
    targets.reserve(subs_.size());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      if (SubscriptionPtr sub = subs_[i].lock()) {
        targets.push_back(std::move(sub));
        // Guard against self-move: assigning subs_[i] onto itself leaves
        // the weak_ptr in an unspecified (empty) state and would silently
        // drop the subscription after its first fanout.
        if (kept != i) subs_[kept] = std::move(subs_[i]);
        ++kept;
      }
    }
    subs_.resize(kept);  // dead subscriptions drop out of the fanout set
  }
  for (const SubscriptionPtr& sub : targets) sub->push(update);
}

std::optional<std::vector<ZoneDiff>> ZonePublisher::chain(const dns::DnsName& apex,
                                                          std::uint32_t from_serial,
                                                          std::uint32_t to_serial) const {
  std::lock_guard lock(mutex_);
  return journal_.chain(apex, from_serial, to_serial);
}

CompiledZonePtr ZonePublisher::snapshot(const dns::DnsName& apex) const {
  std::lock_guard lock(mutex_);
  return master_.find_compiled(apex);
}

std::vector<dns::DnsName> ZonePublisher::apexes() const {
  std::lock_guard lock(mutex_);
  return master_.zone_apexes();
}

std::size_t ZonePublisher::zone_count() const {
  std::lock_guard lock(mutex_);
  return master_.zone_count();
}

PublisherStats ZonePublisher::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

JournalStats ZonePublisher::journal_stats() const {
  std::lock_guard lock(mutex_);
  return journal_.stats();
}

void ZonePublisher::register_metrics(obs::MetricRegistry& reg,
                                     const obs::LabelSet& base) const {
  obs::register_series(reg, base, stats_);
  obs::register_series(reg, base, journal_.stats());
  obs::register_series(reg, base, master_.compile_stats());
}

}  // namespace akadns::propagation
