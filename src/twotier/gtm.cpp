#include "twotier/gtm.hpp"

#include <cmath>

namespace akadns::twotier {

GtmProperty::GtmProperty(Config config) : config_(std::move(config)) {}

void GtmProperty::add_datacenter(Datacenter datacenter) {
  datacenters_.push_back(std::move(datacenter));
}

bool GtmProperty::set_alive(const std::string& id, bool alive) {
  for (auto& datacenter : datacenters_) {
    if (datacenter.id == id) {
      datacenter.alive = alive;
      return true;
    }
  }
  return false;
}

bool GtmProperty::set_load(const std::string& id, double load) {
  for (auto& datacenter : datacenters_) {
    if (datacenter.id == id) {
      datacenter.load = std::clamp(load, 0.0, 1.0);
      return true;
    }
  }
  return false;
}

std::vector<const Datacenter*> GtmProperty::eligible() const {
  std::vector<const Datacenter*> out;
  for (const auto& datacenter : datacenters_) {
    if (datacenter.alive && datacenter.load < config_.overload_threshold) {
      out.push_back(&datacenter);
    }
  }
  return out;
}

const Datacenter* GtmProperty::pick_failover() const {
  const auto candidates = eligible();
  return candidates.empty() ? nullptr : candidates.front();
}

const Datacenter* GtmProperty::pick_weighted(Rng& rng) const {
  const auto candidates = eligible();
  if (candidates.empty()) return nullptr;
  double total = 0.0;
  for (const auto* datacenter : candidates) total += std::max(datacenter->weight, 0.0);
  if (total <= 0.0) return candidates.front();
  double target = rng.next_double() * total;
  for (const auto* datacenter : candidates) {
    target -= std::max(datacenter->weight, 0.0);
    if (target <= 0.0) return datacenter;
  }
  return candidates.back();
}

const Datacenter* GtmProperty::pick_performance(
    const std::optional<GeoPoint>& client) const {
  const auto candidates = eligible();
  if (candidates.empty()) return nullptr;
  if (!client) return candidates.front();  // unlocatable: failover order
  const Datacenter* best = nullptr;
  double best_distance = 0.0;
  for (const auto* datacenter : candidates) {
    const double dx = datacenter->location.x - client->x;
    const double dy = datacenter->location.y - client->y;
    const double distance = std::sqrt(dx * dx + dy * dy);
    if (!best || distance < best_distance) {
      best = datacenter;
      best_distance = distance;
    }
  }
  return best;
}

dns::ResourceRecord GtmProperty::record_for(const Datacenter& datacenter) const {
  if (datacenter.address.is_v6()) {
    return dns::make_aaaa(config_.hostname, datacenter.address.v6(), config_.ttl);
  }
  return dns::make_a(config_.hostname, datacenter.address.v4(), config_.ttl);
}

std::vector<dns::ResourceRecord> GtmProperty::answer(
    const std::optional<GeoPoint>& client_location, Rng& rng) const {
  const Datacenter* picked = nullptr;
  switch (config_.policy) {
    case GtmPolicy::Failover: picked = pick_failover(); break;
    case GtmPolicy::WeightedRoundRobin: picked = pick_weighted(rng); break;
    case GtmPolicy::Performance: picked = pick_performance(client_location); break;
  }
  if (!picked) return {};
  return {record_for(*picked)};
}

}  // namespace akadns::twotier
