#include "filters/loyalty_filter.hpp"

namespace akadns::filters {

LoyaltyFilter::LoyaltyFilter(Config config) : config_(config) {}

void LoyaltyFilter::learn(const IpAddr& source, SimTime seen_at) {
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    if (sources_.size() >= config_.max_tracked_sources) return;
    // Backdate first_seen so pre-trained sources are already ripe.
    sources_[source] = Membership{seen_at - config_.ripen_after, seen_at};
    return;
  }
  it->second.last_seen = std::max(it->second.last_seen, seen_at);
}

bool LoyaltyFilter::is_loyal(const IpAddr& source, SimTime now) const {
  const auto it = sources_.find(source);
  if (it == sources_.end()) return false;
  const Membership& m = it->second;
  if (now - m.last_seen > config_.expiry) return false;
  return now - m.first_seen >= config_.ripen_after;
}

double LoyaltyFilter::score(const QueryContext& ctx) {
  const bool loyal = is_loyal(ctx.source.addr, ctx.now);
  // Record the sighting either way so legitimate newcomers ripen.
  auto it = sources_.find(ctx.source.addr);
  if (it == sources_.end()) {
    if (sources_.size() < config_.max_tracked_sources) {
      sources_[ctx.source.addr] = Membership{ctx.now, ctx.now};
    }
  } else {
    if (ctx.now - it->second.last_seen > config_.expiry) {
      it->second.first_seen = ctx.now;  // expired: start ripening afresh
    }
    it->second.last_seen = ctx.now;
  }
  if (loyal) return 0.0;
  ++penalized_;
  return config_.penalty;
}

}  // namespace akadns::filters
