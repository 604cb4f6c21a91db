#include "zone/zone_store.hpp"

#include <algorithm>

namespace akadns::zone {

void ZoneStore::note_compile(const CompiledZone& compiled) {
  compile_stats_.total_micros += compiled.compile_micros();
  compile_stats_.last_micros = compiled.compile_micros();
  compile_stats_.last_nodes = compiled.node_count();
  compile_stats_.last_fragments = compiled.fragment_count();
  compile_stats_.last_reused_nodes = compiled.reused_nodes();
}

void ZoneStore::install(CompiledZonePtr compiled) {
  const DnsName& apex = compiled->apex();
  const std::size_t depth = apex.label_count();
  if (zones_.insert_or_assign(ApexKey{apex, apex.suffix_hash()}, std::move(compiled)).second) {
    ++apexes_at_depth_[depth];
  }
  ++generation_;
}

void ZoneStore::store(ZonePtr zone) {
  CompiledZonePtr compiled = CompiledZone::compile(std::move(zone));
  ++compile_stats_.compiles;
  note_compile(*compiled);
  install(std::move(compiled));
}

bool ZoneStore::publish(Zone zone) {
  return publish(std::make_shared<const Zone>(std::move(zone)));
}

bool ZoneStore::publish(ZonePtr zone) {
  auto it = zones_.find(exact(zone->apex()));
  if (it != zones_.end() && it->second->serial() >= zone->serial()) {
    return false;
  }
  store(std::move(zone));
  return true;
}

void ZoneStore::force_publish(Zone zone) {
  force_publish(std::make_shared<const Zone>(std::move(zone)));
}

void ZoneStore::force_publish(ZonePtr zone) { store(std::move(zone)); }

Result<CompiledZonePtr> ZoneStore::apply_delta(const ZoneDiff& diff) {
  auto fail = [](std::string what) { return Result<CompiledZonePtr>::failure(std::move(what)); };
  auto it = zones_.find(exact(diff.apex));
  if (it == zones_.end()) {
    return fail("no zone at " + diff.apex.to_string() + " (fall back to AXFR)");
  }
  const CompiledZonePtr& current = it->second;
  if (current->serial() != diff.from_serial) {
    return fail("serial mismatch: have " + std::to_string(current->serial()) + ", diff from " +
                std::to_string(diff.from_serial) + " (fall back to AXFR)");
  }
  auto next = apply_diff(current->zone(), diff);
  if (!next) return fail(next.error());
  CompiledZonePtr compiled = CompiledZone::compile_incremental(
      *current, std::make_shared<const Zone>(std::move(next).take()), diff);
  ++compile_stats_.incremental_compiles;
  note_compile(*compiled);
  install(compiled);
  return compiled;
}

bool ZoneStore::publish_compiled(CompiledZonePtr compiled, bool force) {
  auto it = zones_.find(exact(compiled->apex()));
  if (!force && it != zones_.end() && it->second->serial() >= compiled->serial()) {
    return false;
  }
  ++compile_stats_.adopted;
  install(std::move(compiled));
  return true;
}

void ZoneStore::adopt(const ZoneStore& other) {
  zones_.reserve(zones_.size() + other.zones_.size());
  for (const auto& [apex, compiled] : other.zones_) publish_compiled(compiled, /*force=*/true);
}

bool ZoneStore::remove(const DnsName& apex) {
  auto it = zones_.find(exact(apex));
  if (it == zones_.end()) return false;
  zones_.erase(it);
  --apexes_at_depth_[apex.label_count()];
  ++generation_;
  return true;
}

CompiledZonePtr ZoneStore::find_best_compiled(const DnsName& qname) const noexcept {
  if (zones_.empty()) return nullptr;
  const DnsName::Labels labels(qname);
  const std::size_t qn = labels.size();  // <= 127 by DnsName limits
  std::uint64_t hashes[DnsName::kMaxLabels + 1];
  std::uint64_t h = DnsName::kSuffixHashSeed;
  hashes[0] = h;
  for (std::size_t depth = 1; depth <= qn; ++depth) {
    h = DnsName::suffix_hash_extend(h, labels[qn - depth]);
    hashes[depth] = h;
  }
  // Longest-suffix match, deepest first; skip depths with no apex at all.
  for (std::size_t depth = qn + 1; depth-- > 0;) {
    if (apexes_at_depth_[depth] == 0) continue;
    auto it = zones_.find(ApexProbe{labels.tail(depth), hashes[depth]});
    if (it != zones_.end()) return it->second;
  }
  return nullptr;
}

ZonePtr ZoneStore::find_best_zone(const DnsName& qname) const {
  CompiledZonePtr best = find_best_compiled(qname);
  return best ? best->source() : nullptr;
}

ZonePtr ZoneStore::find_zone(const DnsName& apex) const {
  auto it = zones_.find(exact(apex));
  return it == zones_.end() ? nullptr : it->second->source();
}

CompiledZonePtr ZoneStore::find_compiled(const DnsName& apex) const {
  auto it = zones_.find(exact(apex));
  return it == zones_.end() ? nullptr : it->second;
}

std::size_t ZoneStore::total_records() const noexcept {
  std::size_t total = 0;
  for (const auto& [apex, zone] : zones_) total += zone->zone().record_count();
  return total;
}

std::vector<DnsName> ZoneStore::zone_apexes() const {
  std::vector<DnsName> out;
  out.reserve(zones_.size());
  for (const auto& [apex, zone] : zones_) out.push_back(apex.name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace akadns::zone
