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
  const auto [it, added] = zones_.try_emplace(ApexKey{apex, apex.suffix_hash()});
  if (added) {
    ++apexes_at_depth_[apex.label_count()];
    ++layout_generation_;
  }
  it->second = Slot{std::move(compiled), ++generation_};
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
  if (it != zones_.end() && it->second.compiled->serial() >= zone->serial()) {
    return false;
  }
  store(std::move(zone));
  return true;
}

void ZoneStore::force_publish(Zone zone) {
  force_publish(std::make_shared<const Zone>(std::move(zone)));
}

void ZoneStore::force_publish(ZonePtr zone) { store(std::move(zone)); }

Result<CompiledZonePtr> ZoneStore::apply_chain(std::span<const ZoneDiff> chain) {
  auto fail = [](std::string what) { return Result<CompiledZonePtr>::failure(std::move(what)); };
  if (chain.empty()) return fail("empty delta chain");
  auto it = zones_.find(exact(chain.front().apex));
  if (it == zones_.end()) {
    return fail("no zone at " + chain.front().apex.to_string() + " (fall back to AXFR)");
  }
  // Compile the whole chain off to the side; the store is only touched
  // once every delta has applied. apply_diff checks apex and serial.
  CompiledZonePtr work = it->second.compiled;
  for (const ZoneDiff& diff : chain) {
    auto next = apply_diff(work->zone(), diff);
    if (!next) return fail(next.error());
    work = CompiledZone::compile_incremental(
        *work, std::make_shared<const Zone>(std::move(next).take()), diff);
    ++compile_stats_.incremental_compiles;
    note_compile(*work);
  }
  install(work);
  return work;
}

bool ZoneStore::publish_compiled(CompiledZonePtr compiled, bool force) {
  auto it = zones_.find(exact(compiled->apex()));
  if (!force && it != zones_.end() && it->second.compiled->serial() >= compiled->serial()) {
    return false;
  }
  ++compile_stats_.adopted;
  install(std::move(compiled));
  return true;
}

void ZoneStore::adopt(const ZoneStore& other) {
  zones_.reserve(zones_.size() + other.zones_.size());
  for (const auto& [apex, slot] : other.zones_) publish_compiled(slot.compiled, /*force=*/true);
}

bool ZoneStore::remove(const DnsName& apex) {
  auto it = zones_.find(exact(apex));
  if (it == zones_.end()) return false;
  zones_.erase(it);
  --apexes_at_depth_[apex.label_count()];
  ++generation_;
  ++layout_generation_;
  return true;
}

ZoneHandle ZoneStore::find_best(const DnsName& qname) const noexcept {
  if (zones_.empty()) return {};
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
    if (it != zones_.end()) {
      const Slot& slot = it->second;
      return {slot.compiled, ZoneStamp(&slot.stamp, slot.stamp)};
    }
  }
  return {};
}

ZonePtr ZoneStore::find_best_zone(const DnsName& qname) const {
  CompiledZonePtr best = find_best_compiled(qname);
  return best ? best->source() : nullptr;
}

ZonePtr ZoneStore::find_zone(const DnsName& apex) const {
  auto it = zones_.find(exact(apex));
  return it == zones_.end() ? nullptr : it->second.compiled->source();
}

CompiledZonePtr ZoneStore::find_compiled(const DnsName& apex) const {
  auto it = zones_.find(exact(apex));
  return it == zones_.end() ? nullptr : it->second.compiled;
}

std::size_t ZoneStore::total_records() const noexcept {
  std::size_t total = 0;
  for (const auto& [apex, slot] : zones_) total += slot.compiled->zone().record_count();
  return total;
}

std::vector<DnsName> ZoneStore::zone_apexes() const {
  std::vector<DnsName> out;
  out.reserve(zones_.size());
  for (const auto& [apex, slot] : zones_) out.push_back(apex.name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace akadns::zone
