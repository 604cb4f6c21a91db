#include "propagation/zone_journal.hpp"

namespace akadns::propagation {

using zone::ZoneDiff;

void ZoneJournal::append(ZoneDiff delta) {
  ApexLog& log = logs_[delta.apex];
  if (!log.deltas.empty() && log.deltas.back().to_serial != delta.from_serial) {
    log.deltas.clear();
    log.records = 0;
    ++stats_.resets;
  }
  log.records += delta.size();
  log.deltas.push_back(std::move(delta));
  ++stats_.appended;
  enforce_bounds(log);
}

void ZoneJournal::enforce_bounds(ApexLog& log) {
  while (log.deltas.size() > config_.max_deltas_per_apex ||
         (log.records > config_.max_records_per_apex && log.deltas.size() > 1)) {
    log.records -= log.deltas.front().size();
    log.deltas.pop_front();
    ++stats_.evicted;
  }
}

void ZoneJournal::reset(const dns::DnsName& apex) {
  auto it = logs_.find(apex);
  if (it == logs_.end() || it->second.deltas.empty()) return;
  it->second.deltas.clear();
  it->second.records = 0;
  ++stats_.resets;
}

void ZoneJournal::remove(const dns::DnsName& apex) { logs_.erase(apex); }

std::optional<std::vector<ZoneDiff>> ZoneJournal::chain(const dns::DnsName& apex,
                                                        std::uint32_t from_serial,
                                                        std::uint32_t to_serial) const {
  auto miss = [this]() -> std::optional<std::vector<ZoneDiff>> {
    ++stats_.chain_misses;
    return std::nullopt;
  };
  if (from_serial >= to_serial) return miss();
  auto it = logs_.find(apex);
  if (it == logs_.end()) return miss();
  const auto& deltas = it->second.deltas;

  std::vector<ZoneDiff> out;
  bool started = false;
  for (const ZoneDiff& delta : deltas) {
    if (!started) {
      if (delta.from_serial != from_serial) continue;
      started = true;
    }
    out.push_back(delta);
    if (delta.to_serial == to_serial) {
      ++stats_.chain_hits;
      return out;
    }
  }
  // Either the starting serial was already evicted or the log stops
  // short of the target — both are AXFR territory.
  return miss();
}

std::size_t ZoneJournal::delta_count(const dns::DnsName& apex) const {
  auto it = logs_.find(apex);
  return it == logs_.end() ? 0 : it->second.deltas.size();
}

std::size_t ZoneJournal::record_count(const dns::DnsName& apex) const {
  auto it = logs_.find(apex);
  return it == logs_.end() ? 0 : it->second.records;
}

}  // namespace akadns::propagation
