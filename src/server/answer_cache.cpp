#include "server/answer_cache.hpp"

namespace akadns::server {

AnswerCache::KeyView AnswerCache::make_view(const dns::Question& question, bool rd,
                                            const std::optional<dns::Edns>& edns) noexcept {
  KeyView view;
  view.qname = &question.name;
  view.qtype = question.qtype;
  view.rd = rd;
  if (edns) {
    view.has_edns = true;
    view.udp_payload_size = edns->udp_payload_size;
    if (edns->client_subnet) {
      view.has_ecs = true;
      view.ecs_addr = edns->client_subnet->address;
      view.ecs_source_prefix = edns->client_subnet->source_prefix_len;
      view.ecs_scope_prefix = edns->client_subnet->scope_prefix_len;
    }
  }
  return view;
}

void AnswerCache::sync_generation(std::uint64_t layout_generation) {
  if (layout_generation == layout_generation_) return;
  if (!entries_.empty()) ++stats_.invalidations;
  clear();
  layout_generation_ = layout_generation;
}

void AnswerCache::clear() {
  entries_.clear();
  fifo_.clear();
}

std::optional<CachedStatDelta> AnswerCache::lookup(const dns::Question& question, bool rd,
                                                   const std::optional<dns::Edns>& edns,
                                                   SimTime now, std::uint16_t id,
                                                   std::vector<std::uint8_t>& out) {
  auto it = entries_.find(make_view(question, rd, edns));
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const Entry& entry = it->second;
  // Lazy expiry and staleness: the slot is left for the next insert to
  // overwrite (it still occupies its FIFO position, so it cannot pin
  // memory forever).
  if (entry.expires <= now) {
    ++stats_.expired;
    ++stats_.misses;
    return std::nullopt;
  }
  if (!entry.reads.current()) {
    ++stats_.stale;
    ++stats_.misses;
    return std::nullopt;
  }
  out.assign(entry.wire.begin(), entry.wire.end());
  out[0] = static_cast<std::uint8_t>(id >> 8);
  out[1] = static_cast<std::uint8_t>(id & 0xFF);
  ++stats_.hits;
  return entry.delta;
}

void AnswerCache::insert(const dns::Question& question, bool rd,
                         const std::optional<dns::Edns>& edns, SimTime now,
                         std::uint32_t ttl_seconds, const CachedStatDelta& delta,
                         const ChainStamps& reads, std::span<const std::uint8_t> wire) {
  if (max_entries_ == 0 || wire.size() < 2) return;
  const KeyView view = make_view(question, rd, edns);
  auto it = entries_.find(view);
  if (it == entries_.end()) {
    Key key;
    key.qname = question.name;
    key.qtype = view.qtype;
    key.rd = view.rd;
    key.has_edns = view.has_edns;
    key.udp_payload_size = view.udp_payload_size;
    key.has_ecs = view.has_ecs;
    key.ecs_addr = view.ecs_addr;
    key.ecs_source_prefix = view.ecs_source_prefix;
    key.ecs_scope_prefix = view.ecs_scope_prefix;
    it = entries_.emplace(std::move(key), Entry{}).first;
    fifo_.push_back(&it->first);
  }
  // A present key (expired or stale) is refreshed in place: its FIFO slot
  // is unchanged and its wire buffer keeps its capacity.
  Entry& entry = it->second;
  entry.wire.assign(wire.begin(), wire.end());
  entry.expires = now + Duration::seconds(ttl_seconds);
  entry.delta = delta;
  entry.reads = reads;
  ++stats_.insertions;
  // The entry just written is the FIFO's newest, so it is never the victim.
  while (entries_.size() > max_entries_ && !fifo_.empty()) {
    const Key* oldest = fifo_.front();
    fifo_.pop_front();
    if (auto old_it = entries_.find(*oldest); old_it != entries_.end()) {
      entries_.erase(old_it);
      ++stats_.evictions;
    }
  }
}

}  // namespace akadns::server
