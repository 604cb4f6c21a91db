// Per-machine answer cache for the compiled response path.
//
// Static zone content changes only at publish time, so a fully-built wire
// response stays valid until the shortest TTL it carries expires or a
// zone it read is republished. The cache keys on everything that can
// change the response bytes — qname, qtype, the RD bit, and the query's
// EDNS signature (presence, advertised payload size, and the full
// client-subnet option) — and stores the finished wire image plus the
// statistics the responder would have counted, so a hit is a memcpy with
// a 2-byte transaction-id patch and exact stat parity with a miss.
//
// Each entry also holds the ZoneStamp of every distinct zone its CNAME
// chain read (at most kMaxChainPins, inline). A hit is served only while
// all of them are current, so republishing one apex refuses just the
// answers built from it (counted as `stale`), and the next insert
// overwrites such an entry in place, as it does an expired one. Adding or
// removing an apex can move a name to another zone (a cached NXDOMAIN
// under example.com is wrong once sub.example.com exists), so a move of
// the store's layout generation still clears the whole cache.
//
// Deliberately NOT cached: mapped (GTM/CDN) answers, whose hook runs
// before the cache so dynamic decisions can never be served stale, and
// REFUSED responses, whose keyspace is attacker-controlled (a
// random-qname flood would otherwise evict every real entry). A bounded
// FIFO caps memory; expiry is lazy against simulated time.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ip.hpp"
#include "common/sim_time.hpp"
#include "dns/message.hpp"
#include "obs/series.hpp"
#include "zone/zone_store.hpp"

namespace akadns::server {

/// CNAME links chased within hosted zones; a longer chain (or a loop)
/// answers SERVFAIL.
inline constexpr int kMaxCnameChain = 8;
/// Zones one compiled answer can read: one per link of its chain.
inline constexpr std::size_t kMaxChainPins = kMaxCnameChain + 1;

/// The zone versions one answer was built from: the stamp of each
/// distinct zone its CNAME chain read, held inline (no allocation).
/// Stamps, not snapshots: a stale entry pins no old zone version.
class ChainStamps {
 public:
  /// Records `stamp` unless a stamp of the same zone is already held.
  void add(const zone::ZoneStamp& stamp) noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      if (stamps_[i].same_slot(stamp)) return;
    }
    stamps_[size_++] = stamp;
  }

  /// Whether no zone read has been republished since.
  bool current() const noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      if (!stamps_[i].current()) return false;
    }
    return true;
  }

 private:
  std::uint8_t size_ = 0;
  std::array<zone::ZoneStamp, kMaxChainPins> stamps_;
};

/// The stats a cached response contributed on its original miss, replayed
/// on every hit so ResponderStats counts cached and uncached queries
/// identically.
struct CachedStatDelta {
  dns::Rcode rcode = dns::Rcode::NoError;
  std::uint8_t nodata = 0;
  std::uint8_t referrals = 0;
  std::uint8_t wildcard_answers = 0;
  std::uint8_t cname_chases = 0;
};

class AnswerCache {
 public:
  struct Stats {
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter insertions;  // writes, including refreshes of expired or stale slots
    obs::Counter evictions;
    obs::Counter expired;        // hits refused because the TTL ran out
    obs::Counter stale;          // hits refused because a zone read was republished
    obs::Counter invalidations;  // whole-cache clears: an apex was added or removed

    static constexpr obs::FamilySpec kEvent{"akadns_answer_cache_total", "event",
                                            "answer-cache events"};
    static constexpr obs::SeriesRow<Stats> kSeries[] = {
        {kEvent, "hit", &Stats::hits},
        {kEvent, "miss", &Stats::misses},
        {kEvent, "insertion", &Stats::insertions},
        {kEvent, "eviction", &Stats::evictions},
        {kEvent, "expired", &Stats::expired},
        {kEvent, "stale", &Stats::stale},
        {kEvent, "invalidation", &Stats::invalidations},
    };
  };

  explicit AnswerCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Drops everything when the zone store's layout generation has moved
  /// (an apex was added or removed). Call it before every lookup: it is
  /// what keeps each held ZoneStamp safe to check.
  void sync_generation(std::uint64_t layout_generation);

  /// Looks up a response. On a hit, copies the cached wire into `out`
  /// with the transaction id patched to `id` and returns the stat delta.
  /// Expired entries and entries a republish made stale count as misses
  /// (and as `expired` or `stale`).
  std::optional<CachedStatDelta> lookup(const dns::Question& question, bool rd,
                                        const std::optional<dns::Edns>& edns, SimTime now,
                                        std::uint16_t id, std::vector<std::uint8_t>& out);

  /// Inserts a response built from the zone versions in `reads`, valid
  /// for `ttl_seconds` of simulated time. Overwrites in place if the key
  /// is already present.
  void insert(const dns::Question& question, bool rd, const std::optional<dns::Edns>& edns,
              SimTime now, std::uint32_t ttl_seconds, const CachedStatDelta& delta,
              const ChainStamps& reads, std::span<const std::uint8_t> wire);

  void clear();

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return max_entries_; }
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// Owning key (stored) and borrowed key (probed) share one identity;
  /// the transparent hash/equality below let the hot path probe without
  /// copying the qname.
  struct Key {
    dns::DnsName qname;
    dns::RecordType qtype{};
    bool rd = false;
    bool has_edns = false;
    std::uint16_t udp_payload_size = 0;
    bool has_ecs = false;
    IpAddr ecs_addr{};
    std::uint8_t ecs_source_prefix = 0;
    std::uint8_t ecs_scope_prefix = 0;

    bool operator==(const Key&) const = default;
  };
  struct KeyView {
    const dns::DnsName* qname = nullptr;
    dns::RecordType qtype{};
    bool rd = false;
    bool has_edns = false;
    std::uint16_t udp_payload_size = 0;
    bool has_ecs = false;
    IpAddr ecs_addr{};
    std::uint8_t ecs_source_prefix = 0;
    std::uint8_t ecs_scope_prefix = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Key& k) const noexcept { return mix(k.qname, k); }
    std::size_t operator()(const KeyView& k) const noexcept { return mix(*k.qname, k); }
    template <typename K>
    static std::size_t mix(const dns::DnsName& qname, const K& k) noexcept {
      std::uint64_t h = qname.hash();
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(k.qtype);
      h = h * 0x9e3779b97f4a7c15ULL +
          ((k.rd ? 1u : 0u) | (k.has_edns ? 2u : 0u) | (k.has_ecs ? 4u : 0u));
      h = h * 0x9e3779b97f4a7c15ULL + k.udp_payload_size;
      h = h * 0x9e3779b97f4a7c15ULL + k.ecs_addr.hash();
      h = h * 0x9e3779b97f4a7c15ULL +
          (static_cast<std::uint64_t>(k.ecs_source_prefix) << 8 | k.ecs_scope_prefix);
      return static_cast<std::size_t>(h);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const noexcept { return a == b; }
    bool operator()(const KeyView& a, const Key& b) const noexcept {
      return *a.qname == b.qname && a.qtype == b.qtype && a.rd == b.rd &&
             a.has_edns == b.has_edns && a.udp_payload_size == b.udp_payload_size &&
             a.has_ecs == b.has_ecs && a.ecs_addr == b.ecs_addr &&
             a.ecs_source_prefix == b.ecs_source_prefix &&
             a.ecs_scope_prefix == b.ecs_scope_prefix;
    }
    bool operator()(const Key& a, const KeyView& b) const noexcept { return (*this)(b, a); }
  };

  struct Entry {
    std::vector<std::uint8_t> wire;
    SimTime expires;
    CachedStatDelta delta;
    ChainStamps reads;
  };

  static KeyView make_view(const dns::Question& question, bool rd,
                           const std::optional<dns::Edns>& edns) noexcept;

  std::size_t max_entries_;
  std::uint64_t layout_generation_ = 0;
  std::unordered_map<Key, Entry, KeyHash, KeyEq> entries_;
  /// Insertion order; pointers into the map's stable key storage.
  std::deque<const Key*> fifo_;
  Stats stats_;
};

}  // namespace akadns::server
