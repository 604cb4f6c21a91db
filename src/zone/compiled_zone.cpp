#include "zone/compiled_zone.hpp"

#include <algorithm>
#include <chrono>
#include <set>

namespace akadns::zone {

using dns::CnameRecord;
using dns::NsRecord;
using dns::WireFragment;

namespace {

// DnsName caps wire length at 255 octets, so a name can never exceed 127
// labels; the lookup's per-depth hash table lives on the stack.
constexpr std::size_t kMaxDepth = dns::DnsName::kMaxLabels;

std::span<const WireFragment> subspan(const std::vector<WireFragment>& v,
                                      std::uint32_t begin, std::uint32_t end) noexcept {
  return std::span<const WireFragment>(v.data() + begin, end - begin);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) noexcept {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t hash_name(std::uint64_t h, const dns::DnsName& name) {
  const dns::DnsName::Labels labels(name);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    h = fnv1a(h, labels[i].data(), labels[i].size());
    h = fnv1a(h, "\0", 1);
  }
  return fnv1a(h, "\xff", 1);
}

std::uint64_t hash_fragment(std::uint64_t h, const WireFragment& f) {
  h = hash_name(h, *f.owner);
  h = fnv1a(h, f.fixed.data(), f.fixed.size());
  for (const auto& op : f.rdata) {
    h = fnv1a(h, op.literal.data(), op.literal.size());
    if (op.name != nullptr) h = hash_name(h, *op.name);
  }
  return h;
}

}  // namespace

CompiledZone::NodeDataPtr CompiledZone::build_node(const Zone& z, const DnsName& name,
                                                   const DnsName& apex) {
  auto data = std::make_shared<NodeData>();
  data->owner = name;
  // Fragments are first compiled against the source zone's records, then
  // made self-contained (the node outlives the source when shared into
  // later snapshots): owner pointers target the node's own copy, and the
  // other names they point at are copied into `names` below.
  const auto compile_rr = [&data](const dns::ResourceRecord& rr) {
    WireFragment fragment = dns::make_wire_fragment(rr);
    fragment.owner = &data->owner;
    return fragment;
  };

  if (const auto* rrsets = z.rrsets_at(name)) {
    std::size_t records = 0;
    for (const auto& [type, set] : *rrsets) records += set.records.size();
    data->ranges.reserve(rrsets->size());
    data->frags.reserve(records);
    for (const auto& [type, set] : *rrsets) {
      TypeRange range;
      range.type = type;
      range.begin = static_cast<std::uint32_t>(data->frags.size());
      range.ttl = set.ttl();
      for (const auto& rr : set.records) data->frags.push_back(compile_rr(rr));
      range.end = static_cast<std::uint32_t>(data->frags.size());
      data->ranges.push_back(range);
      if (type == RecordType::CNAME && !set.records.empty()) {
        data->cname_target = &std::get<CnameRecord>(set.records.front().rdata).target;
      }
    }
  }

  // A non-apex NS RRset is a zone cut: precompile the whole referral
  // (NS authority, then glue in attach_glue() order — A then AAAA per
  // NS record, duplicates preserved).
  const RrSet* ns = (name == apex) ? nullptr : z.find(name, RecordType::NS);
  if (ns != nullptr && !ns->records.empty()) {
    data->is_cut = true;
    std::uint32_t min_ttl = ns->ttl();
    for (const auto& rr : ns->records) data->referral_frags.push_back(compile_rr(rr));
    data->referral_auth_end = static_cast<std::uint32_t>(data->referral_frags.size());
    for (const auto& rr : ns->records) {
      const DnsName& target = std::get<NsRecord>(rr.rdata).nameserver;
      if (!target.is_subdomain_of(apex)) continue;
      for (const RecordType t : {RecordType::A, RecordType::AAAA}) {
        if (const RrSet* glue = z.find(target, t)) {
          min_ttl = std::min(min_ttl, glue->ttl());
          for (const auto& grr : glue->records) {
            data->referral_frags.push_back(dns::make_wire_fragment(grr));
            data->referral_frags.back().owner = &target;
          }
        }
      }
    }
    data->referral_min_ttl = min_ttl;
  }

  // Every pointer still aimed at the source zone, then each distinct
  // name once, in storage sized here and never grown.
  std::vector<const DnsName**> refs;
  const auto collect = [&refs, &data](std::vector<WireFragment>& frags) {
    for (WireFragment& fragment : frags) {
      if (fragment.owner != &data->owner) refs.push_back(&fragment.owner);
      for (auto& op : fragment.rdata) {
        if (op.name != nullptr) refs.push_back(&op.name);
      }
    }
  };
  collect(data->frags);
  collect(data->referral_frags);
  if (data->cname_target != nullptr) refs.push_back(&data->cname_target);
  if (!refs.empty()) {
    std::vector<const DnsName*> distinct;
    distinct.reserve(refs.size());
    for (const DnsName** ref : refs) distinct.push_back(*ref);
    std::sort(distinct.begin(), distinct.end(),
              [](const DnsName* a, const DnsName* b) { return *a < *b; });
    distinct.erase(std::unique(distinct.begin(), distinct.end(),
                               [](const DnsName* a, const DnsName* b) { return *a == *b; }),
                   distinct.end());
    data->names.reserve(distinct.size());
    for (const DnsName* n : distinct) data->names.push_back(*n);
    for (const DnsName** ref : refs) {
      *ref = &*std::lower_bound(data->names.begin(), data->names.end(), **ref);
    }
  }
  return data;
}

std::int32_t CompiledZone::find_node_index(const DnsName& name) const {
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), name,
                             [](const Node& node, const DnsName& n) { return node.data->owner < n; });
  if (it == nodes_.end() || !(it->data->owner == name)) return -1;
  return static_cast<std::int32_t>(it - nodes_.begin());
}

void CompiledZone::finish(const Zone& z) {
  const DnsName& apex = z.apex();
  const std::size_t apex_depth = apex.label_count();

  // Wildcard links: "*.parent" hangs off its parent node so the
  // closest-encloser check is one indexed load. Version-level (a
  // wildcard sibling appearing must relink an otherwise untouched
  // parent), hence recomputed for every snapshot.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const DnsName& name = nodes_[i].data->owner;
    if (name.label_count() > apex_depth && name.label(0) == "*") {
      const std::int32_t parent = find_node_index(name.parent());
      if (parent >= 0) nodes_[static_cast<std::size_t>(parent)].wildcard = static_cast<std::int32_t>(i);
    }
  }

  // Negative-answer authority: the apex SOA with its TTL clamped to
  // negative_ttl() (RFC 2308), shared by every NXDOMAIN/NODATA.
  negative_soa_.clear();
  if (const RrSet* soa = z.find(apex, RecordType::SOA); soa != nullptr && !soa->records.empty()) {
    negative_ttl_ = z.negative_ttl();
    WireFragment fragment = dns::make_wire_fragment(soa->records.front());
    fragment.set_ttl(negative_ttl_);
    negative_soa_.push_back(std::move(fragment));
  }

  const std::int32_t apex_index = find_node_index(apex);
  apex_node_ = apex_index >= 0 ? static_cast<std::uint32_t>(apex_index) : 0;

  fragment_count_ = negative_soa_.size();
  for (const Node& node : nodes_) {
    fragment_count_ += node.data->frags.size() + node.data->referral_frags.size();
  }
}

CompiledZonePtr CompiledZone::compile(ZonePtr source) {
  const auto t0 = std::chrono::steady_clock::now();
  auto out = std::make_shared<CompiledZone>();
  const Zone& z = *source;
  out->source_ = std::move(source);
  const DnsName& apex = z.apex();
  const std::size_t apex_depth = apex.label_count();

  // 1. Every existing name, with empty non-terminals materialized: each
  //    zone name plus all its ancestors down to the apex. With ENTs
  //    explicit, "some descendant exists" becomes "this name is in the
  //    table", which is what lets lookup() be a pure top-down walk.
  std::set<DnsName> name_set;
  name_set.insert(apex);
  for (const DnsName& name : z.all_names()) {
    DnsName cur = name;
    while (cur.label_count() > apex_depth) {
      if (!name_set.insert(cur).second) break;  // ancestors already present
      cur = cur.parent();
    }
  }

  // 2. Per-node record compilation, in canonical owner order.
  out->nodes_.reserve(name_set.size());
  out->index_.reserve(name_set.size());
  for (const DnsName& name : name_set) {
    out->index_.emplace_back(name.suffix_hash(),
                             static_cast<std::uint32_t>(out->nodes_.size()));
    out->nodes_.push_back(Node{build_node(z, name, apex)});
  }
  std::sort(out->index_.begin(), out->index_.end());

  out->finish(z);
  out->compile_micros_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

CompiledZonePtr CompiledZone::compile_incremental(const CompiledZone& prev, ZonePtr source,
                                                  const ZoneDiff& diff) {
  // A diff that does not line up with the snapshot pair is a caller bug,
  // but a full compile is always a correct answer — never corrupt state.
  if (!(prev.apex() == source->apex()) || !(diff.apex == source->apex()) ||
      prev.serial() != diff.from_serial || source->serial() != diff.to_serial) {
    return compile(std::move(source));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const Zone& z = *source;
  const DnsName& apex = z.apex();
  const std::size_t apex_depth = apex.label_count();

  // 1. Dirty set: owners the diff touches, plus every ancestor up to the
  //    apex (ENTs may appear or vanish; the apex SOA always changes).
  std::set<DnsName> dirty;
  dirty.insert(apex);
  const auto mark = [&dirty, apex_depth](const DnsName& name) {
    DnsName cur = name;
    while (cur.label_count() > apex_depth) {
      if (!dirty.insert(cur).second) break;  // chain above already marked
      cur = cur.parent();
    }
  };
  std::set<DnsName> touched;  // diff record owners only (glue dependency probes)
  for (const auto& rr : diff.deletions) {
    mark(rr.name);
    touched.insert(rr.name);
  }
  for (const auto& rr : diff.additions) {
    mark(rr.name);
    touched.insert(rr.name);
  }
  // 2. Glue dependents: a delegation cut bakes its targets' A/AAAA into
  //    the referral group, so a change at a target rebuilds the cut too.
  const auto glue_touched = [&touched](const NodeData& cut) {
    for (std::uint32_t i = 0; i < cut.referral_auth_end; ++i) {
      for (const auto& op : cut.referral_frags[i].rdata) {
        if (op.name != nullptr && touched.contains(*op.name)) return true;
      }
    }
    return false;
  };
  for (const Node& node : prev.nodes_) {
    if (node.data->is_cut && glue_touched(*node.data)) mark(node.data->owner);
  }

  auto out = std::make_shared<CompiledZone>();
  out->source_ = std::move(source);
  out->incremental_ = true;

  // 3. Sorted merge of the previous node table with the dirty set:
  //    untouched nodes are shared, dirty-and-existing nodes rebuilt,
  //    dirty-and-gone nodes dropped, new names inserted in place.
  out->nodes_.reserve(prev.nodes_.size() + dirty.size());
  std::vector<std::int32_t> old_to_new(prev.nodes_.size(), -1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> fresh_index;
  const auto emit_if_exists = [&](const DnsName& name) {
    if (!(name == apex) && !z.subtree_exists(name)) return;
    out->nodes_.push_back(Node{build_node(z, name, apex)});
  };
  auto dirty_it = dirty.begin();
  for (std::size_t i = 0; i < prev.nodes_.size(); ++i) {
    const DnsName& owner = prev.nodes_[i].data->owner;
    while (dirty_it != dirty.end() && *dirty_it < owner) {
      const std::size_t before = out->nodes_.size();
      emit_if_exists(*dirty_it);  // brand-new name
      if (out->nodes_.size() > before) {
        fresh_index.emplace_back(dirty_it->suffix_hash(),
                                 static_cast<std::uint32_t>(before));
      }
      ++dirty_it;
    }
    if (dirty_it != dirty.end() && *dirty_it == owner) {
      const std::size_t before = out->nodes_.size();
      emit_if_exists(owner);  // rebuilt (or removed when gone)
      if (out->nodes_.size() > before) {
        old_to_new[i] = static_cast<std::int32_t>(before);
      }
      ++dirty_it;
    } else {
      old_to_new[i] = static_cast<std::int32_t>(out->nodes_.size());
      Node shared = prev.nodes_[i];
      shared.wildcard = -1;  // version-level; relinked in finish()
      out->nodes_.push_back(std::move(shared));
      ++out->reused_nodes_;
    }
  }
  while (dirty_it != dirty.end()) {
    const std::size_t before = out->nodes_.size();
    emit_if_exists(*dirty_it);
    if (out->nodes_.size() > before) {
      fresh_index.emplace_back(dirty_it->suffix_hash(), static_cast<std::uint32_t>(before));
    }
    ++dirty_it;
  }

  // 4. Hash index: remap the surviving entries (their hashes are
  //    unchanged — same owners) and merge the sorted handful of new ones,
  //    instead of rehashing and re-sorting every name.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> survivors;
  survivors.reserve(out->nodes_.size());
  for (const auto& [hash, old_idx] : prev.index_) {
    const std::int32_t mapped = old_to_new[old_idx];
    if (mapped >= 0) survivors.emplace_back(hash, static_cast<std::uint32_t>(mapped));
  }
  std::sort(fresh_index.begin(), fresh_index.end());
  out->index_.resize(survivors.size() + fresh_index.size());
  std::merge(survivors.begin(), survivors.end(), fresh_index.begin(), fresh_index.end(),
             out->index_.begin());

  out->finish(z);
  out->compile_micros_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

std::uint64_t CompiledZone::content_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a_u32(h, serial());
  h = hash_name(h, apex());
  for (const Node& node : nodes_) {
    const NodeData& data = *node.data;
    h = hash_name(h, data.owner);
    h = fnv1a_u32(h, static_cast<std::uint32_t>(node.wildcard));
    for (const TypeRange& range : data.ranges) {
      h = fnv1a_u32(h, static_cast<std::uint32_t>(range.type));
      h = fnv1a_u32(h, range.begin);
      h = fnv1a_u32(h, range.end);
      h = fnv1a_u32(h, range.ttl);
    }
    for (const WireFragment& fragment : data.frags) h = hash_fragment(h, fragment);
    for (const WireFragment& fragment : data.referral_frags) h = hash_fragment(h, fragment);
    h = fnv1a_u32(h, data.referral_auth_end);
    h = fnv1a_u32(h, data.referral_min_ttl);
    h = fnv1a_u32(h, data.is_cut ? 1u : 0u);
    if (data.cname_target != nullptr) h = hash_name(h, *data.cname_target);
  }
  for (const WireFragment& fragment : negative_soa_) h = hash_fragment(h, fragment);
  h = fnv1a_u32(h, negative_ttl_);
  h = fnv1a_u32(h, apex_node_);
  return h;
}

const CompiledZone::Node* CompiledZone::find_node(std::uint64_t hash,
                                                  std::string_view tail) const noexcept {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), hash,
      [](const std::pair<std::uint64_t, std::uint32_t>& entry, std::uint64_t h) {
        return entry.first < h;
      });
  for (; it != index_.end() && it->first == hash; ++it) {
    const Node& node = nodes_[it->second];
    if (node.data->owner.wire_labels() == tail) return &node;
  }
  return nullptr;
}

const CompiledZone::TypeRange* CompiledZone::find_range(const NodeData& data,
                                                        dns::RecordType type) noexcept {
  for (const TypeRange& range : data.ranges) {
    if (range.type == type) return &range;
  }
  return nullptr;
}

CompiledAnswer CompiledZone::negative(LookupStatus status) const noexcept {
  CompiledAnswer out;
  out.status = status;
  out.authority = std::span<const WireFragment>(negative_soa_);
  out.min_ttl = negative_ttl_;
  return out;
}

CompiledAnswer CompiledZone::lookup(const DnsName& qname, dns::RecordType qtype) const noexcept {
  CompiledAnswer out;
  if (!qname.is_subdomain_of(apex())) return out;  // out of bailiwick; caller guards
  const std::size_t qn = qname.label_count();
  const std::size_t an = apex().label_count();
  if (qn > kMaxDepth) return negative(LookupStatus::NxDomain);  // unreachable by DnsName limits

  // One right-to-left pass computes the suffix hash at every depth.
  const DnsName::Labels labels(qname);
  std::uint64_t hashes[kMaxDepth + 1];
  std::uint64_t h = DnsName::kSuffixHashSeed;
  for (std::size_t depth = 1; depth <= qn; ++depth) {
    h = DnsName::suffix_hash_extend(h, labels[qn - depth]);
    hashes[depth] = h;
  }

  // Top-down walk from the apex. Because ENTs are materialized, the first
  // missing depth proves the qname does not exist and the previous node
  // is the closest encloser; a delegation cut is caught the moment the
  // walk steps onto it (shallowest cut wins, as in the interpreted
  // delegation-first ordering).
  const Node* node = &nodes_[apex_node_];
  for (std::size_t depth = an + 1; depth <= qn; ++depth) {
    const Node* next = find_node(hashes[depth], labels.tail(depth));
    if (next == nullptr) {
      if (node->wildcard >= 0) {  // wildcard at the closest encloser (RFC 4592)
        const NodeData& wild = *nodes_[static_cast<std::uint32_t>(node->wildcard)].data;
        out.wildcard_match = true;
        if (const TypeRange* range = find_range(wild, qtype)) {
          out.status = LookupStatus::Answer;
          out.answers = subspan(wild.frags, range->begin, range->end);
          out.min_ttl = range->ttl;
          return out;
        }
        if (const TypeRange* range = find_range(wild, RecordType::CNAME)) {
          out.status = LookupStatus::CnameChase;
          out.answers = subspan(wild.frags, range->begin, range->end);
          out.cname_target = wild.cname_target;
          out.min_ttl = range->ttl;
          return out;
        }
        CompiledAnswer neg = negative(LookupStatus::NoData);
        neg.wildcard_match = true;
        return neg;
      }
      return negative(LookupStatus::NxDomain);
    }
    if (next->data->is_cut) {
      const NodeData& cut = *next->data;
      out.status = LookupStatus::Referral;
      out.authority = subspan(cut.referral_frags, 0, cut.referral_auth_end);
      out.additional = subspan(cut.referral_frags, cut.referral_auth_end,
                               static_cast<std::uint32_t>(cut.referral_frags.size()));
      out.min_ttl = cut.referral_min_ttl;
      return out;
    }
    node = next;
  }

  // Exact match (possibly an ENT, whose empty ranges fall through to
  // NODATA — including for ANY, matching the interpreted path where an
  // ENT is not a node at all).
  const NodeData& data = *node->data;
  if (const TypeRange* range = find_range(data, qtype)) {
    out.status = LookupStatus::Answer;
    out.answers = subspan(data.frags, range->begin, range->end);
    out.min_ttl = range->ttl;
    return out;
  }
  if (qtype == RecordType::ANY && !data.frags.empty()) {
    out.status = LookupStatus::Answer;
    out.answers = std::span<const WireFragment>(data.frags);
    std::uint32_t min_ttl = UINT32_MAX;
    for (const TypeRange& range : data.ranges) min_ttl = std::min(min_ttl, range.ttl);
    out.min_ttl = min_ttl;
    return out;
  }
  if (const TypeRange* range = find_range(data, RecordType::CNAME)) {
    out.status = LookupStatus::CnameChase;
    out.answers = subspan(data.frags, range->begin, range->end);
    out.cname_target = data.cname_target;
    out.min_ttl = range->ttl;
    return out;
  }
  return negative(LookupStatus::NoData);
}

}  // namespace akadns::zone
