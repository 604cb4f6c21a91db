#include "netsim/network.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace akadns::netsim {

Network::Network(EventScheduler& scheduler, NetworkConfig config, std::uint64_t seed)
    : scheduler_(scheduler), config_(config), rng_(seed) {}

NodeId Network::add_node(std::string label) {
  nodes_.push_back(Node{std::move(label), {}, {}, {}, nullptr});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::add_link(NodeId a, NodeId b, Duration delay, LinkKind kind) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("bad link endpoints");
  }
  if (has_link(a, b)) throw std::invalid_argument("duplicate link");
  // Sample MRAI per direction: mostly fast, a small fraction slow
  // (models routers with conservative timers — the withdrawal tail).
  auto sample_mrai = [this] {
    if (rng_.next_bool(config_.slow_mrai_fraction)) {
      return Duration::nanos(rng_.next_int(config_.slow_mrai_min.count_nanos(),
                                           config_.slow_mrai_max.count_nanos()));
    }
    return Duration::nanos(rng_.next_int(config_.fast_mrai_min.count_nanos(),
                                         config_.fast_mrai_max.count_nanos()));
  };
  const NeighborRel rel_ab =
      kind == LinkKind::PeerToPeer ? NeighborRel::Peer : NeighborRel::Customer;
  const NeighborRel rel_ba =
      kind == LinkKind::PeerToPeer ? NeighborRel::Peer : NeighborRel::Provider;
  // From a's perspective, b is (customer|peer); from b's, a is (provider|peer).
  nodes_[a].neighbor_index[b] = nodes_[a].neighbors.size();
  nodes_[a].neighbors.push_back(Neighbor{b, delay, rel_ab, sample_mrai(), 0.0, {}, {}});
  nodes_[b].neighbor_index[a] = nodes_[b].neighbors.size();
  nodes_[b].neighbors.push_back(Neighbor{a, delay, rel_ba, sample_mrai(), 0.0, {}, {}});
  spf_cache_.clear();
}

bool Network::has_link(NodeId a, NodeId b) const {
  return a < nodes_.size() && nodes_[a].neighbor_index.contains(b);
}

NeighborRel Network::relationship(NodeId node, NodeId neighbor) const {
  const Neighbor* n = find_neighbor(node, neighbor);
  if (!n) throw std::invalid_argument("not neighbors");
  return n->rel;
}

Duration Network::link_delay(NodeId a, NodeId b) const {
  const Neighbor* n = find_neighbor(a, b);
  if (!n) throw std::invalid_argument("not neighbors");
  return n->delay;
}

Network::Neighbor& Network::neighbor_of(NodeId node, NodeId neighbor) {
  return nodes_[node].neighbors[nodes_[node].neighbor_index.at(neighbor)];
}

const Network::Neighbor* Network::find_neighbor(NodeId node, NodeId neighbor) const {
  if (node >= nodes_.size()) return nullptr;
  const auto it = nodes_[node].neighbor_index.find(neighbor);
  if (it == nodes_[node].neighbor_index.end()) return nullptr;
  return &nodes_[node].neighbors[it->second];
}

// ---------------------------------------------------------------------------
// BGP
// ---------------------------------------------------------------------------

int Network::local_pref(NeighborRel rel) noexcept {
  switch (rel) {
    case NeighborRel::Customer: return 300;
    case NeighborRel::Peer: return 200;
    case NeighborRel::Provider: return 100;
  }
  return 0;
}

bool Network::better(const Route& a, const Route& b) noexcept {
  // Returns true iff a is strictly preferred over b.
  if (a.valid != b.valid) return a.valid;
  if (!a.valid) return false;
  const int lp_a = local_pref(a.learned_rel);
  const int lp_b = local_pref(b.learned_rel);
  if (lp_a != lp_b) return lp_a > lp_b;
  if (a.as_path.size() != b.as_path.size()) return a.as_path.size() < b.as_path.size();
  return a.learned_from < b.learned_from;
}

void Network::advertise(NodeId node, PrefixId prefix) {
  PrefixState& ps = nodes_.at(node).prefixes[prefix];
  if (ps.originating) return;
  ps.originating = true;
  reselect(node, prefix, /*force_export=*/true);
}

void Network::withdraw(NodeId node, PrefixId prefix) {
  const auto it = nodes_.at(node).prefixes.find(prefix);
  if (it == nodes_[node].prefixes.end() || !it->second.originating) return;
  it->second.originating = false;
  reselect(node, prefix, /*force_export=*/true);
}

bool Network::is_originating(NodeId node, PrefixId prefix) const {
  const auto it = nodes_.at(node).prefixes.find(prefix);
  return it != nodes_[node].prefixes.end() && it->second.originating;
}

void Network::set_export_enabled(NodeId node, NodeId neighbor, PrefixId prefix, bool enabled) {
  PrefixState& ps = nodes_.at(node).prefixes[prefix];
  const bool was_disabled = ps.export_disabled[neighbor];
  ps.export_disabled[neighbor] = !enabled;
  if (was_disabled != !enabled) {
    // Policy change acts like a targeted (re)advertisement/withdrawal.
    schedule_export(node, neighbor, prefix);
  }
}

bool Network::has_route(NodeId node, PrefixId prefix) const {
  const auto it = nodes_.at(node).prefixes.find(prefix);
  if (it == nodes_[node].prefixes.end()) return false;
  return it->second.originating || it->second.best.valid;
}

std::vector<NodeId> Network::best_path(NodeId node, PrefixId prefix) const {
  const auto it = nodes_.at(node).prefixes.find(prefix);
  if (it == nodes_[node].prefixes.end()) return {};
  if (it->second.originating) return {node};
  if (!it->second.best.valid) return {};
  return it->second.best.as_path;
}

NodeId Network::catchment_origin(NodeId from, PrefixId prefix) const {
  NodeId at = from;
  for (std::size_t hops = 0; hops <= nodes_.size(); ++hops) {
    const auto it = nodes_.at(at).prefixes.find(prefix);
    if (it == nodes_[at].prefixes.end()) return kInvalidNode;
    if (it->second.originating) return at;
    if (!it->second.best.valid) return kInvalidNode;
    at = it->second.best.learned_from;
  }
  return kInvalidNode;  // loop during convergence
}

void Network::reselect(NodeId node, PrefixId prefix, bool force_export) {
  Node& state = nodes_[node];
  PrefixState& ps = state.prefixes[prefix];

  Route new_best;  // invalid by default
  if (!ps.originating) {
    // While originating, the node announces its own route; learned routes
    // are ignored (and origination beats them anyway, path length 1).
    for (const auto& [from, route] : ps.adj_rib_in) {
      if (route.valid && better(route, new_best)) new_best = route;
    }
  }
  const bool had_best = ps.best.valid;
  const bool best_changed = new_best.valid != had_best ||
                            (new_best.valid && (new_best.as_path != ps.best.as_path ||
                                                new_best.learned_from != ps.best.learned_from));
  ps.best = new_best;
  if (!best_changed && !force_export) return;
  // Export the new state to every neighbor (paced per neighbor).
  for (const auto& neighbor : state.neighbors) {
    schedule_export(node, neighbor.id, prefix);
  }
}

bool Network::may_export(const Node& node_state, const PrefixState& ps,
                         const Neighbor& to) const {
  (void)node_state;
  if (ps.originating) return true;  // own prefixes are announced everywhere
  if (!ps.best.valid) return true;  // withdrawals always propagate
  // Gao-Rexford: routes learned from a customer go to everyone; routes
  // learned from a peer/provider go to customers only.
  if (ps.best.learned_rel == NeighborRel::Customer) return true;
  return to.rel == NeighborRel::Customer;
}

void Network::schedule_export(NodeId node, NodeId neighbor, PrefixId prefix) {
  Neighbor& n = neighbor_of(node, neighbor);
  if (n.send_scheduled[prefix]) return;  // coalesce: latest state sent at fire time
  n.send_scheduled[prefix] = true;
  const SimTime now = scheduler_.now();
  SimTime at = now;
  if (auto it = n.next_send.find(prefix); it != n.next_send.end() && it->second > at) {
    at = it->second;
  }
  scheduler_.schedule_at(at, [this, node, neighbor, prefix] {
    transmit_update(node, neighbor, prefix);
  });
}

void Network::transmit_update(NodeId node, NodeId neighbor, PrefixId prefix) {
  Neighbor& n = neighbor_of(node, neighbor);
  n.send_scheduled[prefix] = false;
  n.next_send[prefix] = scheduler_.now() + n.mrai;

  Node& state = nodes_[node];
  PrefixState& ps = state.prefixes[prefix];

  // Compose what this neighbor should hear right now.
  std::optional<Route> update;  // nullopt = withdrawal
  const bool poisoned =
      ps.best.valid &&
      std::find(ps.best.as_path.begin(), ps.best.as_path.end(), neighbor) !=
          ps.best.as_path.end();
  const bool disabled = [&] {
    const auto it = ps.export_disabled.find(neighbor);
    return it != ps.export_disabled.end() && it->second;
  }();
  if (!disabled && !poisoned && may_export(state, ps, n) &&
      (ps.originating || ps.best.valid)) {
    Route r;
    r.valid = true;
    if (ps.originating) {
      r.as_path = {node};
    } else {
      r.as_path = ps.best.as_path;
      r.as_path.insert(r.as_path.begin(), node);
    }
    r.learned_from = node;
    r.learned_rel = NeighborRel::Provider;  // rewritten at the receiver
    update = std::move(r);
  }

  ++updates_sent_;
  const Duration processing = Duration::nanos(
      rng_.next_int(config_.processing_delay_min.count_nanos(),
                    config_.processing_delay_max.count_nanos()));
  scheduler_.schedule_after(n.delay + processing,
                            [this, to = n.id, from = node, prefix, update] {
                              receive_update(to, from, prefix, update);
                            });
}

void Network::receive_update(NodeId node, NodeId from, PrefixId prefix,
                             std::optional<Route> route) {
  Node& state = nodes_[node];
  PrefixState& ps = state.prefixes[prefix];
  if (route) {
    // Loop check: reject paths containing ourselves.
    if (std::find(route->as_path.begin(), route->as_path.end(), node) !=
        route->as_path.end()) {
      route.reset();
    }
  }
  if (route) {
    route->learned_from = from;
    route->learned_rel = find_neighbor(node, from)->rel;
    ps.adj_rib_in[from] = *std::move(route);
  } else {
    ps.adj_rib_in.erase(from);
  }
  reselect(node, prefix);
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void Network::attach_prefix_handler(PrefixId prefix, DeliveryHandler handler) {
  prefix_handlers_[prefix] = std::move(handler);
}

void Network::attach_node_handler(NodeId node, DeliveryHandler handler) {
  nodes_.at(node).node_handler = std::move(handler);
}

void Network::drop(const Packet& packet, DropReason reason) {
  if (drop_handler_) drop_handler_(packet, reason);
}

void Network::send_to_prefix(NodeId from, PrefixId prefix, std::vector<std::uint8_t> payload) {
  Packet packet;
  packet.src = from;
  packet.dst_prefix = prefix;
  packet.anycast = true;
  packet.ttl = config_.packet_ttl;
  packet.id = next_packet_id_++;
  packet.payload = std::move(payload);
  forward_anycast(std::move(packet), from);
}

void Network::forward_anycast(Packet packet, NodeId at) {
  const Node& state = nodes_.at(at);
  const auto it = state.prefixes.find(packet.dst_prefix);
  if (it != state.prefixes.end() && it->second.originating) {
    if (const auto hit = prefix_handlers_.find(packet.dst_prefix);
        hit != prefix_handlers_.end() && hit->second) {
      hit->second(at, packet);
    }
    return;
  }
  if (it == state.prefixes.end() || !it->second.best.valid) {
    drop(packet, DropReason::NoRoute);
    return;
  }
  if (--packet.ttl <= 0) {
    drop(packet, DropReason::TtlExpired);
    return;
  }
  const NodeId next = it->second.best.learned_from;
  const Neighbor* link = find_neighbor(at, next);
  // Congested link: queue overflow loses the packet before it crosses.
  if (link->loss > 0.0 && rng_.next_bool(link->loss)) {
    drop(packet, DropReason::Congested);
    return;
  }
  scheduler_.schedule_after(link->delay, [this, packet = std::move(packet), next]() mutable {
    forward_anycast(std::move(packet), next);
  });
}

void Network::send_to_node(NodeId from, NodeId to, std::vector<std::uint8_t> payload) {
  Packet packet;
  packet.src = from;
  packet.dst_node = to;
  packet.anycast = false;
  packet.ttl = config_.packet_ttl;
  packet.id = next_packet_id_++;
  packet.payload = std::move(payload);
  const Duration delay = unicast_delay(from, to);
  if (delay == Duration::max()) {
    drop(packet, DropReason::NoRoute);
    return;
  }
  scheduler_.schedule_after(delay, [this, packet = std::move(packet), to]() mutable {
    const Node& state = nodes_.at(to);
    if (state.node_handler) state.node_handler(to, packet);
  });
}

const std::vector<Duration>& Network::dijkstra_from(NodeId from) const {
  if (const auto it = spf_cache_.find(from); it != spf_cache_.end()) return it->second;
  std::vector<Duration> dist(nodes_.size(), Duration::max());
  dist[from] = Duration::zero();
  using Item = std::pair<std::int64_t, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0, from);
  std::vector<bool> done(nodes_.size(), false);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[u]) continue;
    done[u] = true;
    for (const auto& n : nodes_[u].neighbors) {
      const Duration candidate = dist[u] + n.delay;
      if (candidate < dist[n.id]) {
        dist[n.id] = candidate;
        heap.emplace(candidate.count_nanos(), n.id);
      }
    }
  }
  return spf_cache_.emplace(from, std::move(dist)).first->second;
}

Duration Network::unicast_delay(NodeId from, NodeId to) const {
  if (from == to) return Duration::zero();
  return dijkstra_from(from).at(to);
}

void Network::set_link_loss(NodeId a, NodeId b, double loss) {
  neighbor_of(a, b).loss = std::clamp(loss, 0.0, 1.0);
}

double Network::link_loss(NodeId a, NodeId b) const {
  const Neighbor* n = find_neighbor(a, b);
  if (!n) throw std::invalid_argument("not neighbors");
  return n->loss;
}

}  // namespace akadns::netsim
