// Event-driven Internet model: an AS-level graph running a BGP-like
// path-vector protocol, plus a packet data plane that forwards hop by
// hop against each node's *current* routing table.
//
// This is the substitute for the paper's global deployment (substitution
// table in DESIGN.md). The properties the paper's §4.1 failover
// experiment depends on are reproduced mechanically:
//   - route advertisements/withdrawals propagate neighbor-to-neighbor
//     with per-link delays, per-node processing delays, and per-neighbor
//     MRAI-style pacing (the source of the long withdrawal tail);
//   - during convergence, nodes hold divergent tables, so packets can
//     loop ("bounce between routers") until IP TTL exhaustion, or be
//     blackholed at routeless nodes — exactly the two behaviours the
//     paper describes for prefix withdrawal;
//   - anycast: multiple nodes may originate the same prefix; the data
//     plane delivers to whichever origin the catchment routes to.
//
// Policy follows Gao-Rexford: customer routes are preferred over peer
// routes over provider routes, and only customer routes are exported to
// peers/providers (valley-free routing), which yields realistic
// catchment shapes.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/event_scheduler.hpp"
#include "common/rng.hpp"

namespace akadns::netsim {

using NodeId = std::uint32_t;
using PrefixId = std::uint32_t;
constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Business relationship of a link, from the perspective of the first
/// endpoint: Provider means "a is b's provider" (b is a's customer).
enum class LinkKind : std::uint8_t {
  ProviderToCustomer,  // a provides transit to b
  PeerToPeer,
};

/// Relationship of a neighbor as seen from a node.
enum class NeighborRel : std::uint8_t { Customer, Peer, Provider };

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst_node = kInvalidNode;     // unicast destination (if unicast)
  PrefixId dst_prefix = 0;            // anycast destination (if anycast)
  bool anycast = false;
  int ttl = 64;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> payload;
};

enum class DropReason : std::uint8_t { NoRoute, TtlExpired, LinkDown, Congested };

struct NetworkConfig {
  /// Per-update processing delay at each node: uniform in [min, max].
  /// Real routers batch and process updates in tens to hundreds of
  /// milliseconds; these defaults reproduce sub-second anycast failover
  /// with occasional multi-second stragglers (Figure 8).
  Duration processing_delay_min = Duration::millis(15);
  Duration processing_delay_max = Duration::millis(400);
  /// Fraction of links with a slow MRAI (multi-second pacing); these
  /// produce the heavy tail of withdrawal convergence (Figure 8).
  double slow_mrai_fraction = 0.06;
  Duration fast_mrai_min = Duration::millis(30);
  Duration fast_mrai_max = Duration::millis(300);
  Duration slow_mrai_min = Duration::seconds(4);
  Duration slow_mrai_max = Duration::seconds(25);
  int packet_ttl = 64;
};

class Network {
 public:
  Network(EventScheduler& scheduler, NetworkConfig config, std::uint64_t seed);

  // ---- topology -----------------------------------------------------------

  NodeId add_node(std::string label);
  /// Adds a bidirectional link. `delay` is the one-way propagation delay.
  void add_link(NodeId a, NodeId b, Duration delay, LinkKind kind);
  bool has_link(NodeId a, NodeId b) const;

  std::size_t node_count() const noexcept { return nodes_.size(); }
  const std::string& label(NodeId node) const { return nodes_.at(node).label; }
  NeighborRel relationship(NodeId node, NodeId neighbor) const;
  Duration link_delay(NodeId a, NodeId b) const;

  // ---- BGP control plane --------------------------------------------------

  /// Originates `prefix` at `node` and announces it to all neighbors
  /// (subject to per-peer export policy).
  void advertise(NodeId node, PrefixId prefix);

  /// Withdraws the origination; the withdrawal propagates.
  void withdraw(NodeId node, PrefixId prefix);

  bool is_originating(NodeId node, PrefixId prefix) const;

  /// Per-peer traffic-engineering control (§4.3.2: "anycast prefixes are
  /// advertised to each peer at each PoP individually; the decision to
  /// withdraw can be made per advertisement"). Disabling an export acts
  /// like withdrawing the route from that peering session only.
  void set_export_enabled(NodeId node, NodeId neighbor, PrefixId prefix, bool enabled);

  /// Route introspection.
  bool has_route(NodeId node, PrefixId prefix) const;
  std::vector<NodeId> best_path(NodeId node, PrefixId prefix) const;  // AS path

  /// Control-plane catchment: the origin `from` currently routes to for
  /// `prefix` (kInvalidNode if routeless or looping).
  NodeId catchment_origin(NodeId from, PrefixId prefix) const;

  /// Counts BGP update messages sent (control-plane load metric).
  std::uint64_t updates_sent() const noexcept { return updates_sent_; }

  // ---- data plane ---------------------------------------------------------

  using DeliveryHandler =
      std::function<void(NodeId at_node, const Packet& packet)>;
  using DropHandler = std::function<void(const Packet& packet, DropReason reason)>;

  /// Handler invoked when an anycast packet reaches an originating node.
  void attach_prefix_handler(PrefixId prefix, DeliveryHandler handler);
  /// Handler invoked when a unicast packet reaches its destination node.
  void attach_node_handler(NodeId node, DeliveryHandler handler);
  void set_drop_handler(DropHandler handler) { drop_handler_ = std::move(handler); }

  /// Sends an anycast packet; forwarded hop-by-hop per current tables.
  void send_to_prefix(NodeId from, PrefixId prefix, std::vector<std::uint8_t> payload);

  /// Sends a unicast packet along the static shortest-delay path
  /// (unicast reachability is not part of the experiments; modelled as
  /// always-converged).
  void send_to_node(NodeId from, NodeId to, std::vector<std::uint8_t> payload);

  /// One-way shortest-path delay between two nodes (RTT = 2x).
  Duration unicast_delay(NodeId from, NodeId to) const;

  /// Congestion model for the directed link a -> b: packets forwarded
  /// over it are dropped with probability `loss`. This is how volumetric
  /// attacks saturating a peering link manifest to the data plane
  /// (§4.3.2); the traffic-engineering actions route around it.
  void set_link_loss(NodeId a, NodeId b, double loss);
  double link_loss(NodeId a, NodeId b) const;

  EventScheduler& scheduler() noexcept { return scheduler_; }

 private:
  struct Route {
    std::vector<NodeId> as_path;  // front() = neighbor we learned from ... back() = origin
    NodeId learned_from = kInvalidNode;
    NeighborRel learned_rel = NeighborRel::Provider;
    bool valid = false;
  };

  struct Neighbor {
    NodeId id;
    Duration delay;
    NeighborRel rel;
    Duration mrai;
    double loss = 0.0;  // congestion drop probability on this direction
    // Pacing state per prefix: the time the next update may be sent and
    // whether an update is already scheduled (coalescing).
    std::unordered_map<PrefixId, SimTime> next_send;
    std::unordered_map<PrefixId, bool> send_scheduled;
  };

  struct PrefixState {
    bool originating = false;
    std::map<NodeId, Route> adj_rib_in;  // keyed by neighbor
    Route best;
    std::unordered_map<NodeId, bool> export_disabled;  // per neighbor
  };

  struct Node {
    std::string label;
    std::vector<Neighbor> neighbors;
    std::unordered_map<NodeId, std::size_t> neighbor_index;
    std::unordered_map<PrefixId, PrefixState> prefixes;
    DeliveryHandler node_handler;
  };

  Neighbor& neighbor_of(NodeId node, NodeId neighbor);
  const Neighbor* find_neighbor(NodeId node, NodeId neighbor) const;

  /// Recomputes the best route; on change (or when forced, as on local
  /// origination changes), triggers exports.
  void reselect(NodeId node, PrefixId prefix, bool force_export = false);
  /// True per Gao-Rexford whether `route` (as known at `node`) may be
  /// exported to `to`.
  bool may_export(const Node& node_state, const PrefixState& ps, const Neighbor& to) const;
  /// Schedules the (coalesced, MRAI-paced) update toward one neighbor.
  void schedule_export(NodeId node, NodeId neighbor, PrefixId prefix);
  /// Fires at the paced time: transmits the node's current best (or a
  /// withdrawal) to the neighbor.
  void transmit_update(NodeId node, NodeId neighbor, PrefixId prefix);
  /// Receives an update at a node (after link + processing delay).
  void receive_update(NodeId node, NodeId from, PrefixId prefix, std::optional<Route> route);

  void forward_anycast(Packet packet, NodeId at);
  void drop(const Packet& packet, DropReason reason);

  /// Best-route comparison: local-pref (customer>peer>provider), then
  /// path length, then lowest learned-from id (deterministic).
  static int local_pref(NeighborRel rel) noexcept;
  static bool better(const Route& a, const Route& b) noexcept;

  const std::vector<Duration>& dijkstra_from(NodeId from) const;

  EventScheduler& scheduler_;
  NetworkConfig config_;
  mutable Rng rng_;
  std::vector<Node> nodes_;
  std::unordered_map<PrefixId, DeliveryHandler> prefix_handlers_;
  DropHandler drop_handler_;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t next_packet_id_ = 1;
  // Unicast shortest-path cache (topology is static after setup).
  mutable std::unordered_map<NodeId, std::vector<Duration>> spf_cache_;
};

}  // namespace akadns::netsim
