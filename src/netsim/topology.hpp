// Synthetic Internet topology generation.
//
// The failover experiment (§4.1) and the anycast catchment machinery need
// an Internet-like graph: a meshed tier-1 core, multihomed regional
// transit networks with lateral peering, and edge networks (PoP / eyeball
// sites) that are customers of one or more transits. This transit-stub
// structure plus Gao-Rexford policy in Network yields realistic path
// diversity and convergence behaviour.
#pragma once

#include "netsim/network.hpp"

namespace akadns::netsim {

struct TopologyConfig {
  std::size_t tier1_count = 8;
  std::size_t tier2_count = 40;
  std::size_t edge_count = 267;  // the paper's 267 PoPs/vantage points
  /// Providers per tier-2 node (uniform in [min,max]).
  int tier2_providers_min = 1;
  int tier2_providers_max = 3;
  /// Lateral peerings per tier-2 node (expected).
  double tier2_peering_degree = 1.5;
  /// Providers per edge node.
  int edge_providers_min = 1;
  int edge_providers_max = 3;
  // One-way link delays.
  Duration tier1_delay_min = Duration::millis(8);
  Duration tier1_delay_max = Duration::millis(40);
  Duration tier2_delay_min = Duration::millis(4);
  Duration tier2_delay_max = Duration::millis(25);
  Duration edge_delay_min = Duration::millis(1);
  Duration edge_delay_max = Duration::millis(15);
};

struct Topology {
  std::vector<NodeId> tier1;
  std::vector<NodeId> tier2;
  std::vector<NodeId> edges;
};

/// Builds a transit-stub Internet into `network`. Deterministic for a
/// given seed (uses its own RNG so network-internal sampling stays
/// independent).
Topology build_internet(Network& network, const TopologyConfig& config, std::uint64_t seed);

/// Builds a simple chain a-b-c-... (customer->provider upward) — handy
/// for deterministic unit tests of propagation timing.
std::vector<NodeId> build_chain(Network& network, std::size_t length, Duration link_delay);

}  // namespace akadns::netsim
