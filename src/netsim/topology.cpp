#include "netsim/topology.hpp"

#include <algorithm>

namespace akadns::netsim {
namespace {

Duration sample_delay(Rng& rng, Duration lo, Duration hi) {
  return Duration::nanos(rng.next_int(lo.count_nanos(), hi.count_nanos()));
}

}  // namespace

Topology build_internet(Network& network, const TopologyConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  Topology topo;

  // Tier-1 core: full mesh of peers.
  for (std::size_t i = 0; i < config.tier1_count; ++i) {
    topo.tier1.push_back(network.add_node("t1-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      network.add_link(topo.tier1[i], topo.tier1[j],
                       sample_delay(rng, config.tier1_delay_min, config.tier1_delay_max),
                       LinkKind::PeerToPeer);
    }
  }

  // Tier-2 transit: customers of 1..k tier-1s, plus lateral peering.
  for (std::size_t i = 0; i < config.tier2_count; ++i) {
    const NodeId node = network.add_node("t2-" + std::to_string(i));
    topo.tier2.push_back(node);
    const int providers = static_cast<int>(rng.next_int(config.tier2_providers_min,
                                                        config.tier2_providers_max));
    const auto picks = rng.sample_indices(topo.tier1.size(),
                                          static_cast<std::size_t>(providers));
    for (const auto pick : picks) {
      network.add_link(topo.tier1[pick], node,
                       sample_delay(rng, config.tier2_delay_min, config.tier2_delay_max),
                       LinkKind::ProviderToCustomer);
    }
  }
  // Lateral tier-2 peering.
  if (config.tier2_count > 1) {
    const auto target_links = static_cast<std::size_t>(
        config.tier2_peering_degree * static_cast<double>(config.tier2_count) / 2.0);
    std::size_t added = 0, attempts = 0;
    while (added < target_links && attempts < target_links * 20) {
      ++attempts;
      const NodeId a = topo.tier2[rng.next_below(topo.tier2.size())];
      const NodeId b = topo.tier2[rng.next_below(topo.tier2.size())];
      if (a == b || network.has_link(a, b)) continue;
      network.add_link(a, b, sample_delay(rng, config.tier2_delay_min, config.tier2_delay_max),
                       LinkKind::PeerToPeer);
      ++added;
    }
  }

  // Edge nodes: customers of 1..k tier-2s (or tier-1 when no tier-2s).
  const auto& transit = topo.tier2.empty() ? topo.tier1 : topo.tier2;
  for (std::size_t i = 0; i < config.edge_count; ++i) {
    const NodeId node = network.add_node("edge-" + std::to_string(i));
    topo.edges.push_back(node);
    const int providers = static_cast<int>(
        rng.next_int(config.edge_providers_min, config.edge_providers_max));
    const auto picks = rng.sample_indices(transit.size(), static_cast<std::size_t>(providers));
    for (const auto pick : picks) {
      network.add_link(transit[pick], node,
                       sample_delay(rng, config.edge_delay_min, config.edge_delay_max),
                       LinkKind::ProviderToCustomer);
    }
  }
  return topo;
}

std::vector<NodeId> build_chain(Network& network, std::size_t length, Duration link_delay) {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < length; ++i) {
    nodes.push_back(network.add_node("chain-" + std::to_string(i)));
    if (i > 0) {
      // Each node provides transit to the next (valley-free end to end).
      network.add_link(nodes[i - 1], nodes[i], link_delay, LinkKind::ProviderToCustomer);
    }
  }
  return nodes;
}

}  // namespace akadns::netsim
