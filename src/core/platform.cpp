#include "core/platform.hpp"

#include <algorithm>

#include "defense/filter_chain.hpp"

#include "dns/wire.hpp"

namespace akadns::core {
namespace {

// ---------------------------------------------------------------------------
// Data-plane framing: DNS wire bytes plus the client endpoint and IP TTL.
// Layout: [family:1][addr:4|16][port:2][ip_ttl:1][dns wire...]
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> frame(const Endpoint& client, std::uint8_t ip_ttl,
                                std::span<const std::uint8_t> wire) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 16 + 3 + wire.size());
  if (client.addr.is_v6()) {
    out.push_back(6);
    const auto& bytes = client.addr.v6().bytes();
    out.insert(out.end(), bytes.begin(), bytes.end());
  } else {
    out.push_back(4);
    const auto octets = client.addr.v4().octets();
    out.insert(out.end(), octets.begin(), octets.end());
  }
  out.push_back(static_cast<std::uint8_t>(client.port >> 8));
  out.push_back(static_cast<std::uint8_t>(client.port));
  out.push_back(ip_ttl);
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

struct Deframed {
  Endpoint client;
  std::uint8_t ip_ttl = 0;
  std::span<const std::uint8_t> wire;
};

std::optional<Deframed> deframe(std::span<const std::uint8_t> payload) {
  if (payload.size() < 1) return std::nullopt;
  Deframed out;
  std::size_t cursor = 1;
  if (payload[0] == 6) {
    if (payload.size() < 1 + 16 + 3) return std::nullopt;
    std::array<std::uint8_t, 16> bytes{};
    std::copy(payload.begin() + 1, payload.begin() + 17, bytes.begin());
    out.client.addr = IpAddr(Ipv6Addr(bytes));
    cursor = 17;
  } else if (payload[0] == 4) {
    if (payload.size() < 1 + 4 + 3) return std::nullopt;
    out.client.addr =
        IpAddr(Ipv4Addr(payload[1], payload[2], payload[3], payload[4]));
    cursor = 5;
  } else {
    return std::nullopt;
  }
  out.client.port = static_cast<std::uint16_t>((payload[cursor] << 8) | payload[cursor + 1]);
  out.ip_ttl = payload[cursor + 2];
  out.wire = payload.subspan(cursor + 3);
  return out;
}

}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(config),
      pool_(config.worker_threads > 1 ? std::make_unique<WorkerPool>(config.worker_threads)
                                      : nullptr),
      network_(scheduler_, config.network, config.seed),
      control_(scheduler_, config.control, config.seed ^ 0x51CA75ULL),
      coordinator_(config.suspension),
      rng_(config.seed ^ 0xF00DULL) {}

void Platform::build_internet() {
  topology_ = netsim::build_internet(network_, config_.topology, config_.seed ^ 0x70B0ULL);
}

pop::Pop* Platform::pop_by_router(netsim::NodeId node) {
  const auto it = pops_by_router_.find(node);
  return it == pops_by_router_.end() ? nullptr : it->second;
}

void Platform::subscribe_machine(pop::Machine& machine, bool input_delayed,
                                 const ZoneFilter& zone_filter) {
  const Duration extra = input_delayed ? Duration::hours(1) : Duration::zero();
  for (const auto& apex : hosted_apexes_) {
    if (zone_filter && !zone_filter(apex)) continue;
    control::subscribe_machine_to_zone(control_, machine, apex, extra);
  }
  control::subscribe_machine_to_mapping(control_, machine, extra);
  machine.nameserver().metadata_updated(scheduler_.now());
}

void Platform::wire_machine(pop::Pop& pop, pop::Machine& machine) {
  // Response path: unicast the framed response back to the client node.
  machine.nameserver().set_response_span_sink(
      [this, router = pop.router_node()](const Endpoint& dst, std::span<const std::uint8_t> wire) {
        const auto it = client_nodes_.find(dst.addr);
        if (it == client_nodes_.end()) return;
        network_.send_to_node(router, it->second, frame(dst, 0, wire));
      });
  // Mapping-intelligence hook for dynamic (CDN/GTM) domains. Only fires
  // on machines authoritative for the dynamic zone itself — toplevels
  // hosting just the delegating parent still refer (Two-Tier semantics).
  machine.nameserver().set_mapping_hook(
      [this, machine_ptr = &machine](const dns::Question& question, const Endpoint& client,
                                     const std::optional<dns::ClientSubnet>& ecs)
          -> std::optional<server::MappedAnswer> {
        for (const auto& [suffix, count] : dynamic_domains_) {
          if (!question.name.is_subdomain_of(suffix)) continue;
          const auto zone = machine_ptr->local_store()->find_best_zone(question.name);
          if (!zone || !zone->apex().is_subdomain_of(suffix)) continue;
          if (question.qtype != dns::RecordType::A &&
              question.qtype != dns::RecordType::AAAA &&
              question.qtype != dns::RecordType::ANY) {
            continue;
          }
          const IpAddr locate_by = ecs ? ecs->address : client.addr;
          server::MappedAnswer mapped;
          mapped.answers = mapping_.answer(question.name, locate_by, count);
          mapped.ecs_scope_prefix_len = ecs ? 24 : 0;
          if (!mapped.answers.empty()) return mapped;
        }
        return std::nullopt;
      });
}

pop::Pop& Platform::add_pop(netsim::NodeId edge_node, std::size_t machine_count,
                            const std::vector<netsim::PrefixId>& clouds,
                            bool include_input_delayed, ZoneFilter zone_filter) {
  pops_.push_back(std::make_unique<pop::Pop>(
      pop::PopConfig{"pop-" + std::to_string(pops_.size()), edge_node}, network_));
  pop::Pop& pop = *pops_.back();
  pops_by_router_[edge_node] = &pop;

  for (std::size_t i = 0; i < machine_count + (include_input_delayed ? 1 : 0); ++i) {
    const bool input_delayed = include_input_delayed && i == machine_count;
    pop::MachineConfig mconfig;
    mconfig.id = pop.id() + "/m" + std::to_string(machine_counter_++);
    mconfig.input_delayed = input_delayed;
    mconfig.nameserver.lanes = config_.machine_lanes;
    // Machines own private stores fed by the control plane.
    pop::Machine& machine = pop.adopt_machine(std::make_unique<pop::Machine>(std::move(mconfig)));
    machine_zone_filters_[&machine] = zone_filter;
    wire_machine(pop, machine);
    subscribe_machine(machine, input_delayed, zone_filter);
    for (const auto cloud : clouds) {
      machine.speaker().advertise(cloud, input_delayed ? pop::BgpSpeaker::kInputDelayedMed
                                                       : pop::BgpSpeaker::kDefaultMed);
      attach_cloud_handler(cloud);
    }
    agents_.push_back(std::make_unique<pop::MonitoringAgent>(
        machine, *machine.local_store(), coordinator_, scheduler_));
    agents_.back()->start();
  }
  return pop;
}

void Platform::host_zone(zone::Zone zone) {
  const dns::DnsName apex = zone.apex();
  const bool already_hosted =
      std::find(hosted_apexes_.begin(), hosted_apexes_.end(), apex) != hosted_apexes_.end();
  if (!already_hosted) {
    hosted_apexes_.push_back(apex);
    // Subscribe every existing machine (passing its PoP's zone filter)
    // to the new topic.
    for (auto& pop : pops_) {
      for (auto* machine : pop->machines()) {
        const auto& filter = machine_zone_filters_[machine];
        if (filter && !filter(apex)) continue;
        control::subscribe_machine_to_zone(
            control_, *machine, apex,
            machine->input_delayed() ? Duration::hours(1) : Duration::zero());
      }
    }
  }
  control::publish_zone(control_, zone_publisher_, std::move(zone));
}

void Platform::register_dynamic_domain(const dns::DnsName& suffix, std::size_t answer_count) {
  dynamic_domains_.emplace_back(suffix, answer_count);
}

void Platform::start_mapping_heartbeat(Duration interval) {
  heartbeat_interval_ = interval;
  if (heartbeat_running_) return;
  heartbeat_running_ = true;
  // Self-rescheduling heartbeat.
  struct Beat {
    Platform* platform;
    void operator()() const {
      platform->control_.publish(control::kMappingTopic,
                                 std::make_shared<const control::Metadata>());
      platform->scheduler_.schedule_after(platform->heartbeat_interval_, Beat{platform});
    }
  };
  Beat{this}();
}

void Platform::install_filter_pipeline() { install_filter_pipeline(FilterDefaults{}); }

void Platform::install_filter_pipeline(const FilterDefaults& defaults) {
  for (auto& pop : pops_) {
    for (auto* machine : pop->machines()) {
      auto& ns = machine->nameserver();
      // Filters are installed uniformly on every lane, so probing lane 0
      // keeps this idempotent.
      if (ns.scoring().find("rate_limit") || ns.scoring().find("nxdomain")) continue;
      ns.install_filter(defense::rate_limit_factory(filters::RateLimitFilter::Config{
          .penalty = defaults.rate_limit_penalty,
          .default_limit_qps = defaults.rate_limit_default_qps}));
      // The factory scales the machine-level NXDOMAIN threshold down by
      // the lane count (a zone's queries spread across all lanes).
      ns.install_filter(defense::nxdomain_factory(
          filters::NxDomainFilter::Config{.penalty = defaults.nxdomain_penalty,
                                          .nxdomain_threshold = defaults.nxdomain_threshold},
          defense::zone_store_hooks(*machine->local_store())));
    }
  }
}

void Platform::attach_cloud_handler(netsim::PrefixId cloud) {
  if (cloud_handlers_[cloud]) return;
  cloud_handlers_[cloud] = true;
  network_.attach_prefix_handler(cloud, [this](netsim::NodeId at, const netsim::Packet& p) {
    on_anycast_delivery(at, p);
  });
}

void Platform::on_anycast_delivery(netsim::NodeId at_node, const netsim::Packet& packet) {
  pop::Pop* pop = pop_by_router(at_node);
  if (!pop) return;
  const auto deframed = deframe(packet.payload);
  if (!deframed) return;
  pop->deliver(packet.dst_prefix, deframed->wire, deframed->client, deframed->ip_ttl,
               scheduler_.now());
  schedule_pump(*pop);
}

void Platform::schedule_pump(pop::Pop& pop) {
  if (pump_scheduled_[&pop]) return;
  pump_scheduled_[&pop] = true;
  scheduler_.schedule_after(config_.process_latency, [this, pop_ptr = &pop] {
    pump_scheduled_[pop_ptr] = false;
    pop_ptr->pump(scheduler_.now(), pool_.get());
    // Backlog remains (compute-bound): keep pumping.
    for (auto* machine : pop_ptr->machines()) {
      if (machine->nameserver().has_pending()) {
        scheduler_.schedule_after(config_.pump_interval,
                                  [this, pop_ptr] { schedule_pump(*pop_ptr); });
        break;
      }
    }
  });
}

void Platform::ensure_client_handler(netsim::NodeId node) {
  if (client_handlers_[node]) return;
  client_handlers_[node] = true;
  network_.attach_node_handler(node, [this](netsim::NodeId, const netsim::Packet& packet) {
    on_client_delivery(packet);
  });
}

void Platform::on_client_delivery(const netsim::Packet& packet) {
  const auto deframed = deframe(packet.payload);
  if (!deframed) return;
  auto decoded = dns::decode(deframed->wire);
  if (!decoded) return;
  const PendingKey key{deframed->client.addr, deframed->client.port,
                       decoded.value().header.id};
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingQuery pending = std::move(it->second);
  pending_.erase(it);
  scheduler_.cancel(pending.timeout_event);
  ++responses_received_;
  pending.callback(std::move(decoded).take(), scheduler_.now() - pending.sent_at);
}

void Platform::send_query(netsim::NodeId client_node, const Endpoint& client,
                          std::uint8_t ip_ttl, const dns::Message& query,
                          netsim::PrefixId cloud, ResponseCallback callback) {
  ensure_client_handler(client_node);
  client_nodes_[client.addr] = client_node;
  const PendingKey key{client.addr, client.port, query.header.id};
  PendingQuery pending;
  pending.callback = std::move(callback);
  pending.sent_at = scheduler_.now();
  pending.timeout_event = scheduler_.schedule_after(config_.query_timeout, [this, key] {
    const auto it = pending_.find(key);
    if (it == pending_.end()) return;
    PendingQuery timed_out = std::move(it->second);
    pending_.erase(it);
    ++timeouts_;
    timed_out.callback(std::nullopt, config_.query_timeout);
  });
  pending_[key] = std::move(pending);
  ++queries_sent_;
  network_.send_to_prefix(client_node, cloud, frame(client, ip_ttl, dns::encode(query)));
}

}  // namespace akadns::core
