#include "pop/machine.hpp"

#include "dns/wire.hpp"

namespace akadns::pop {

namespace {

server::NameserverConfig with_id(MachineConfig& config) {
  config.nameserver.id = config.id;
  config.nameserver.input_delayed = config.input_delayed;
  return config.nameserver;
}

}  // namespace

Machine::Machine(MachineConfig config, const zone::ZoneStore& store)
    : config_(std::move(config)), store_(&store), nameserver_(with_id(config_), store) {}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      owned_store_(std::make_unique<zone::ZoneStore>()),
      store_(owned_store_.get()),
      zone_sync_(std::make_unique<propagation::ZoneSubscriber>(*owned_store_)),
      nameserver_(with_id(config_), *owned_store_) {}

void Machine::apply_zone_update(const propagation::ZoneUpdate& update, SimTime now) {
  zone_sync_->apply(update, now);
  nameserver_.metadata_updated(now);
}

void Machine::deliver(std::span<const std::uint8_t> wire, const Endpoint& source,
                      std::uint8_t ip_ttl, SimTime now) {
  if (failure_ == FailureType::Nic || failure_ == FailureType::ConnectivityLoss) {
    // Packets lost below the stack — the nameserver never counts them,
    // so the machine accounts for them (conservation at the PoP level).
    stats_.drops.add(DropReason::NicFailure);
    return;
  }
  ++stats_.delivered;
  nameserver_.receive(wire, source, ip_ttl, now);
}

std::size_t Machine::pump(SimTime now) {
  if (!begin_pump_phase(now)) return 0;
  for (std::size_t i = 0; i < nameserver_.lane_count(); ++i) run_pump_lane(i, now);
  return end_pump_phase(now);
}

bool Machine::begin_pump_phase(SimTime now) {
  if (failure_ == FailureType::SoftwareBug) {
    return false;  // hung process: queries accepted but never answered
  }
  return nameserver_.begin_phase(now);
}

bool Machine::metadata_reachable() const noexcept {
  // Transit links carry metadata; both full and partial connectivity
  // failures cut it off (§4.2.2: "the transit links — typically the links
  // over which metadata arrive — fail, but DNS traffic still reaches the
  // nameservers via peering links").
  return failure_ != FailureType::ConnectivityLoss &&
         failure_ != FailureType::PartialConnectivity;
}

std::optional<dns::Rcode> Machine::probe(const dns::Question& question, SimTime now) {
  (void)now;
  // A self-suspended nameserver still runs and answers the local agent's
  // probes (it is only out of the anycast data path); only a crashed
  // process is unreachable.
  if (nameserver_.state() == server::ServerState::Crashed) return std::nullopt;
  if (failure_ == FailureType::Nic || failure_ == FailureType::ConnectivityLoss ||
      failure_ == FailureType::SoftwareBug) {
    return std::nullopt;  // no answer: monitoring sees a timeout
  }
  const auto query = dns::make_query(0, question.name, question.qtype);
  const auto response =
      nameserver_.responder().respond(query, Endpoint{IpAddr(Ipv4Addr(0x7F000001)), 0});
  if (failure_ == FailureType::Disk || failure_ == FailureType::Memory) {
    // Corrupted subsystems garble answers; the monitoring agent's
    // regression suite detects the wrong rcode.
    return dns::Rcode::ServFail;
  }
  return response.header.rcode;
}

}  // namespace akadns::pop
