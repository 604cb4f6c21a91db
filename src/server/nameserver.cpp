#include "server/nameserver.hpp"

#include "dns/wire.hpp"

namespace akadns::server {

std::string to_string(ServerState s) {
  switch (s) {
    case ServerState::Running: return "running";
    case ServerState::Crashed: return "crashed";
    case ServerState::SelfSuspended: return "self-suspended";
  }
  return "unknown";
}

Nameserver::Nameserver(NameserverConfig config, const zone::ZoneStore& store)
    : config_(std::move(config)),
      clock_(std::make_unique<ManualClock>()),
      engine_(config_.defense_config(), *clock_) {
  const std::size_t lanes = engine_.lane_count();
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(store);
}

void Nameserver::receive(std::span<const std::uint8_t> wire, const Endpoint& source,
                         std::uint8_t ip_ttl, SimTime now) {
  clock_->set(now);
  const std::size_t li = engine_.lane_of(source);
  Lane& lane = lanes_[li];
  StageTimer receive_timer(lane.telemetry.stage(Stage::Receive));
  ++lane.stats.packets_received;
  if (state_ != ServerState::Running) {
    lane.stats.drops.add(DropReason::NotRunning);
    return;
  }
  // NIC / kernel stack limit: when arrivals exceed the I/O capacity,
  // packets are lost before the application sees them (Figure 10, A>A2).
  // The engine's bucket is machine-wide (one NIC) and receive() is serial.
  // The engine counts this drop, as it does the firewall's below.
  if (!engine_.io_admit(li)) return;
  // The once-only decode: header + question parsed here, shared by the
  // firewall, the filters, and (completed in place) the responder.
  dns::QueryView view;
  {
    StageTimer parse_timer(lane.telemetry.stage(Stage::Parse));
    auto decoded = dns::decode_query_view(wire);
    if (!decoded) {
      // Unanswerable: no parseable header/question means no FORMERR
      // either, so the packet dies here instead of wasting queue space.
      lane.stats.drops.add(DropReason::Malformed);
      return;
    }
    view = std::move(decoded).value();
  }
  if (engine_.firewall_drops(li, view.question)) return;
  lane.core.admit(engine_, li, wire, std::move(view), source, ip_ttl, now, &lane.telemetry);
}

bool Nameserver::begin_phase(SimTime now) {
  clock_->set(now);
  if (state_ != ServerState::Running) {
    engine_.begin_phase_unmetered(0);  // zero any stale budgets defensively
    return false;
  }
  return engine_.begin_phase();
}

void Nameserver::run_lane(std::size_t lane_index, SimTime now) {
  Lane& lane = lanes_[lane_index];
  while (auto item = engine_.next(lane_index)) {
    lane.telemetry.queue_wait().add((now - item->arrival).to_micros());

    // Query-of-death check: an unrecoverable fault in query processing.
    // Only this lane stops; end_phase crashes the whole instance.
    if (crash_predicate_ && crash_predicate_(item->question())) {
      ++lane.stats.crashes;
      lane.stats.drops.add(DropReason::QueryOfDeath);
      lane.crashed = true;
      lane.qod = item->question();  // "write the DNS payload to disk"
      break;
    }

    lane.core.answer(engine_, lane_index, *item, now, &lane.telemetry);
    ++lane.stats.responses_sent;
  }
}

std::size_t Nameserver::end_phase(SimTime now) {
  clock_->set(now);
  // Flush buffered responses in lane order — the sink call sequence is a
  // pure function of lane contents, identical for 1 or N worker threads.
  for (auto& lane : lanes_) {
    ResponseBatch& out = lane.core.responses();
    if (span_sink_) {
      for (const auto& entry : out.entries) span_sink_(entry.dst, out.wire(entry));
    }
    out.clear();
  }
  // Settle budgets (unspent metered compute is refunded inside the
  // engine) and apply crash effects, in lane order.
  const std::size_t total = engine_.end_phase();
  bool first_crash = true;
  for (auto& lane : lanes_) {
    if (lane.crashed) {
      if (first_crash) {
        last_qod_ = lane.qod;
        first_crash = false;
      }
      if (config_.qod_trap_enabled && lane.qod) {
        // The separate firewall-builder process installs a rule dropping
        // similar queries for T_QoD.
        engine_.firewall().install(*lane.qod, now, config_.qod_rule_ttl);
      }
      state_ = ServerState::Crashed;
      lane.crashed = false;
      lane.qod.reset();
    }
  }
  return total;
}

std::size_t Nameserver::process(SimTime now) {
  if (!begin_phase(now)) return 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) run_lane(i, now);
  return end_phase(now);
}

std::size_t Nameserver::process_unmetered(SimTime now, std::size_t budget) {
  clock_->set(now);
  if (state_ != ServerState::Running || budget == 0) return 0;
  engine_.begin_phase_unmetered(budget);
  for (std::size_t i = 0; i < lanes_.size(); ++i) run_lane(i, now);
  return end_phase(now);
}

void Nameserver::self_suspend() noexcept {
  if (state_ == ServerState::Running) state_ = ServerState::SelfSuspended;
}

void Nameserver::resume() noexcept {
  if (state_ == ServerState::SelfSuspended) state_ = ServerState::Running;
}

void Nameserver::restart(SimTime now) {
  clock_->set(now);
  // A restart loses in-flight queries (resolvers retry) and resets the
  // capacity buckets; learned filter state survives in this model because
  // production filters persist their learned tables out of process.
  // The engine counts the flushed queries as RestartFlush drops.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    engine_.flush_lane(i);
    lanes_[i].core.responses().clear();
    lanes_[i].crashed = false;
    lanes_[i].qod.reset();
  }
  engine_.reset_buckets();
  state_ = ServerState::Running;
  metadata_updated(now);
}

bool Nameserver::is_stale(SimTime now) const noexcept {
  if (config_.input_delayed) return false;
  return now - last_metadata_ > config_.staleness_threshold;
}

}  // namespace akadns::server
