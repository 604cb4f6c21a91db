#include "server/nameserver.hpp"

#include <algorithm>

#include "dns/wire.hpp"

namespace akadns::server {
namespace {

/// Cheap rcode extraction from encoded response header bytes.
dns::Rcode rcode_of(const std::vector<std::uint8_t>& wire) {
  return wire.size() >= 4 ? static_cast<dns::Rcode>(wire[3] & 0xF) : dns::Rcode::ServFail;
}

}  // namespace

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
  for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(config_, store);
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
  if (!engine_.io_admit(li)) {
    lane.stats.drops.add(DropReason::IoOverload);
    return;
  }
  // The once-only decode: header + question parsed here, shared by the
  // firewall, the filters, and (completed in place) the responder.
  QueryContext ctx;
  {
    StageTimer parse_timer(lane.telemetry.stage(Stage::Parse));
    auto view = dns::decode_query_view(wire);
    if (!view) {
      // Unanswerable: no parseable header/question means no FORMERR
      // either, so the packet dies here instead of wasting queue space.
      lane.stats.drops.add(DropReason::Malformed);
      return;
    }
    ctx.view = std::move(view).value();
    ctx.parsed = true;
  }
  if (engine_.firewall_drops(li, ctx.view.question)) {
    lane.stats.drops.add(DropReason::Firewall);
    return;
  }
  ctx.source = source;
  ctx.ip_ttl = ip_ttl;
  ctx.arrival = now;
  {
    StageTimer score_timer(lane.telemetry.stage(Stage::Score));
    ctx.score = engine_.score(li, ctx.filter_view(now));
  }
  ctx.wire = lane.pool->copy_of(wire);
  const double score = ctx.score;  // read before the move below
  switch (engine_.enqueue(li, std::move(ctx), score)) {
    case filters::EnqueueOutcome::Enqueued:
      ++lane.stats.queries_enqueued;
      break;
    case filters::EnqueueOutcome::DiscardedByScore:
      lane.stats.drops.add(DropReason::ScoreDiscard);
      break;
    case filters::EnqueueOutcome::DroppedQueueFull:
      lane.stats.drops.add(DropReason::QueueFull);
      break;
  }
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
    ++lane.stats.queries_processed;
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

    {
      StageTimer resolve_timer(lane.telemetry.stage(Stage::Resolve));
      lane.responder.respond_view_into(item->bytes(), item->view, item->source, now,
                                       lane.response_scratch);
    }
    // Fan the outcome back to this lane's filters (NXDOMAIN counting etc.).
    engine_.observe_response(lane_index, item->filter_view(now), rcode_of(lane.response_scratch));
    ++lane.stats.responses_sent;
    lane.batch.append(item->source, lane.response_scratch);
  }
}

std::size_t Nameserver::end_phase(SimTime now) {
  clock_->set(now);
  // Flush buffered responses in lane order — the sink call sequence is a
  // pure function of lane contents, identical for 1 or N worker threads.
  for (auto& lane : lanes_) {
    for (const auto& entry : lane.batch.entries) {
      const std::span<const std::uint8_t> wire(lane.batch.bytes.data() + entry.offset,
                                               entry.len);
      if (span_sink_) {
        span_sink_(entry.dst, wire);
      } else if (sink_) {
        sink_(entry.dst, std::vector<std::uint8_t>(wire.begin(), wire.end()));
      }
    }
    lane.batch.clear();
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
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const std::size_t flushed = engine_.flush_lane(i);
    lanes_[i].stats.drops.add(DropReason::RestartFlush, flushed);
    lanes_[i].batch.clear();
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
