#include "server/lane_core.hpp"

namespace akadns::server {
namespace {

/// Cheap rcode extraction from encoded response header bytes.
dns::Rcode rcode_of(const std::vector<std::uint8_t>& wire) {
  return wire.size() >= 4 ? static_cast<dns::Rcode>(wire[3] & 0xF) : dns::Rcode::ServFail;
}

}  // namespace

LaneCore::LaneCore(const zone::ZoneStore& store, ResponderConfig config)
    : responder_(store, std::move(config)), pool_(std::make_unique<BufferPool>()) {}

filters::EnqueueOutcome LaneCore::admit(Engine& engine, std::size_t lane,
                                        std::span<const std::uint8_t> wire, dns::QueryView view,
                                        const Endpoint& source, std::uint8_t ip_ttl,
                                        Timepoint arrival, DatapathTelemetry* telemetry,
                                        ReplyRoute route) {
  QueryContext ctx;
  ctx.view = std::move(view);
  ctx.parsed = true;
  ctx.source = source;
  ctx.ip_ttl = ip_ttl;
  ctx.arrival = arrival;
  ctx.route = route;
  {
    StageTimer score_timer(telemetry ? &telemetry->stage(Stage::Score) : nullptr);
    ctx.score = engine.score(lane, ctx.filter_view(arrival));
  }
  ctx.wire = pool_->copy_of(wire);
  const double score = ctx.score;  // read before the move below
  return engine.enqueue(lane, std::move(ctx), score);
}

void LaneCore::answer(Engine& engine, std::size_t lane, QueryContext& item, SimTime now,
                      DatapathTelemetry* telemetry) {
  {
    StageTimer resolve_timer(telemetry ? &telemetry->stage(Stage::Resolve) : nullptr);
    responder_.respond_view_into(item.bytes(), item.view, item.source, now, scratch_,
                                 item.route.wire_size_limit());
  }
  // Fan the outcome back to this lane's filters (NXDOMAIN counting etc.).
  engine.observe_response(lane, item.filter_view(now), rcode_of(scratch_));
  responses_.append(item.source, item.route, scratch_);
}

}  // namespace akadns::server
