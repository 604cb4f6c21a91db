// The single per-query object of the nameserver datapath.
//
// Created once at admission (Nameserver::receive(), or a socket worker's
// query path) and *moved* — never copied — through firewall → I/O check
// → scoring → penalty queue → resolution → response sink. It owns the
// packet bytes in a pooled buffer (zero heap allocations per packet
// after warmup) and the once-decoded QueryView that every stage shares:
// the firewall matches view.question, the filters score a reference to
// it, and the responder completes the decode in place instead of
// re-parsing the wire.
#pragma once

#include "common/buffer_pool.hpp"
#include "common/drop_reason.hpp"
#include "common/ip.hpp"
#include "common/sim_time.hpp"
#include "dns/wire.hpp"
#include "filters/filter.hpp"

namespace akadns::server {

/// Where a query's answer goes. UDP (the default): a datagram back to the
/// query's source address. TCP: a frame onto the socket worker's
/// connection slot `conn`, only while that slot still holds `generation`
/// — an answer released after its connection closed is dropped, never
/// handed to the slot's next tenant. TCP answers take the 64 KiB frame
/// ceiling instead of the EDNS clamp and bypass the UDP-keyed answer
/// cache.
struct ReplyRoute {
  static constexpr std::uint32_t kUdp = ~std::uint32_t{0};
  std::uint32_t conn = kUdp;
  std::uint32_t generation = 0;

  bool tcp() const noexcept { return conn != kUdp; }
  /// The responder's `wire_size_limit` for this transport.
  std::size_t wire_size_limit() const noexcept { return tcp() ? dns::kMaxMessageSize : 0; }
};

struct QueryContext {
  PooledBuffer wire;  // pooled copy of the packet bytes
  Endpoint source;
  std::uint8_t ip_ttl = 64;
  SimTime arrival;
  double score = 0.0;
  /// Header + question + section offsets, decoded once at receive().
  /// Valid only when `parsed` (a Malformed drop never reaches a queue).
  dns::QueryView view;
  bool parsed = false;
  ReplyRoute route;

  std::span<const std::uint8_t> bytes() const noexcept { return wire.bytes(); }
  const dns::Question& question() const noexcept { return view.question; }

  /// The narrow view the filter pipeline scores — references this
  /// context's decoded question, copies nothing.
  filters::QueryContext filter_view(Timepoint now) const noexcept {
    return filters::QueryContext{source, ip_ttl, view.question, now};
  }
};

}  // namespace akadns::server
