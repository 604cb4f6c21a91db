// The datapath shard both transports run around one defense-engine lane:
// the responder (with its answer cache), the buffer pool, the response
// scratch and the deferred-response batch. Each sim Nameserver lane and
// each net::Server worker owns one, and queries that go through the
// §4.3.3 pipeline take the same two steps on either transport:
//   admit():  score → pooled copy (a queued query outlives the receive
//             buffer) → penalty-queue placement;
//   answer(): respond → fan the rcode back to the filters → buffer the
//             response, with its reply route, until the transport
//             flushes it.
// The gates ahead of admission stay with each transport: the sim's
// (liveness, I/O admission, parse, firewall) and the sockets' one list
// for UDP and TCP alike (decode, NOTIFY/transfer hand-off, firewall,
// freshness). The core counts nothing: the engine's DefenseLaneStats is
// the one count of what the engine decides.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/buffer_pool.hpp"
#include "defense/defense_engine.hpp"
#include "server/query_context.hpp"
#include "server/responder.hpp"
#include "server/telemetry.hpp"

namespace akadns::server {

/// Responses held until the transport flushes them. One byte arena +
/// offsets with retained capacity: steady state allocates nothing.
struct ResponseBatch {
  struct Entry {
    Endpoint dst;
    ReplyRoute route;
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  std::vector<std::uint8_t> bytes;
  std::vector<Entry> entries;

  void append(const Endpoint& dst, ReplyRoute route, std::span<const std::uint8_t> wire) {
    entries.push_back({dst, route, bytes.size(), wire.size()});
    bytes.insert(bytes.end(), wire.begin(), wire.end());
  }
  std::span<const std::uint8_t> wire(const Entry& e) const noexcept {
    return {bytes.data() + e.offset, e.len};
  }
  void clear() noexcept {
    bytes.clear();
    entries.clear();
  }
};

class LaneCore {
 public:
  using Engine = defense::DefenseEngine<QueryContext>;

  explicit LaneCore(const zone::ZoneStore& store, ResponderConfig config = {});

  /// Admits a decoded query into engine lane `lane`; its answer will
  /// take `route`. A non-null `telemetry` times the scoring as
  /// Stage::Score.
  filters::EnqueueOutcome admit(Engine& engine, std::size_t lane,
                                std::span<const std::uint8_t> wire, dns::QueryView view,
                                const Endpoint& source, std::uint8_t ip_ttl, Timepoint arrival,
                                DatapathTelemetry* telemetry, ReplyRoute route = {});

  /// Answers a query the engine released from `lane` into responses(),
  /// shaped for its route's transport. A non-null `telemetry` times the
  /// respond as Stage::Resolve.
  void answer(Engine& engine, std::size_t lane, QueryContext& item, SimTime now,
              DatapathTelemetry* telemetry);

  Responder& responder() noexcept { return responder_; }
  const Responder& responder() const noexcept { return responder_; }
  const BufferPool& pool() const noexcept { return *pool_; }
  ResponseBatch& responses() noexcept { return responses_; }

 private:
  Responder responder_;
  // Queued PooledBuffers release into the pool, so owners declare the
  // core before the engine. Heap-held: cores move, buffers keep a
  // pointer to it.
  std::unique_ptr<BufferPool> pool_;
  std::vector<std::uint8_t> scratch_;  // the responder encodes into it
  ResponseBatch responses_;
};

}  // namespace akadns::server
