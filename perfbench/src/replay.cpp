#include "replay.hpp"

#include <time.h>

#include "common/buffer_pool.hpp"
#include "common/clock.hpp"
#include "defense/defense_engine.hpp"
#include "defense/filter_chain.hpp"
#include "dns/wire.hpp"
#include "server/query_context.hpp"
#include "server/responder.hpp"

namespace perfbench {

using namespace akadns;

namespace {

constexpr std::size_t kBatch = 32;  // queries per simulated receive batch

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Times one call when tracing; adds its span under `parent` and its
/// duration to `sum`. Untraced, it only makes the call.
class Tracer {
 public:
  explicit Tracer(SpanLog* log) : log_(log) {}

  template <typename Fn>
  auto time(std::uint32_t query, SpanKind kind, std::int32_t parent, double& sum, Fn&& fn) {
    if (log_ == nullptr) return fn();
    const std::int64_t start = mono_ns();
    struct Close {
      Tracer& t;
      std::uint32_t query;
      SpanKind kind;
      std::int32_t parent;
      double& sum;
      std::int64_t start;
      ~Close() {
        const std::int64_t end = mono_ns();
        t.log_->add(query, kind, parent, start, end);
        sum += static_cast<double>(end - start);
      }
    } close{*this, query, kind, parent, sum, start};
    return fn();
  }

  /// For calls whose query is known only after they return.
  std::int64_t start() const { return log_ ? mono_ns() : 0; }
  void record(std::uint32_t query, SpanKind kind, std::int32_t parent, std::int64_t start,
              double& sum) {
    if (log_ == nullptr) return;
    const std::int64_t end = mono_ns();
    log_->add(query, kind, parent, start, end);
    sum += static_cast<double>(end - start);
  }

  /// Opens a query's root span; closed by end_root.
  std::int32_t begin_root(std::uint32_t query) {
    return log_ ? log_->add(query, kQuery, -1, mono_ns(), 0) : -1;
  }
  void end_root(std::int32_t root) {
    if (log_ != nullptr && root >= 0) log_->close(root, mono_ns());
  }

 private:
  SpanLog* log_;
};

}  // namespace

ReplayResult replay(const akadns::zone::ZoneStore& store, const std::vector<Entry>& entries,
                    const std::vector<std::uint32_t>& stream, const ReplayConfig& config,
                    SpanLog* log) {
  // Built like one net::Server worker (see Server::Worker): a single-lane
  // engine with the NXDOMAIN filter scaled to the worker's shard and the
  // hop-count filter, ahead of a Responder with the server's defaults.
  // The compute meter is left off: the replay drains the queues after
  // every batch, so metering would only stall it.
  MonotonicClock clock;
  BufferPool pool;  // outlives the engine, whose queued buffers return here
  defense::DefenseConfig dc;
  dc.lanes = 1;
  dc.queue_config = config.defense.queue_config;
  defense::DefenseEngine<server::QueryContext> engine(dc, clock);
  filters::NxDomainFilter::Config nx;
  nx.penalty = config.defense.nxdomain_penalty;
  nx.nxdomain_threshold = std::max<std::uint64_t>(
      1, config.defense.nxdomain_threshold / kWorkers);
  engine.install_filter(defense::nxdomain_factory(nx, defense::zone_store_hooks(store)));
  if (config.defense.hopcount) engine.install_filter(defense::hopcount_factory());
  server::Responder responder(store, server::ResponderConfig{});

  const Endpoint client{IpAddr(Ipv4Addr(127, 0, 0, 1)), 40000};
  const std::int64_t epoch = mono_ns();
  Tracer tracer(log);
  ReplayResult r;
  double respond_hit = 0.0, respond_miss = 0.0, enqueue = 0.0, next = 0.0;
  std::uint64_t hits = 0, misses = 0;
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> wire;
  // Per batch slot: the query it carries, its root span, and (shadow
  // mode) the rcode its on-path answer got.
  std::vector<std::uint32_t> batch_query(kBatch);
  std::vector<std::int32_t> batch_root(kBatch);
  std::vector<dns::Rcode> batch_rcode(kBatch, dns::Rcode::NoError);

  const auto respond = [&](std::uint32_t q, std::int32_t root, std::span<const std::uint8_t> bytes,
                           dns::QueryView& view) {
    const std::uint64_t before = responder.stats().cache_hits.value();
    double took = 0.0;
    tracer.time(q, kRespond, root, took, [&] {
      responder.respond_view_into(bytes, view, client,
                                  SimTime::from_nanos(mono_ns() - epoch), out);
    });
    if (responder.stats().cache_hits.value() > before) {
      ++hits;
      respond_hit += took;
    } else {
      ++misses;
      respond_miss += took;
    }
    tracer.time(q, kFindBest, root, r.find_best_ns,
                [&] { return store.find_best_compiled(view.question.name); });
  };

  // Releases the backlog; on the defense path each released query is
  // answered, in shadow mode only the engine's own work runs.
  const auto drain = [&] {
    if (!engine.begin_phase()) return;
    while (true) {
      const std::int64_t t0 = tracer.start();
      auto item = engine.next(0);
      if (!item) break;
      const std::size_t b = (static_cast<std::size_t>(item->bytes()[0]) << 8) | item->bytes()[1];
      const std::uint32_t q = batch_query[b];
      tracer.record(q, kNext, batch_root[b], t0, next);
      dns::Rcode rcode = batch_rcode[b];
      if (config.defense_on_path) {
        respond(q, batch_root[b], item->bytes(), item->view);
        rcode = out.size() >= 4 ? static_cast<dns::Rcode>(out[3] & 0xF) : dns::Rcode::ServFail;
      }
      tracer.time(q, kObserve, batch_root[b], r.observe_ns, [&] {
        engine.observe_response(0, item->filter_view(engine.clock().now()), rcode);
      });
      if (config.defense_on_path) tracer.end_root(batch_root[b]);
    }
    engine.end_phase();
  };

  const std::int64_t cpu0 = thread_cpu_ns();
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    for (std::size_t b = 0; b < n; ++b) {
      const auto q = static_cast<std::uint32_t>(i + b);
      const Entry& e = entries[stream[i + b]];
      // The slot index rides in the transaction id, so a query released
      // from the penalty queues can be matched back to its spans.
      wire.assign(e.wire, e.wire + e.len);
      wire[0] = static_cast<std::uint8_t>(b >> 8);
      wire[1] = static_cast<std::uint8_t>(b & 0xFF);
      const std::int32_t root = tracer.begin_root(q);
      batch_query[b] = q;
      batch_root[b] = root;
      auto view = tracer.time(q, kDecode, root, r.decode_ns,
                              [&] { return dns::decode_query_view(wire); });
      if (!view) {
        tracer.end_root(root);
        continue;
      }
      if (!config.defense_on_path) {
        respond(q, root, wire, view.value());
        batch_rcode[b] =
            out.size() >= 4 ? static_cast<dns::Rcode>(out[3] & 0xF) : dns::Rcode::ServFail;
      }
      server::QueryContext ctx;
      ctx.view = view.value();
      ctx.parsed = true;
      ctx.source = client;
      ctx.ip_ttl = 64;
      ctx.arrival = engine.clock().now();
      ctx.score = tracer.time(q, kScore, root, r.score_ns,
                              [&] { return engine.score(0, ctx.filter_view(ctx.arrival)); });
      const auto outcome = tracer.time(q, kEnqueue, root, enqueue, [&] {
        ctx.wire = pool.copy_of(wire);
        const double score = ctx.score;
        return engine.enqueue(0, std::move(ctx), score);
      });
      if (!config.defense_on_path || outcome != filters::EnqueueOutcome::Enqueued) {
        tracer.end_root(root);
      }
    }
    drain();
  }
  const std::int64_t cpu1 = thread_cpu_ns();

  r.queries = stream.size();
  const double nq = static_cast<double>(std::max<std::size_t>(1, r.queries));
  r.cpu_us_per_query = static_cast<double>(cpu1 - cpu0) / 1e3 / nq;
  r.decode_ns /= nq;
  r.score_ns /= nq;
  r.queue_ns = (enqueue + next) / nq;
  r.observe_ns /= nq;
  r.respond_ns = (respond_hit + respond_miss) / nq;
  r.respond_hit_ns = hits ? respond_hit / static_cast<double>(hits) : 0.0;
  r.respond_miss_ns = misses ? respond_miss / static_cast<double>(misses) : 0.0;
  r.find_best_ns /= nq;
  return r;
}

}  // namespace perfbench
