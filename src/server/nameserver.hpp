// The authoritative nameserver instance — the paper's "specialized
// nameserver software" running on each machine in a PoP (§3.1, Figure 6).
//
// The datapath is sharded into N independent *lanes* (RSS-style): receive()
// hashes the packet's source endpoint to a lane, and each lane owns its own
// penalty-queue set, scoring-engine filter state, responder (with answer
// cache), scratch buffers, and telemetry. Because every flow is pinned to
// one lane and lanes never share mutable state mid-phase, the lanes of one
// machine can be drained by any number of worker threads and produce
// bit-identical results — the lane COUNT is configuration, the thread
// count is not.
//
// The defense stack — firewall, I/O admission, filter scoring, penalty
// queues, compute-budget metering, defense drop accounting — lives in a
// transport-agnostic defense::DefenseEngine (src/defense). This class owns
// one engine with N lanes and drives it on a ManualClock it advances to
// the scheduler's instant at every entry point, so engine behaviour is a
// pure function of the injected schedule (bit-identical to the original
// in-class implementation). net::Server runs the same engine per worker on
// CLOCK_MONOTONIC.
//
// Datapath per packet (one QueryContext, created at admission and moved
// through every stage — no copies, no re-parsing):
//   receive(): lane selection -> liveness -> I/O capacity check (drops
//   below the application when the NIC/stack is saturated, the A > A2
//   region of Figure 10) -> one-pass QueryView decode (header +
//   question) -> firewall check (QoD rules) -> LaneCore::admit (shared
//   with net::Server workers): filter scoring, then penalty-queue
//   placement with the packet bytes in a pooled buffer.
//   process(): a barriered three-step phase —
//     begin_phase(): serial; meters the compute token bucket into
//       per-lane budgets, round-robin one token at a time in lane order;
//     run_lane(i): parallel-safe; work-conserving drain of lane i's
//       penalty queues up to its budget, LaneCore::answer buffering the
//       responses lane-locally;
//     end_phase(): serial; flushes buffered responses in lane order,
//       applies crash effects in lane order, and refunds unspent budget
//       to the bucket.
//   process() runs the three steps inline; Pop::pump may interleave many
//   machines' run_lane calls across a WorkerPool between the serial ends.
// Every packet's fate is counted once, by the layer that decided it:
// NameserverStats counts NotRunning, Malformed and QueryOfDeath, the
// engine the rest, so
//   packets_received == responses_sent + Σ akadns_drops_total
//                       + Σ akadns_defense_drops_total + pending
// holds exactly per lane; each stage records its latency into the owning
// lane's DatapathTelemetry. The machine view is the registry sum over
// the lane label (register_metrics, then obs::read_series on the
// snapshot), never a second struct.
//
// Failure model:
//   - a crash predicate marks queries-of-death (§4.2.4); processing one
//     stops the hitting lane's phase immediately, the other lanes finish
//     their budgets, and end_phase() crashes the instance (optionally
//     installing a firewall rule per hit);
//   - self-suspension (§4.2.1/4.2.2) stops serving until resumed —
//     driven externally by the monitoring agent in src/pop;
//   - metadata staleness tracking (§4.2.2) with a configurable threshold.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/buffer_pool.hpp"
#include "common/clock.hpp"
#include "common/drop_reason.hpp"
#include "defense/defense_engine.hpp"
#include "defense/firewall.hpp"
#include "filters/filter.hpp"
#include "filters/penalty_queues.hpp"
#include "server/lane_core.hpp"
#include "server/query_context.hpp"
#include "server/responder.hpp"
#include "server/telemetry.hpp"

namespace akadns::server {

enum class ServerState : std::uint8_t {
  Running,
  Crashed,        // hit a query-of-death; needs restart()
  SelfSuspended,  // health check failed / stale metadata; needs resume()
};

std::string to_string(ServerState s);

struct NameserverConfig {
  std::string id = "ns";
  /// Queries the application can answer per second (compute bound; the
  /// paper: "compute tends to be the bottleneck for any attack that
  /// arrives at the application").
  double compute_capacity_qps = 50'000.0;
  /// Packets the stack can hand to the application per second (I/O
  /// bound; past this, drops happen below the application — region
  /// A > A2 in Figure 10).
  double io_capacity_qps = 300'000.0;
  /// Independent datapath lanes per machine. Results depend on this
  /// value (it is configuration, like core count) but never on how many
  /// threads drain the lanes. Each lane gets its own queue set (with
  /// `queue_config` capacities), filter state, and answer cache.
  std::size_t lanes = 1;
  filters::PenaltyQueueConfig queue_config{};
  /// T_QoD: lifetime of an installed query-of-death firewall rule.
  Duration qod_rule_ttl = Duration::minutes(10);
  /// The QoD trap is "only deployed on a subset of nameservers".
  bool qod_trap_enabled = true;
  /// Metadata older than this is considered stale (§4.2.2).
  Duration staleness_threshold = Duration::seconds(30);
  /// Input-delayed nameservers (§4.2.3) never self-suspend on staleness.
  bool input_delayed = false;

  /// The defense-engine slice of this config (the engine meters compute
  /// and I/O and owns the penalty queues).
  defense::DefenseConfig defense_config() const {
    defense::DefenseConfig d;
    d.lanes = lanes;
    d.compute_capacity_qps = compute_capacity_qps;
    d.io_capacity_qps = io_capacity_qps;
    d.queue_config = queue_config;
    return d;
  }
};

struct NameserverStats {
  obs::Counter packets_received;
  obs::Counter responses_sent;
  obs::Counter crashes;
  /// Drops this layer decides: NotRunning, Malformed, QueryOfDeath. The
  /// engine's sheds live in its DefenseLaneStats.
  DropCounters drops;

  static constexpr obs::SeriesRow<NameserverStats> kSeries[] = {
      {{"akadns_packets_total", "", "packets handed to the datapath"}, "",
       &NameserverStats::packets_received},
      {{"akadns_responses_sent_total", "", "responses flushed to the transport"}, "",
       &NameserverStats::responses_sent},
      {{"akadns_crashes_total", "", "query-of-death crashes"}, "", &NameserverStats::crashes},
      {obs::kDropsFamily, "", &NameserverStats::drops},
  };
};

class Nameserver {
 public:
  /// Zero-copy sink: the span aliases the lane's response batch and is
  /// only valid for the duration of the call; a caller that keeps the
  /// bytes copies them.
  using ResponseSpanSink =
      std::function<void(const Endpoint& dst, std::span<const std::uint8_t> wire)>;
  /// Must be pure/thread-safe: lanes evaluate it concurrently under a
  /// parallel drain.
  using CrashPredicate = std::function<bool(const dns::Question&)>;

  using Defense = defense::DefenseEngine<QueryContext>;

  Nameserver(NameserverConfig config, const zone::ZoneStore& store);

  const std::string& id() const noexcept { return config_.id; }
  const NameserverConfig& config() const noexcept { return config_; }

  // ---- datapath ----------------------------------------------------------

  /// Accepts one packet from the wire (serial — driven by the event
  /// scheduler, never during a phase). Drops (with accounting) when a
  /// firewall rule matches, the I/O capacity is exceeded, the instance is
  /// not Running, the wire fails to decode, or the penalty queues discard
  /// it. A surviving packet becomes a QueryContext in the penalty queue
  /// of the lane its source endpoint hashes to.
  void receive(std::span<const std::uint8_t> wire, const Endpoint& source,
               std::uint8_t ip_ttl, SimTime now);

  /// Processes queued queries subject to the compute token bucket
  /// (begin_phase → run every lane inline → end_phase). Returns the
  /// number processed.
  std::size_t process(SimTime now);

  /// Processes at most `budget` queries regardless of the bucket (used by
  /// tests and by drivers that meter compute themselves); the budget is
  /// spread round-robin across lanes with backlog.
  std::size_t process_unmetered(SimTime now, std::size_t budget);

  // ---- phased processing (the parallel-drain contract) -------------------
  //
  // Pop::pump drives many machines' lanes concurrently:
  //   for each machine:           begin_phase(now)        (serial)
  //   for each (machine, lane):   run_lane(lane, now)     (any thread)
  //   for each machine:           end_phase(now)          (serial, in order)
  // run_lane touches only that lane's state, so distinct (machine, lane)
  // pairs never race; begin/end own all shared state (buckets, firewall,
  // sinks).

  /// Serial. Assigns per-lane processing budgets from the compute bucket
  /// (one token at a time, round-robin in lane order — the take sequence
  /// a serial take-one/process-one loop would produce). Returns false when
  /// there is nothing to process (not Running, no backlog, or no tokens);
  /// end_phase must not be called in that case.
  bool begin_phase(SimTime now);

  /// Parallel-safe for distinct lanes. Drains lane `lane` up to its phase
  /// budget; responses are buffered lane-locally, a query-of-death stops
  /// only this lane. No-op when the lane's budget is zero.
  void run_lane(std::size_t lane, SimTime now);

  /// Serial. Flushes buffered responses through the sink in lane order,
  /// applies crash effects in lane order, and refunds unspent budget to
  /// the compute bucket. Returns the number of queries processed this
  /// phase.
  std::size_t end_phase(SimTime now);

  /// Budget begin_phase assigned to `lane` (0 outside a phase). Drivers
  /// may skip run_lane for zero-budget lanes.
  std::size_t lane_phase_budget(std::size_t lane) const noexcept {
    return engine_.lane_budget(lane);
  }

  bool has_pending() const noexcept { return engine_.has_pending(); }
  std::size_t pending() const noexcept { return engine_.pending(); }

  void set_response_span_sink(ResponseSpanSink sink) { span_sink_ = std::move(sink); }
  void set_crash_predicate(CrashPredicate predicate) { crash_predicate_ = std::move(predicate); }

  // Hook setters fan out to every lane's responder. Hooks are invoked
  // from run_lane and must therefore be thread-safe (the mapping hook is
  // pure by construction).
  void set_mapping_hook(MappingHook hook) {
    for (auto& lane : lanes_) lane.core.responder().set_mapping_hook(hook);
  }
  void set_referral_push_hook(ReferralPushHook hook) {
    for (auto& lane : lanes_) lane.core.responder().set_referral_push_hook(hook);
  }

  /// Installs one filter instance per lane via the factory (each lane
  /// scores independently, so stateful filters shard their learned state).
  void install_filter(const filters::FilterFactory& factory) {
    engine_.install_filter(factory);
  }

  // ---- lifecycle / health -------------------------------------------------

  ServerState state() const noexcept { return state_; }
  bool running() const noexcept { return state_ == ServerState::Running; }

  /// Monitoring-agent actions.
  void self_suspend() noexcept;
  void resume() noexcept;
  /// Restart after a crash (flushes queued queries in every lane —
  /// accounted as RestartFlush drops; resolvers retry).
  void restart(SimTime now);

  /// The payload that crashed the server, if any (written "to disk" for
  /// the firewall-builder process and operations). With several lanes
  /// crashing in one phase, the first in lane order.
  const std::optional<dns::Question>& last_qod() const noexcept { return last_qod_; }

  // ---- metadata freshness --------------------------------------------------

  /// Marks a metadata delivery (zone publish / mapping update).
  void metadata_updated(SimTime now) noexcept { last_metadata_ = now; }
  SimTime last_metadata_update() const noexcept { return last_metadata_; }
  /// Stale iff the newest input is older than the threshold. Input-delayed
  /// nameservers always report fresh (they intentionally serve stale data).
  bool is_stale(SimTime now) const noexcept;

  // ---- components ----------------------------------------------------------
  //
  // The unqualified accessors address lane 0 — exact whole-machine views
  // when lanes == 1 (the default), convenient handles otherwise (probes,
  // single-lane tests). The lane-indexed overloads serve multi-lane
  // callers; machine totals are registry sums (register_metrics).

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  /// Lane a source endpoint is pinned to (exposed for tests/diagnostics).
  std::size_t lane_of(const Endpoint& source) const noexcept { return engine_.lane_of(source); }

  /// The defense stack this instance delegates to (filters, queues,
  /// buckets, firewall, defense drop accounting).
  Defense& defense() noexcept { return engine_; }
  const Defense& defense() const noexcept { return engine_; }

  filters::ScoringEngine& scoring() noexcept { return engine_.scoring(0); }
  filters::ScoringEngine& scoring(std::size_t lane) noexcept { return engine_.scoring(lane); }
  Responder& responder() noexcept { return lanes_[0].core.responder(); }
  const Responder& responder() const noexcept { return lanes_[0].core.responder(); }
  Responder& responder(std::size_t lane) noexcept { return lanes_[lane].core.responder(); }
  defense::Firewall& firewall() noexcept { return engine_.firewall(); }

  const NameserverStats& lane_stats(std::size_t lane) const noexcept {
    return lanes_[lane].stats;
  }
  std::size_t lane_pending(std::size_t lane) const noexcept {
    return engine_.lane_pending(lane);
  }

  const filters::PenaltyQueueSet<QueryContext>& queues() const noexcept {
    return engine_.queues(0);
  }
  const filters::PenaltyQueueSet<QueryContext>& queues(std::size_t lane) const noexcept {
    return engine_.queues(lane);
  }
  const BufferPool& pool() const noexcept { return lanes_[0].core.pool(); }
  const BufferPool& pool(std::size_t lane) const noexcept { return lanes_[lane].core.pool(); }

  /// Registers this instance's full metric surface — per-lane packet
  /// counters, drop taxonomy, stage telemetry, responder/cache counters,
  /// live pending gauges, and the defense engine's lanes — under `base`
  /// (typically machine labels). The machine view is the registry sum
  /// over the lane label; a scrape at a quiescent point satisfies
  /// packets == responses + Σ akadns_drops_total +
  /// Σ akadns_defense_drops_total + pending exactly, per lane and
  /// overall. Instruments are referenced in place: the nameserver must
  /// outlive the registry.
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const obs::LabelSet lane_labels = obs::with(base, "lane", i);
      obs::register_series(reg, lane_labels, lanes_[i].stats);
      lanes_[i].telemetry.register_into(reg, lane_labels);
      obs::register_series(reg, lane_labels, lanes_[i].core.responder().stats());
      obs::register_series(reg, lane_labels,
                           lanes_[i].core.responder().answer_cache().stats());
      reg.gauge_fn(
          "akadns_pending", lane_labels,
          [this, i] { return static_cast<double>(engine_.lane_pending(i)); },
          obs::GaugeAgg::Sum, "queries sitting in penalty queues");
    }
    engine_.register_metrics(reg, base);
  }

 private:
  /// The transport-side half of a datapath shard: the lane core plus the
  /// sim's stats, telemetry and crash state. The defense-side half lives
  /// in the engine's lane of the same index; run_lane mutates nothing
  /// outside this pair.
  struct Lane {
    explicit Lane(const zone::ZoneStore& store) : core(store) {}

    LaneCore core;
    NameserverStats stats;
    DatapathTelemetry telemetry;

    // Crash state, owned by run_lane/end_phase.
    bool crashed = false;
    std::optional<dns::Question> qod;
  };

  NameserverConfig config_;
  /// The engine's time source; set to the scheduler's `now` at every
  /// public entry point. Heap-allocated so the engine's pointer to it
  /// survives moves of the Nameserver.
  std::unique_ptr<ManualClock> clock_;
  /// Declared before engine_: the engine's queued QueryContexts hold
  /// PooledBuffers that release into the lanes' pools on destruction, so
  /// the engine must be destroyed first (reverse declaration order).
  std::vector<Lane> lanes_;
  Defense engine_;
  ResponseSpanSink span_sink_;
  CrashPredicate crash_predicate_;
  ServerState state_ = ServerState::Running;
  std::optional<dns::Question> last_qod_;
  SimTime last_metadata_ = SimTime::origin();
};

}  // namespace akadns::server
