// akadns-loadgen: self-play load generation over real sockets.
//
// Blasts a ReplayCorpus (workload/replay.hpp — legitimate + attack mix)
// at an authoritative server over UDP, recvmmsg/sendmmsg-batched with a
// bounded in-flight window per socket, and reports achieved qps plus
// latency percentiles. Several client sockets run in parallel threads —
// each gets its own ephemeral source port, which is exactly what spreads
// the flows across the server's SO_REUSEPORT workers (the kernel hashes
// the 4-tuple, as it would hash real resolvers).
//
// Self-play verification: when the corpus was built from the same
// (zones, seed) the server publishes, expected_responses() computes the
// byte-exact answer for every corpus entry through the simulator's own
// Responder, and the loadgen compares each received datagram against it
// (transaction id aside). A mismatch means the socket frontend and the
// sim datapath diverged — the differential property the loopback test
// pins, kept continuously measurable under load.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "server/responder.hpp"
#include "workload/replay.hpp"
#include "zone/zone_store.hpp"

namespace akadns::net {

struct LoadgenConfig {
  /// Server address (v4) and UDP port.
  Endpoint target;
  /// Multi-target mode: when non-empty this list wins over `target` and
  /// lanes round-robin across it (lane i → targets[i % n]). Used to
  /// drive a whole PoP of machines (or its anycast front plus direct
  /// machine ports) from one run, with per-target accounting.
  std::vector<Endpoint> targets;
  /// Parallel client sockets, one thread each.
  std::size_t sockets = 4;
  /// Datagrams per sendmmsg/recvmmsg syscall.
  std::size_t batch = 32;
  /// Max in-flight queries per socket (must stay < 65536: the DNS
  /// transaction id doubles as the window slot).
  std::size_t window = 512;
  /// Queries to send in total, spread across sockets.
  std::uint64_t total_queries = 100'000;
  /// Aggregate send-rate cap in queries/sec (0 = unpaced). Pacing is what
  /// makes failover drills machine-speed independent: an unpaced run
  /// finishes whenever the hardware allows, so on a fast box the traffic
  /// can end before the event under test even fires. A paced lane also
  /// keeps its window slack, so it continues probing a re-routed path
  /// immediately instead of stalling on a window full of dead queries.
  double rate = 0.0;
  /// How long to wait for stragglers after the last send before
  /// declaring the remainder dropped.
  Duration response_timeout = Duration::millis(1000);
  /// Retransmissions per query after the first send times out (what a
  /// real resolver does on a lossy path). A query counts as dropped only
  /// once every try expired; retries are reported separately. 0 = the
  /// strict single-shot mode (loopback differential runs).
  std::size_t retries = 0;
  /// Losses closer together than this merge into one outage window
  /// (see OutageTracker).
  Duration outage_gap = Duration::millis(500);
  int rcvbuf = 1 << 22;
  int sndbuf = 1 << 22;
};

/// A contiguous stretch of query loss against one target, in nanoseconds
/// since the run epoch. Width is the loadgen's end-to-end view of an
/// outage: from the first query that went unanswered to the last.
struct OutageWindow {
  std::int64_t start_ns = 0;  // send time of the first lost query
  std::int64_t end_ns = 0;    // send time of the last lost query
  std::uint64_t losses = 0;   // queries lost inside the window
  std::int64_t width_ns() const noexcept { return end_ns - start_ns; }
};

/// Classifies individual losses into outage windows: losses whose send
/// times fall within `gap_ns` of an existing window extend it; anything
/// further away opens a new window. This is what turns "N queries timed
/// out" into "the target was dark from t0 to t1" — the quantity a
/// failover drill measures (kill a machine, read the widest window).
///
/// record_loss is optimized for the near-sorted order a lane produces
/// (expiry sweeps walk the slot table, so timestamps within one sweep
/// are unordered but sweeps advance monotonically); windows() sorts and
/// coalesces, so cross-lane merge() of raw trackers is also correct.
class OutageTracker {
 public:
  explicit OutageTracker(std::int64_t gap_ns = 500'000'000) : gap_ns_(gap_ns) {}

  void record_loss(std::int64_t ns) {
    ++losses_;
    if (!raw_.empty()) {
      auto& last = raw_.back();
      if (ns >= last.start_ns - gap_ns_ && ns <= last.end_ns + gap_ns_) {
        last.start_ns = std::min(last.start_ns, ns);
        last.end_ns = std::max(last.end_ns, ns);
        ++last.losses;
        return;
      }
    }
    raw_.push_back(OutageWindow{ns, ns, 1});
  }

  void merge(const OutageTracker& o) {
    losses_ += o.losses_;
    raw_.insert(raw_.end(), o.raw_.begin(), o.raw_.end());
  }

  /// The final classification: windows sorted by start, coalesced across
  /// whatever order losses were recorded (or merged) in.
  std::vector<OutageWindow> windows() const {
    std::vector<OutageWindow> sorted = raw_;
    std::sort(sorted.begin(), sorted.end(),
              [](const OutageWindow& a, const OutageWindow& b) {
                return a.start_ns < b.start_ns;
              });
    std::vector<OutageWindow> out;
    for (const auto& w : sorted) {
      if (!out.empty() && w.start_ns <= out.back().end_ns + gap_ns_) {
        out.back().end_ns = std::max(out.back().end_ns, w.end_ns);
        out.back().losses += w.losses;
      } else {
        out.push_back(w);
      }
    }
    return out;
  }

  std::int64_t widest_ns() const {
    std::int64_t widest = 0;
    for (const auto& w : windows()) widest = std::max(widest, w.width_ns());
    return widest;
  }

  std::uint64_t losses() const noexcept { return losses_; }

 private:
  std::int64_t gap_ns_;
  std::uint64_t losses_ = 0;
  std::vector<OutageWindow> raw_;
};

/// Per-target slice of a multi-target run: which endpoint, how it fared,
/// and when (if ever) it went dark.
struct TargetReport {
  Endpoint target;
  std::size_t lanes = 0;  // client sockets pinned to this target
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mismatched = 0;
  std::vector<OutageWindow> outages;
  std::int64_t widest_outage_ns = 0;
};

/// Per-traffic-class accounting (legitimate vs attack, per the corpus
/// entry's is_attack flag). Under an attack mix with the server's defense
/// on, the interesting quantity is not aggregate loss but *who* lost:
/// legit goodput should hold while attack traffic is shed.
struct ClassCounters {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;     // timed out waiting (all tries spent)
  std::uint64_t mismatched = 0;  // byte-compare against expected failed
  std::uint64_t servfail = 0;    // responses carrying rcode SERVFAIL

  /// Fraction of sent queries answered (1.0 when nothing was sent).
  double goodput() const noexcept {
    return sent == 0 ? 1.0 : static_cast<double>(received) / static_cast<double>(sent);
  }

  void merge(const ClassCounters& o) noexcept {
    sent += o.sent;
    received += o.received;
    dropped += o.dropped;
    mismatched += o.mismatched;
    servfail += o.servfail;
  }
};

/// Version accounting for live-reload runs (a FlipReference supplied).
/// Every received response is byte-matched against both the pre-flip
/// (v1) and post-flip (v2) expected tables. Because one connected UDP
/// socket is one SO_REUSEPORT flow, each lane observes a single worker's
/// replica — so per lane and per zone the served version is monotone,
/// and a v1 answer for a zone arriving *after* that lane saw the zone's
/// v2 is a genuine stale-serial answer, not reordering. Zones flip one
/// publish at a time, so one zone's new answer says nothing about
/// another's. Entries whose bytes are identical in both versions (e.g.
/// REFUSED responses carrying no records) are version-agnostic and never
/// counted stale.
struct FlipStats {
  std::uint64_t old_answers = 0;  // matched v1 before the lane saw the zone's v2
  std::uint64_t new_answers = 0;  // matched v2 (or either, after the zone's v2)
  std::uint64_t stale_old = 0;    // matched ONLY v1 after the lane saw the zone's v2
  /// Nanoseconds from run start to the first v2-only match across all
  /// lanes; -1 when no lane observed the new version.
  std::int64_t first_new_ns = -1;

  void merge(const FlipStats& o) noexcept {
    old_answers += o.old_answers;
    new_answers += o.new_answers;
    stale_old += o.stale_old;
    if (o.first_new_ns >= 0 && (first_new_ns < 0 || o.first_new_ns < first_new_ns)) {
      first_new_ns = o.first_new_ns;
    }
  }
};

/// One lane's FlipStats bookkeeping: which zones it has seen answer with
/// their post-flip version.
class FlipLedger {
 public:
  /// Files one verified answer for an entry of `zone` that matched the
  /// pre-flip table (`old_match`), the post-flip one (`new_match`) or
  /// both, received `t_ns` into the run.
  void record(std::uint32_t zone, bool old_match, bool new_match, std::int64_t t_ns) {
    if (zone >= saw_new_.size()) saw_new_.resize(std::size_t{zone} + 1, false);
    if (new_match && !old_match) {
      if (!saw_new_[zone]) {
        saw_new_[zone] = true;
        if (stats_.first_new_ns < 0) stats_.first_new_ns = t_ns;
      }
      ++stats_.new_answers;
    } else if (saw_new_[zone]) {
      ++(new_match ? stats_.new_answers : stats_.stale_old);
    } else {
      ++stats_.old_answers;
    }
  }

  const FlipStats& stats() const noexcept { return stats_; }

 private:
  std::vector<bool> saw_new_;
  FlipStats stats_;
};

struct LoadgenReport {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;     // timed out waiting
  std::uint64_t mismatched = 0;  // byte-compare against expected failed
  std::uint64_t unexpected = 0;  // response id matching nothing in flight
  std::uint64_t retransmits = 0; // timed-out tries resent (config.retries)
  std::uint64_t servfail = 0;    // responses carrying rcode SERVFAIL
  double seconds = 0.0;          // wall time of the whole run
  double qps = 0.0;              // received / seconds
  /// Round-trip latency in microseconds.
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0, p999_us = 0.0, max_us = 0.0;
  LogHistogram latency_ns;  // merged raw histogram (ns)
  /// The same counters split by traffic class.
  ClassCounters legit;
  ClassCounters attack;
  /// Live-reload version accounting (all zero / -1 without a FlipReference).
  FlipStats flip;
  /// One entry per distinct endpoint (config.targets order; a single
  /// entry in single-target runs), with per-target outage windows.
  std::vector<TargetReport> targets;
  /// Outage classification across every target — the widest window here
  /// is the PoP-level "how long were queries going unanswered" number.
  std::vector<OutageWindow> outages;
  std::int64_t widest_outage_ns = 0;
};

/// Runs the sim Responder over every corpus entry and returns the
/// expected wire response per entry (transaction id 0). Pass the same
/// ResponderConfig the server runs with.
std::vector<std::vector<std::uint8_t>> expected_responses(
    const workload::ReplayCorpus& corpus, const zone::ZoneStore& store,
    const server::ResponderConfig& responder_config = {});

/// The post-flip reference of a live-reload run, index-aligned with the
/// corpus: each entry's expected answer once the flip is published, and
/// the zone that holds the entry's qname (its index among the store's
/// apexes; one extra index for names no zone holds), which keys the
/// per-zone version bookkeeping.
struct FlipReference {
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint32_t> zone;
};

/// Builds the FlipReference from the store the flip publishes.
FlipReference flip_reference(const workload::ReplayCorpus& corpus, const zone::ZoneStore& flipped,
                             const server::ResponderConfig& responder_config = {});

class Loadgen {
 public:
  /// `expected` may be empty (no verification). When non-empty it must
  /// be index-aligned with the corpus. `flip` (optional, same alignment)
  /// is the post-flip reference for live-reload runs: responses matching
  /// it count as new-version answers and the report's FlipStats become
  /// meaningful.
  Loadgen(LoadgenConfig config, const workload::ReplayCorpus& corpus,
          std::vector<std::vector<std::uint8_t>> expected = {}, FlipReference flip = {});

  /// Blocks until every query is sent and answered (or timed out).
  LoadgenReport run();

 private:
  LoadgenConfig config_;
  const workload::ReplayCorpus& corpus_;
  std::vector<std::vector<std::uint8_t>> expected_;
  FlipReference flip_;
};

}  // namespace akadns::net
