// The benchmark's own open-loop UDP sender.
//
// Each generator thread owns a fixed set of connected client sockets
// (flows) and sends on a fixed schedule: query k of a phase is *due* at
// t0 + k / rate, whether or not earlier queries were answered. Latency is
// timed from the due time, not from the actual send, so a generator or
// server stall shows up as latency on every query it delayed; how late
// the generator itself ran is recorded separately as the validity gate.
// Every response is byte-verified against the Oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// One corpus entry as the sender sees it (bytes owned by the corpus).
struct Entry {
  const std::uint8_t* wire = nullptr;
  std::size_t len = 0;
  bool attack = false;
};

/// A connected client socket and the server worker its 4-tuple hashes to.
struct Flow {
  int fd = -1;
  std::size_t worker = 0;
};

struct ClassCounts {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t servfail = 0;
  void merge(const ClassCounts& o) noexcept {
    sent += o.sent;
    received += o.received;
    timeouts += o.timeouts;
    mismatched += o.mismatched;
    servfail += o.servfail;
  }
};

/// What one fixed-rate phase measured, merged across generator threads.
struct PhaseResult {
  double offered_qps = 0.0;
  double seconds = 0.0;
  ClassCounts legit;
  ClassCounts attack;
  std::uint64_t unexpected = 0;   // responses whose id matched nothing in flight
  std::uint64_t send_errors = 0;  // queries the kernel refused to send
  /// Queries due within the phase that the generator had not sent by the
  /// end of its grace period: they are dropped, not sent later, so a
  /// generator that cannot keep the schedule shows here rather than as
  /// server latency.
  std::uint64_t unsent = 0;
  std::vector<std::int64_t> latency;  // legit answers, ns from due time
  std::vector<std::int64_t> late;     // send time minus due time, ns
  CpuTimes generator_cpu;             // RUSAGE_THREAD summed over the threads

  std::uint64_t sent() const noexcept { return legit.sent + attack.sent; }
  std::uint64_t received() const noexcept { return legit.received + attack.received; }
  std::uint64_t timeouts() const noexcept { return legit.timeouts + attack.timeouts; }
  /// Every query the schedule made due within the phase.
  std::uint64_t scheduled() const noexcept { return sent() + send_errors + unsent; }
  void merge(const PhaseResult& o);
};

/// Generator threads; each owns an equal share of the flows.
constexpr std::size_t kThreads = 2;

class Sender {
 public:
  /// `flows` are split round-robin across the threads; the Sender owns
  /// and closes their sockets. The threads run on `cpus` (empty: wherever
  /// the kernel likes).
  Sender(std::vector<Entry> entries, const Oracle& oracle, std::vector<Flow> flows,
         std::vector<int> cpus);
  ~Sender();
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Sends at `rate_qps` for `seconds`, then waits for every outstanding
  /// legit query to be answered or time out; attack queries still
  /// unanswered by then count as timed out. Queries due within the phase
  /// but not yet sent at its end are still sent, late, for up to
  /// `grace_s`; the rest are dropped and counted as unsent. Blocks; spawns
  /// and joins the generator threads.
  PhaseResult run(double rate_qps, double seconds, double grace_s);

  /// Runs `fn` on the calling thread every 10 ms while a phase runs
  /// (the benchmark's scrapes and publishes ride on this).
  void set_ticker(std::function<void()> fn) { tick_ = std::move(fn); }

 private:
  struct Lane;
  std::vector<Entry> entries_;
  const Oracle& oracle_;
  std::vector<int> cpus_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::function<void()> tick_;
};

/// Closed-loop freshness probe: one flow per worker, used right after a
/// publish to time when every worker answers from the new version.
class VisibilityProbe {
 public:
  /// Answer classes returned by the caller's classifier.
  enum Fresh { kMismatch = -1, kOld = 0, kNew = 1 };

  explicit VisibilityProbe(std::vector<Flow> flows) : flows_(std::move(flows)) {}
  ~VisibilityProbe();
  VisibilityProbe(const VisibilityProbe&) = delete;
  VisibilityProbe& operator=(const VisibilityProbe&) = delete;

  /// Asks `query` on every flow, again and again, until each flow's
  /// answer classifies kNew; a probe left unanswered is asked again.
  /// Returns the time the last flow did, or -1 on a mismatch or when
  /// `deadline_ns` passes first.
  std::int64_t wait_new(std::vector<std::uint8_t> query,
                        const std::function<Fresh(std::span<const std::uint8_t>)>& classify,
                        std::int64_t deadline_ns);

 private:
  std::vector<Flow> flows_;
  std::uint16_t next_id_ = 0;
};

/// Flow calibration: opens candidate client sockets one at a time, sends
/// one probe query on each, and reads which worker's udp_packets counter
/// moved to learn where the kernel's SO_REUSEPORT hash placed it.
/// Sockets are kept until each of the kWorkers workers has
/// `flows_per_worker` flows, so
/// the load splits evenly by construction. Returns an empty vector (and
/// sets `error`) when no balanced set is found within a fixed budget of
/// candidates.
std::vector<Flow> calibrate_flows(std::uint16_t port, std::size_t flows_per_worker,
                                  const std::function<std::vector<std::uint64_t>()>& per_worker,
                                  const std::vector<std::uint8_t>& probe, std::string& error);

}  // namespace perfbench
