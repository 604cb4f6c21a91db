// The anycast front: one address, many machines (§4.2), over an
// optionally impaired path.
//
// In production a PoP announces one anycast prefix and the routers'
// ECMP flow hash pins each resolver to one machine; when a machine
// withdraws (BGP) the hash recomputes and only its flows move. This is
// the loopback realization of that dataplane: a UDP/TCP relay bound to
// a single front endpoint that pins each client flow to a machine via
// rendezvous (highest-random-weight) hashing over the *active* member
// set — so member churn moves only the flows whose winner changed,
// exactly ECMP-with-resilient-hashing semantics.
//
// Suspension (the probe suite's verdict) and death (supervisor Down)
// both become set_member_active(false)/upsert_member: affected flows
// re-pin immediately and a ReconvergeSample records how many moved and
// how long until the first answer flowed on a re-pinned flow — the
// time-to-reconverge a failover drill reads out. A re-pinned flow's old
// upstream socket keeps receiving for one to two idle sweeps (1-2 s), so
// answers a withdrawn but live member still owes reach the client, as
// real ECMP return traffic never crosses the hash.
//
// The same relay is the chaos layer's impairment hop: FrontConfig::plan
// is executed on every datagram and TCP chunk it carries, with fates
// drawn from chaos::FaultStream — a pure function of (seed, direction,
// ordinal), so the same plan and seed reproduce the same schedule:
//   UDP datagrams: loss, duplication, delay+jitter, delay-based
//     reordering, single-byte corruption.
//   TCP connections: reset (RST on accept) and stall (accept, read,
//     never answer) per connection; delay+jitter and byte corruption
//     per relayed chunk (loss/dup/reorder are meaningless on a stream).
//   Blackhole windows: UDP is swallowed, new TCP connections are
//     accepted and closed, and bytes on established relays are held
//     until the window ends.
// akadns-chaos is a one-member front with a plan; `akadns-fleet
// --chaos-plan` puts one such hop in front of every machine.
//
// One epoll thread owns every socket; control ops (member churn) are
// queued and executed on that thread, so the flow table needs no locks.
// TCP relays are half-close aware (a client's EOF reaches the member
// after its bytes do, and the answer still flows back), capped at
// max_flows, and closed after conn_idle of silence.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/fault_stream.hpp"
#include "common/ip.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/socket.hpp"
#include "obs/series.hpp"

namespace akadns::fleet {

struct FrontConfig {
  Ipv4Addr bind_addr = Ipv4Addr(127, 0, 0, 1);
  /// Front UDP+TCP port (0 = ephemeral; read back via udp_port()).
  std::uint16_t port = 0;
  /// Bound on UDP flows and, separately, on TCP relays. A new flow
  /// beyond it evicts the oldest-idle flow; a connection beyond it is
  /// closed on accept.
  std::size_t max_flows = 8192;
  /// TCP relays silent this long are closed (the relay must not become
  /// the slowloris it can simulate).
  Duration conn_idle = Duration::seconds(120);
  /// Impairment executed on everything relayed; clean by default. The
  /// plan clock (blackhole windows) starts at start().
  chaos::FaultPlan plan;
};

/// One catchment change, measured end to end.
struct ReconvergeSample {
  std::string member;             // who withdrew / returned / moved
  bool withdrawal = true;         // false: member (re)activated
  std::uint64_t flows_moved = 0;  // flows whose winner changed
  std::int64_t remap_us = 0;      // trigger -> flow table fully re-pinned
  /// trigger -> first upstream answer relayed on a re-pinned flow from
  /// its new member; -1 until traffic proves the new catchment works.
  /// Answers the old member still owes do not count. A flow moved again
  /// before answering keeps measuring against its OLDEST unanswered
  /// re-pin: the client-visible recovery clock starts at the first
  /// disruption, not the latest remap.
  std::int64_t first_answer_us = -1;
  /// Steady-clock trigger instant (internal anchor for first_answer_us).
  std::int64_t trigger_ns = 0;
};

/// Live counters: one writer (the epoll thread); counters() copies them.
struct FrontStats {
  obs::Counter udp_client_datagrams;  // datagrams in on the front port
  obs::Counter udp_upstream_answers;  // datagrams in from members
  obs::Counter udp_no_member_drops;
  obs::Counter udp_upstream_errors;
  obs::Counter flows_created;
  obs::Counter flows_moved;
  obs::Counter flows_expired;  // idle-swept or evicted by a full table
  obs::Gauge live_flows;
  obs::Counter tcp_connections;  // accepted
  obs::Counter tcp_relay_errors;
  // The plan's fates as executed.
  obs::Counter forwarded_up;    // datagrams/chunks relayed client -> member
  obs::Counter forwarded_down;  // relayed member -> client
  obs::Counter dropped;         // UDP loss fates
  obs::Counter duplicated;
  obs::Counter reordered;
  obs::Counter corrupted;
  obs::Counter delayed;     // sends that took the delay-heap path
  obs::Counter blackholed;  // datagrams swallowed or chunks held by a window
  obs::Counter tcp_resets;  // reset fates executed
  obs::Counter tcp_stalls;  // stall fates in effect
  obs::Counter tcp_refused;  // accepts closed because of a blackhole

  /// Exported: relay and flow events and the live flow count; the
  /// datagram and upstream-error counters stay local.
  static constexpr obs::FamilySpec kEvent{"akadns_chaos_total", "event",
                                          "relay and fault events"};
  static constexpr obs::SeriesRow<FrontStats> kSeries[] = {
      {kEvent, "forwarded_up", &FrontStats::forwarded_up},
      {kEvent, "forwarded_down", &FrontStats::forwarded_down},
      {kEvent, "dropped", &FrontStats::dropped},
      {kEvent, "duplicated", &FrontStats::duplicated},
      {kEvent, "reordered", &FrontStats::reordered},
      {kEvent, "corrupted", &FrontStats::corrupted},
      {kEvent, "delayed", &FrontStats::delayed},
      {kEvent, "blackholed", &FrontStats::blackholed},
      {kEvent, "flow_opened", &FrontStats::flows_created},
      {kEvent, "flow_reaped", &FrontStats::flows_expired},
      {kEvent, "flow_moved", &FrontStats::flows_moved},
      {kEvent, "tcp_accepted", &FrontStats::tcp_connections},
      {kEvent, "tcp_reset", &FrontStats::tcp_resets},
      {kEvent, "tcp_stalled", &FrontStats::tcp_stalls},
      {kEvent, "tcp_refused", &FrontStats::tcp_refused},
      {{"akadns_chaos_live_flows", "", "live steering flows"}, "", &FrontStats::live_flows},
  };
};

class AnycastFront {
 public:
  explicit AnycastFront(FrontConfig config);
  ~AnycastFront();

  AnycastFront(const AnycastFront&) = delete;
  AnycastFront& operator=(const AnycastFront&) = delete;

  /// Binds the front port pair and launches the relay thread.
  Result<bool> start();
  /// Stops and joins; closes every flow and relay. Idempotent.
  void stop();

  /// The bound front port, shared by UDP and TCP (valid after start()).
  std::uint16_t udp_port() const noexcept { return port_; }

  /// Adds a member, or re-points an existing one (machine restarted on
  /// fresh ephemeral ports); either way it becomes active. Re-pointing
  /// moves that member's live flows to the new endpoint. Ops queued
  /// before a datagram arrives are applied before it is relayed; each
  /// applied op appends one sample.
  void upsert_member(const std::string& id, Endpoint endpoint);
  /// Withdraw (false) or restore (true) a member from steering. New and
  /// re-pinned flows avoid inactive members; an inactive member's
  /// existing flows are moved off it immediately. Established TCP
  /// relays stay where they are.
  void set_member_active(const std::string& id, bool active);

  std::vector<ReconvergeSample> samples() const;
  FrontStats counters() const { return stats_; }
  void register_metrics(obs::MetricRegistry& reg, const obs::LabelSet& base) const {
    obs::register_series(reg, base, stats_);
  }

 private:
  struct Flow;
  struct Conn;
  struct Delayed;

  void loop();
  void push_op(std::function<void()> op);
  void process_ops();
  std::size_t find_member(const std::string& id) const;
  /// Rendezvous winner among active members, or npos.
  std::size_t pick_member(const Endpoint& client) const;
  void repin_member_flows(const std::string& id, bool withdrawal);

  // UDP.
  void handle_front_udp(std::int64_t now);
  void handle_flow(std::uint32_t id, bool retired, std::int64_t now);
  std::uint32_t open_flow(const Endpoint& client, const sockaddr_storage& sa, socklen_t sa_len,
                          std::int64_t now);
  bool attach_flow_upstream(std::uint32_t id, std::size_t member, std::int64_t now);
  void close_flow(std::uint32_t id);
  bool survives(const chaos::PacketFate& fate, std::int64_t now);
  void relay_udp(const chaos::PacketFate& fate, bool up, std::uint32_t id,
                 std::uint8_t* data, std::size_t len, std::int64_t now);
  void send_udp(bool up, std::uint32_t id, const std::uint8_t* data, std::size_t len);

  // TCP.
  void handle_accept(std::int64_t now);
  void handle_conn(std::uint32_t id, bool from_client, std::uint32_t events,
                   std::int64_t now);
  void relay_chunk(std::uint32_t id, bool up, std::size_t len, std::int64_t now);
  bool flush_conn(std::uint32_t id);
  void close_conn(std::uint32_t id);

  // Timers.
  void park(Delayed item);
  void flush_due(std::int64_t now);
  void sweep(std::int64_t now);
  /// End of the blackhole window holding `now`, or `now` outside them.
  std::int64_t dark_until(std::int64_t now) const;

  FrontConfig config_;
  const chaos::FaultStream udp_up_, udp_down_, tcp_up_, tcp_down_;

  struct Member {
    std::string id;
    Endpoint endpoint;
    bool active = true;
    std::uint64_t salt = 0;  // hash(id), precomputed
  };
  std::vector<Member> members_;  // epoll-thread owned; never shrinks

  // Dataplane state, epoll-thread owned. Slots are reserved up front
  // (max_flows each) so a reference survives opening another slot.
  net::UdpSocket front_udp_;
  net::TcpListener front_tcp_;
  net::FdHandle epoll_fd_;
  net::FdHandle wake_fd_;
  std::uint16_t port_ = 0;
  std::int64_t epoch_ns_ = 0;  // plan clock origin
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_flows_;
  std::unordered_map<Endpoint, std::uint32_t> flow_by_client_;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> free_conns_;
  std::vector<Delayed> heap_;  // min-heap on (due, seq)
  std::uint64_t heap_seq_ = 0;
  std::uint64_t udp_up_idx_ = 0, udp_down_idx_ = 0;
  std::uint64_t tcp_up_idx_ = 0, tcp_down_idx_ = 0, conn_idx_ = 0;
  std::vector<std::uint8_t> buf_;

  mutable std::mutex control_mu_;  // guards ops_ and samples_
  std::deque<std::function<void()>> ops_;
  std::vector<ReconvergeSample> samples_;

  FrontStats stats_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it uses every member above
};

}  // namespace akadns::fleet
