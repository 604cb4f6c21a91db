#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "defense/filter_chain.hpp"
#include "dns/wire.hpp"
#include "net/tcp_framing.hpp"
#include "net/udp_batch.hpp"
#include "server/lane_core.hpp"

namespace akadns::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Requested UDP socket buffer size (the kernel clamps to its limits).
constexpr int kUdpSocketBuffer = 1 << 22;
/// TCP frames larger than this poison the connection (RFC 7766 §8). One
/// such frame with its prefix is also the unsent output past which a
/// connection stops being read until that output drains.
constexpr std::size_t kTcpMaxFrame = 65535;
/// Unsent TCP output past which a connection is paused: one maximum
/// frame, so a client that pipelines without reading pins at most about
/// that much of the worker's memory (RFC 7766 §6.2.1.1).
constexpr std::size_t kOutputBound = kTcpMaxFrame + 2;
/// Established connections a worker will hold; accepts beyond this are
/// closed immediately (backpressure against connection floods).
constexpr std::size_t kTcpMaxConnections = 1024;
/// How long stop() lets workers flush in-flight TCP responses.
constexpr Duration kDrainTimeout = Duration::seconds(5);

/// One established TCP connection (truncation-fallback path).
struct Conn {
  FdHandle fd;
  Endpoint peer;
  /// Tells this connection from a later one on the same fd: a queued
  /// answer's route names both, so it never reaches the wrong client.
  std::uint32_t generation = 0;
  FrameDecoder decoder;
  /// Length-framed responses not yet accepted by the kernel.
  std::vector<std::uint8_t> out;
  /// Response scratch reused across this connection's queries.
  std::vector<std::uint8_t> scratch;
  /// Queries in the penalty queues whose answers this connection is owed.
  std::size_t queued = 0;
  bool closing = false;  // flush `out` and the queued answers, then close
  /// Not read or decoded until `out` drains (backpressure).
  bool paused = false;
  std::uint32_t events = EPOLLIN;  // epoll interest currently registered
  /// Last time bytes actually moved on this connection (the idle
  /// reaper's clock — a peer merely holding the socket open never
  /// advances it).
  Clock::time_point last_active{};
};

/// REFUSED answer for a query whose zone aged past SOA expire: the
/// response an unhosted zone would get — the secondary has stopped
/// claiming authority, so resolvers move to a sibling that still does.
std::vector<std::uint8_t> refused_response(const dns::QueryView& view) {
  dns::Message m;
  m.header = view.header;
  m.header.qr = true;
  m.header.aa = false;
  m.header.rcode = dns::Rcode::Refused;
  m.questions.push_back(view.question);
  return dns::encode(m);
}

/// The per-worker slice of the server-wide defense configuration.
defense::DefenseConfig worker_engine_config(const ServeConfig& cfg) {
  defense::DefenseConfig d;
  d.lanes = 1;  // the kernel's RSS hash is the lane selector
  if (cfg.defense.compute_qps > 0.0) {
    d.compute_capacity_qps =
        cfg.defense.compute_qps / static_cast<double>(std::max<std::size_t>(1, cfg.workers));
  }
  d.queue_config = cfg.defense.queue_config;
  return d;
}

}  // namespace

struct Server::Worker {
  Worker(const ServeConfig& cfg, propagation::ZonePublisher& pub, Clock::time_point epoch_tp)
      : config(cfg),
        publisher(pub),
        core(replica, cfg.responder),
        batch(cfg.udp_batch),
        sync(replica),
        xfr(replica,
            [p = &pub](const dns::DnsName& apex, std::uint32_t from, std::uint32_t to) {
              return p->chain(apex, from, to);
            },
            cfg.transfer),
        clock(epoch_tp),
        engine(worker_engine_config(cfg), clock),
        queue_path(cfg.defense.enabled) {
    if (cfg.defense.enabled) {
      // Content-based chain: the NXDOMAIN filter discriminates by what
      // is asked, so it works even when all traffic shares a few source
      // ports; hopcount rides along for spoofed-source coverage.
      filters::NxDomainFilter::Config nx;
      nx.penalty = cfg.defense.nxdomain_penalty;
      nx.nxdomain_threshold = std::max<std::uint64_t>(
          1, cfg.defense.nxdomain_threshold /
                 static_cast<std::uint64_t>(std::max<std::size_t>(1, cfg.workers)));
      engine.install_filter(defense::nxdomain_factory(nx, defense::zone_store_hooks(replica)));
      if (cfg.defense.hopcount) engine.install_filter(defense::hopcount_factory());
    }
    for (const auto& name : cfg.defense.qod_rules) {
      engine.firewall().install(dns::Question{name, dns::RecordType::ANY}, clock.now(),
                                Duration::days(3650));
    }
  }

  const ServeConfig& config;
  propagation::ZonePublisher& publisher;
  /// This worker's private zone view. All reads (responder, NXDOMAIN
  /// filter hooks, transfer service) go through it; writes arrive only
  /// via sync.poll() on this worker's own thread, so a mid-run zone flip
  /// is just a shared_ptr swap between two of its queries. Declared
  /// before every member holding a reference to it.
  zone::ZoneStore replica;
  /// Responder, buffer pool and deferred-response batch, with the
  /// admission and release code the sim nameserver's lanes run too.
  /// Declared before `engine`, whose queued buffers release into its pool.
  server::LaneCore core;
  UdpBatch batch;
  UdpSocket udp;
  TcpListener listener;
  FdHandle stop_event;
  /// Written by the publisher's fanout (any thread), read by this
  /// worker's epoll loop: the zone-update doorbell.
  FdHandle update_event;
  propagation::ZoneSubscriber sync;
  propagation::TransferService xfr;
  FrontendStats stats;

  // ---- defense path (§4.3.3 on CLOCK_MONOTONIC) ----
  /// The server's shared epoch; also the SimTime axis answer-cache TTLs
  /// expire against.
  MonotonicClock clock;
  server::LaneCore::Engine engine;
  /// Queries go through the filters and penalty queues (defense on).
  /// Off: the inline fast path answers straight out of the receive batch.
  const bool queue_path;

  FdHandle epoll;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::uint32_t conn_generation = 0;
  std::vector<std::uint8_t> tcp_read_buf = std::vector<std::uint8_t>(64 * 1024);

  /// Absorbs every queued zone update into the replica (worker thread
  /// only). `now` on the publisher's clock axis keeps the propagation
  /// latency telemetry coherent across workers.
  void poll_zone_updates() { sync.poll(publisher.clock().now()); }

  /// One relaxed load: anything in the freshness ladder degraded? Only
  /// then does the per-query apex walk below run at all.
  bool fresh_gated() const noexcept {
    return config.freshness &&
           config.freshness->worst() != propagation::Freshness::Fresh;
  }
  /// Per-query verdict once fresh_gated(): true — the query's zone aged
  /// past its (capped) SOA expire and must be REFUSED (withdrawn);
  /// false — serve it (counting stale_served when the zone is stale).
  bool freshness_refuses(const dns::DnsName& qname);
  void reap_idle_conns(Clock::time_point now_tp);

  void run();
  bool query(std::span<const std::uint8_t> wire, const Endpoint& peer, Conn* conn,
             std::vector<std::uint8_t>& out);
  bool malformed(Conn* conn);
  bool drain_udp(bool draining);
  void process_backlog();
  void drain_backlog();
  void answer_released();
  void send_responses();
  void accept_loop();
  void handle_conn(int fd, std::uint32_t events);
  void process_frames(Conn& conn);
  void frame_onto(Conn& conn, std::span<const std::uint8_t> answer);
  void flush_conn(Conn& conn);
  void rearm(Conn& conn);
  void close_conn(int fd);
  bool any_pending_output() const;
};

bool Server::Worker::freshness_refuses(const dns::DnsName& qname) {
  const auto zone = replica.find_best_compiled(qname);
  if (!zone) return false;  // not ours: the responder REFUSEs it anyway
  const std::int64_t t = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now().time_since_epoch())
                             .count();
  switch (config.freshness->state_of(zone->apex(), t)) {
    case propagation::Freshness::Expired:
      ++stats.expired_refused;
      return true;
    case propagation::Freshness::Stale:
      ++stats.stale_served;
      return false;
    case propagation::Freshness::Fresh:
      break;
  }
  return false;
}

void Server::Worker::reap_idle_conns(Clock::time_point now_tp) {
  const auto limit = std::chrono::nanoseconds(config.tcp_idle_timeout.count_nanos());
  for (auto it = conns.begin(); it != conns.end();) {
    if (now_tp - it->second->last_active > limit) {
      ++stats.tcp_idle_reaped;
      it = conns.erase(it);  // FdHandle close drops the epoll registration
    } else {
      ++it;
    }
  }
}

/// No parseable header/question: nothing to answer, nothing to amplify.
/// A datagram is dropped; a frame is a protocol error that closes its
/// connection rather than guess (RFC 7766 §8).
bool Server::Worker::malformed(Conn* conn) {
  if (!conn) {
    ++stats.udp_malformed;
    return false;
  }
  ++stats.tcp_protocol_errors;
  conn->closing = true;
  return false;
}

/// The one query path of both transports (`conn` null: a UDP datagram
/// from `peer`). True when `out` holds an answer to send now; false when
/// the query was dropped, queued, or answered as a framed transfer.
bool Server::Worker::query(std::span<const std::uint8_t> wire, const Endpoint& peer, Conn* conn,
                           std::vector<std::uint8_t>& out) {
  auto view = dns::decode_query_view(wire);
  if (!view) return malformed(conn);
  if (conn) ++stats.tcp_queries;
  // NOTIFY (RFC 1996) over UDP: a primary telling us a zone moved. Ack it
  // and kick the refresh path — never the responder (it is not a query).
  if (!conn && view.value().header.opcode == dns::Opcode::Notify) {
    auto notify = dns::decode(wire);
    if (!notify || !propagation::TransferService::is_notify(notify.value())) {
      return malformed(conn);
    }
    ++stats.udp_notifies;
    out = dns::encode(propagation::TransferService::make_notify_ack(notify.value()));
    if (config.on_notify) config.on_notify(notify.value().question().name);
    return true;
  }
  // Zone transfers over TCP (AXFR/IXFR) answer from the replica + the
  // publisher's journal; they need the full message (IXFR carries the
  // client's SOA in the authority section), so this path pays for a
  // complete decode — transfers are rare control-plane traffic.
  const dns::RecordType qtype = view.value().question.qtype;
  if (conn && (qtype == dns::RecordType::AXFR || qtype == dns::RecordType::IXFR)) {
    auto transfer = dns::decode(wire);
    if (!transfer) return malformed(conn);
    ++stats.tcp_transfers;
    for (const auto& response : xfr.serve(transfer.value())) {
      frame_onto(*conn, dns::encode(response, {.max_size = dns::kMaxMessageSize}));
    }
    return false;
  }
  // Query-of-death firewall ahead of everything else (§4.2.4): matching
  // queries are dropped before they reach the responder, on either
  // transport and either path, and counted as a Firewall drop in the
  // engine's defense stats. An empty rule table is not consulted.
  if (!engine.firewall().rules().empty() && engine.firewall_drops(0, view.value().question)) {
    return false;
  }
  // Serve-stale ladder: an expired zone is withdrawn here, at admission —
  // a penalty-queued query must not be answered from a zone that expired
  // while it waited.
  if (fresh_gated() && freshness_refuses(view.value().question.name)) {
    out = refused_response(view.value());
    return true;
  }
  const server::ReplyRoute route =
      conn ? server::ReplyRoute{static_cast<std::uint32_t>(conn->fd.get()), conn->generation}
           : server::ReplyRoute{};
  if (!queue_path) {
    core.responder().respond_view_into(wire, view.value(), peer, clock.now(), out,
                                       route.wire_size_limit());
    return true;
  }
  // Defense path: the lane core scores the query and copies it into the
  // penalty queues (the engine counts a ScoreDiscard / QueueFull shed).
  // recvmmsg does not surface the IP TTL here, so every query carries
  // the common initial TTL of 64.
  const auto outcome = core.admit(engine, 0, wire, std::move(view).value(), peer, 64,
                                  clock.now(), nullptr, route);
  if (conn && outcome == filters::EnqueueOutcome::Enqueued) ++conn->queued;
  return false;
}

bool Server::Worker::drain_udp(bool draining) {
  const int fd = udp.fd();
  bool saw_data = false;
  while (true) {
    const int n = batch.recv(fd);
    if (n <= 0) break;
    saw_data = true;
    ++stats.udp_batches;
    stats.udp_packets += static_cast<std::uint64_t>(n);
    if (draining) stats.drain_flushed += static_cast<std::uint64_t>(n);
    std::size_t want = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      // An empty response slot makes send() skip the datagram.
      if (query(batch.packet(i), endpoint_from_sockaddr(batch.source(i)), nullptr,
                batch.response(i))) {
        ++want;
      }
    }
    if (want > 0) {
      const std::size_t sent = batch.send(fd);
      stats.udp_responses += sent;
      stats.udp_send_failures += want - sent;
    }
    // Under sustained load this loop can monopolize the thread (full
    // batches keep arriving), never returning to epoll_wait — which
    // would starve the zone-update doorbell and pin the replica at the
    // old version until traffic pauses. Probing the subscription here
    // (one relaxed atomic load) bounds publish-to-visible latency to a
    // single batch even at saturation.
    if (sync.has_pending()) {
      ++stats.zone_update_wakes;
      poll_zone_updates();
    }
    if (static_cast<std::size_t>(n) < batch.capacity()) break;  // socket empty
  }
  return saw_data;
}

void Server::Worker::process_backlog() {
  // begin_phase meters the worker's compute slice into a budget (the
  // whole backlog when unmetered); the work-conserving scheduler then
  // releases queued queries in increasing-penalty order.
  if (!engine.has_pending() || !engine.begin_phase()) return;
  answer_released();
}

void Server::Worker::drain_backlog() {
  // Unmetered drain while the worker shuts down: everything still queued
  // was already admitted, so answer it rather than dropping it (the shed
  // queries were already accounted at enqueue time).
  if (!engine.has_pending()) return;
  engine.begin_phase_unmetered(engine.pending());
  answer_released();
}

void Server::Worker::answer_released() {
  while (auto item = engine.next(0)) {
    core.answer(engine, 0, *item, clock.now(), nullptr);
    if (core.responses().entries.size() == batch.capacity()) send_responses();
  }
  engine.end_phase();
  send_responses();
}

void Server::Worker::send_responses() {
  server::ResponseBatch& out = core.responses();
  std::size_t udp_entries = 0;
  for (const auto& entry : out.entries) {
    if (!entry.route.tcp()) {
      ++udp_entries;
      continue;
    }
    const auto it = conns.find(static_cast<int>(entry.route.conn));
    if (it == conns.end() || it->second->generation != entry.route.generation) {
      ++stats.tcp_closed_drops;  // the connection closed while the query waited
      continue;
    }
    Conn& conn = *it->second;
    --conn.queued;
    frame_onto(conn, out.wire(entry));
    rearm(conn);
  }
  if (udp_entries > 0) {
    const std::size_t sent = batch.send(udp.fd(), out);
    stats.udp_responses += sent;
    stats.udp_send_failures += udp_entries - sent;
  }
  out.clear();
}

void Server::Worker::accept_loop() {
  while (true) {
    sockaddr_storage peer_addr{};
    FdHandle conn_fd = listener.accept(peer_addr);
    if (!conn_fd.valid()) break;
    if (conns.size() >= kTcpMaxConnections) {
      ++stats.tcp_rejected;
      continue;  // FdHandle closes it
    }
    auto conn = std::make_unique<Conn>();
    conn->peer = endpoint_from_sockaddr(peer_addr);
    conn->generation = ++conn_generation;
    conn->decoder = FrameDecoder(kTcpMaxFrame);
    conn->last_active = Clock::now();
    const int fd = conn_fd.get();
    conn->fd = std::move(conn_fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) continue;
    conns.emplace(fd, std::move(conn));
    ++stats.tcp_accepted;
  }
}

void Server::Worker::frame_onto(Conn& conn, std::span<const std::uint8_t> answer) {
  const auto prefix = frame_prefix(answer.size());
  conn.out.insert(conn.out.end(), prefix.begin(), prefix.end());
  conn.out.insert(conn.out.end(), answer.begin(), answer.end());
  ++stats.tcp_responses;
}

void Server::Worker::process_frames(Conn& conn) {
  while (!conn.closing) {
    // Past the bound, push output to the kernel first. If it takes too
    // little, the client is not reading: stop reading and decoding it
    // until its output drains (RFC 7766 §6.2.1.1), so it pins about one
    // frame of the worker's memory.
    if (conn.out.size() > kOutputBound) {
      flush_conn(conn);
      if (conn.out.size() > kOutputBound) {
        conn.paused = true;
        ++stats.tcp_read_paused;
        return;
      }
      continue;
    }
    const auto frame = conn.decoder.next();
    if (!frame) break;
    if (query(*frame, conn.peer, &conn, conn.scratch)) frame_onto(conn, conn.scratch);
  }
  if (conn.decoder.poisoned() && !conn.closing) {
    ++stats.tcp_protocol_errors;
    conn.closing = true;
  }
}

void Server::Worker::flush_conn(Conn& conn) {
  std::size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = ::write(conn.fd.get(), conn.out.data() + sent, conn.out.size() - sent);
    if (n > 0) {
      conn.last_active = Clock::now();
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer vanished mid-write: nothing left to flush.
    conn.closing = true;
    sent = conn.out.size();
  }
  conn.out.erase(conn.out.begin(), conn.out.begin() + static_cast<std::ptrdiff_t>(sent));
  if (conn.out.empty()) conn.paused = false;
}

void Server::Worker::rearm(Conn& conn) {
  // Readable interest only while the connection is read; writable only
  // while output waits. A closing connection waiting on queued answers
  // registers neither (EPOLLHUP/EPOLLERR are reported regardless).
  const std::uint32_t want = (conn.closing || conn.paused ? 0u : EPOLLIN) |
                             (conn.out.empty() ? 0u : EPOLLOUT);
  if (want == conn.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd.get();
  ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
  conn.events = want;
}

void Server::Worker::close_conn(int fd) {
  conns.erase(fd);  // FdHandle close() drops the epoll registration too
}

void Server::Worker::handle_conn(int fd, std::uint32_t events) {
  auto it = conns.find(fd);
  if (it == conns.end()) return;
  Conn& conn = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(fd);
    return;
  }
  if (events & EPOLLOUT) flush_conn(conn);  // unpauses once drained
  if (!conn.paused) process_frames(conn);  // frames a pause left buffered
  while ((events & EPOLLIN) && !conn.closing && !conn.paused) {
    const ssize_t n = ::read(fd, tcp_read_buf.data(), tcp_read_buf.size());
    if (n > 0) {
      conn.last_active = Clock::now();
      conn.decoder.feed({tcp_read_buf.data(), static_cast<std::size_t>(n)});
      process_frames(conn);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error. A clean EOF at a frame boundary just means
    // the client is done; mid-frame it abandoned a query — either way
    // flush what we owe and close.
    conn.closing = true;
  }
  flush_conn(conn);
  if (conn.closing && conn.out.empty() && conn.queued == 0) {
    close_conn(fd);
    return;
  }
  rearm(conn);
}

bool Server::Worker::any_pending_output() const {
  for (const auto& [fd, conn] : conns) {
    if (!conn->out.empty()) return true;
  }
  return false;
}

void Server::Worker::run() {
  epoll = FdHandle(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) return;
  const auto add = [&](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev);
  };
  add(udp.fd());
  add(listener.fd());
  add(stop_event.get());
  add(update_event.get());

  bool draining = false;
  Clock::time_point drain_deadline{};
  const bool reap_idle = config.tcp_idle_timeout.count_nanos() > 0;
  Clock::time_point next_idle_sweep = Clock::now();
  std::array<epoll_event, 64> events{};
  while (true) {
    int timeout_ms = -1;
    if (draining) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          drain_deadline - Clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    } else if (queue_path && engine.has_pending()) {
      // Backlogged defense queues: wake shortly so the compute bucket's
      // refill turns into answered queries even when the socket is idle.
      timeout_ms = 1;
    } else if (reap_idle && !conns.empty()) {
      // Established connections exist: bound the wait so the idle reaper
      // runs even when no traffic arrives — that is exactly the case it
      // defends against (a peer holding sockets open in silence).
      timeout_ms = 250;
    }
    const int n = ::epoll_wait(epoll.get(), events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (fd == stop_event.get()) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(stop_event.get(), &v, sizeof(v));
        draining = true;
        drain_deadline =
            Clock::now() + std::chrono::nanoseconds(kDrainTimeout.count_nanos());
        // Stop accepting: no new connections, and after one final sweep
        // of already-queued datagrams (answering whatever the defense
        // queues still hold), no new UDP either. Queued zone updates are
        // absorbed first so the sweep answers from the newest version.
        listener.close();
        if (sync.has_pending()) poll_zone_updates();
        drain_udp(/*draining=*/true);
        if (queue_path) drain_backlog();
        udp.close();
      } else if (fd == update_event.get()) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(update_event.get(), &v, sizeof(v));
        ++stats.zone_update_wakes;
        poll_zone_updates();
      } else if (udp.fd() >= 0 && fd == udp.fd()) {
        drain_udp(draining);
      } else if (listener.fd() >= 0 && fd == listener.fd()) {
        accept_loop();
      } else {
        handle_conn(fd, ev);
      }
    }
    // Queued queries are released each wakeup: metered while serving,
    // all of them while draining (TCP queries still arrive until the
    // connections' output is flushed).
    if (queue_path) draining ? drain_backlog() : process_backlog();
    if (!draining && reap_idle && !conns.empty()) {
      const auto now_tp = Clock::now();
      if (now_tp >= next_idle_sweep) {
        reap_idle_conns(now_tp);
        next_idle_sweep = now_tp + std::chrono::milliseconds(250);
      }
    }
    if (draining) {
      // In-flight means: bytes owed to established TCP clients. Leave
      // when they are flushed (or the deadline passes — resolvers retry).
      if (!any_pending_output() || Clock::now() >= drain_deadline) break;
    }
  }
  conns.clear();
}

Server::Server(ServeConfig config, propagation::ZonePublisher& publisher)
    : config_(std::move(config)), publisher_(publisher) {}

Server::Server(ServeConfig config, const zone::ZoneStore& store)
    : config_(std::move(config)),
      owned_clock_(std::make_unique<MonotonicClock>()),
      owned_publisher_(std::make_unique<propagation::ZonePublisher>(*owned_clock_)),
      publisher_(*owned_publisher_) {
  // Share the store's compiled snapshots (no recompilation, no journal);
  // the workers seed their replicas from the publisher at start().
  publisher_.adopt(store);
}

Server::~Server() { stop(); }

Result<bool> Server::start() {
  if (running_ || stopped_) return Error{"server already started"};
  if (config_.workers == 0) return Error{"workers must be >= 1"};
  if (config_.defense.compute_qps > 0.0 && !config_.defense.enabled) {
    return Error{"compute metering needs the defense pipeline (defense.enabled)"};
  }

  workers_.clear();
  // One shared epoch: every worker's MonotonicClock (and SimTime view)
  // reads the same axis, so merged defense telemetry is coherent. When
  // the publisher itself runs on CLOCK_MONOTONIC, adopt *its* epoch so
  // propagation latency (publish -> replica applied) is measured on the
  // same axis too.
  auto epoch = Clock::now();
  if (const auto* mono = dynamic_cast<const MonotonicClock*>(&publisher_.clock())) {
    epoch = mono->epoch();
  }
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(config_, publisher_, epoch));
  }

  // Worker 0 resolves the (possibly ephemeral) ports; the rest join its
  // SO_REUSEPORT groups so the kernel shards flows across all of them.
  std::uint16_t udp_port = config_.port;
  std::uint16_t tcp_port = config_.port;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    auto udp =
        UdpSocket::open(config_.bind_addr, udp_port, kUdpSocketBuffer, kUdpSocketBuffer);
    if (!udp) return Error{"worker udp: " + udp.error()};
    workers_[i]->udp = std::move(udp).take();
    if (i == 0) {
      udp_port = workers_[0]->udp.port();
      // Prefer TCP on the same port number (how DNS is deployed); with
      // an ephemeral UDP port that number may be taken for TCP, in which
      // case any free port does — callers read tcp_port() separately.
      if (tcp_port == 0) tcp_port = udp_port;
    }
    auto listener = TcpListener::open(config_.bind_addr, tcp_port);
    if (!listener && i == 0 && config_.port == 0) {
      tcp_port = 0;
      listener = TcpListener::open(config_.bind_addr, 0);
    }
    if (!listener) return Error{"worker tcp: " + listener.error()};
    workers_[i]->listener = std::move(listener).take();
    if (i == 0) tcp_port = workers_[0]->listener.port();

    const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (efd < 0) return Error{errno_message("eventfd")};
    workers_[i]->stop_event = FdHandle(efd);

    const int ufd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (ufd < 0) return Error{errno_message("eventfd")};
    workers_[i]->update_event = FdHandle(ufd);
    // Subscribe-then-seed (attach does both, in that order) before the
    // thread starts: no zone version can fall between the replica's seed
    // and its first drained update, and publishes racing start() are
    // simply queued until the worker's first epoll wakeup.
    workers_[i]->sync.attach(publisher_, [ufd] {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t r = ::write(ufd, &one, sizeof(one));
    });
  }
  udp_port_ = udp_port;
  tcp_port_ = tcp_port;

  // Catalog every worker's instruments before the threads exist: the
  // registry holds references into the Worker objects (stable from here
  // on), and scrapes after this point are lock-free reads of the
  // workers' single-writer atomics.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    const obs::LabelSet base = obs::with({}, "worker", i);
    obs::register_series(registry_, base, w.stats);
    obs::register_series(registry_, base, w.core.responder().stats());
    obs::register_series(registry_, base, w.core.responder().answer_cache().stats());
    w.engine.register_metrics(registry_, base);
    obs::register_series(registry_, base, w.sync.stats());
    obs::register_series(registry_, base, w.xfr.stats());
    obs::register_series(registry_, base, w.replica.compile_stats());
    registry_.gauge_fn("akadns_firewall_rules", base,
                       [&w] { return static_cast<double>(w.engine.firewall().rules().size()); },
                       obs::GaugeAgg::Max, "live query-of-death firewall rules");
    registry_.gauge_fn("akadns_zone_generation", base,
                       [&w] { return static_cast<double>(w.replica.generation()); },
                       obs::GaugeAgg::Max, "zone-store generation of the worker replica");
  }

  running_ = true;
  threads_.reserve(workers_.size());
  for (auto& worker : workers_) {
    threads_.emplace_back([w = worker.get()] { w->run(); });
  }
  return true;
}

void Server::begin_drain() {
  if (!running_ || draining_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& worker : workers_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r =
        ::write(worker->stop_event.get(), &one, sizeof(one));
  }
}

void Server::stop() {
  if (!running_) return;
  begin_drain();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  running_ = false;
  stopped_ = true;
}

ServerStats render_server_stats(const obs::MetricsSnapshot& snap, std::size_t workers,
                                bool defense_enabled) {
  ServerStats out;
  out.frontend = obs::read_series<FrontendStats>(snap);
  out.responder = obs::read_series<server::ResponderStats>(snap);
  out.defense_enabled = defense_enabled;
  out.defense = obs::read_series<defense::DefenseLaneStats>(snap);
  out.per_worker_udp.resize(workers);
  out.per_worker_defense.resize(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    const obs::LabelSet worker = obs::with({}, "worker", i);
    out.per_worker_udp[i] = obs::read_series<FrontendStats>(snap, worker).udp_packets;
    out.per_worker_defense[i] = obs::read_series<defense::DefenseLaneStats>(snap, worker);
  }
  out.firewall_rules = static_cast<std::size_t>(snap.gauge_value("akadns_firewall_rules"));
  out.zone_sync = obs::read_series<propagation::ZoneSyncStats>(snap);
  out.replica_compiles = obs::read_series<zone::CompileStats>(snap);
  return out;
}

ServerStats Server::stats() const {
  return render_server_stats(metrics_snapshot(), workers_.size(),
                             config_.defense.enabled);
}

}  // namespace akadns::net
