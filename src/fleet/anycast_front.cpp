#include "fleet/anycast_front.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

namespace akadns::fleet {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
constexpr std::int64_t kSweepNs = 1'000'000'000;
/// Idle UDP flows older than this are swept.
constexpr std::int64_t kFlowIdleNs = 30'000'000'000;

// TCP chunks draw from their own direction streams so UDP and TCP
// ordinals never interleave (each sequence replays in isolation).
constexpr std::uint64_t kTcpUp = 0x7475;    // "tu"
constexpr std::uint64_t kTcpDown = 0x7464;  // "td"

// epoll_event.data.u64 layout: [tag:8][gen:24][slot:32]. The generation
// makes an event harmless when it is stale: its slot was closed (and
// maybe reused) earlier in the same batch.
enum Tag : std::uint64_t {
  kFrontUdp = 1,
  kListener,
  kWake,
  kFlow,     // a flow's upstream socket
  kRetired,  // the upstream a re-pin replaced, still receiving
  kConnClient,
  kConnUpstream,
};
constexpr std::uint32_t kGenMask = 0xffffff;

std::uint64_t poll_data(Tag tag, std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<std::uint64_t>(tag) << 56) |
         (static_cast<std::uint64_t>(gen & kGenMask) << 32) | slot;
}

void watch(int epfd, int op, int fd, std::uint32_t events, std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  ::epoll_ctl(epfd, op, fd, &ev);
}

/// SplitMix64 finalizer: the per-(flow, member) rendezvous score.
std::uint64_t mix(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t salt_for(const std::string& id) noexcept {
  return mix(std::hash<std::string>{}(id) + 0x9e3779b97f4a7c15ULL);
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A nonblocking socket of `type` connected (or, for TCP, connecting)
/// to `to`; invalid on failure. No SO_REUSEPORT and no explicit bind:
/// the kernel's autobind never hands two sockets one port.
net::FdHandle connect_to(int type, const Endpoint& to) {
  net::FdHandle fd(::socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return fd;
  if (type == SOCK_DGRAM) {
    // Answers from a fast member burst into this socket while the
    // thread drains others; default buffers would shed what the plan
    // never scheduled.
    const int bytes = 1 << 21;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  }
  sockaddr_storage sa{};
  const socklen_t len = net::sockaddr_from_endpoint(to, sa);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa), len) != 0 &&
      errno != EINPROGRESS) {
    fd.reset();
  }
  return fd;
}

/// Fate of the next ordinal. A clean spec's fate is clean, so its draw
/// is skipped; the ordinal advances either way, keeping every
/// (plan, seed, ordinal) schedule intact.
chaos::PacketFate draw(const chaos::FaultStream& stream, std::uint64_t& ordinal) {
  const std::uint64_t index = ordinal++;
  return stream.spec().active() ? stream.fate(index) : chaos::PacketFate{};
}

/// Takes a free slot (reusing closed ones first); kNoSlot when `cap`
/// slots are in use.
template <typename Slot>
std::uint32_t acquire(std::vector<Slot>& slots, std::vector<std::uint32_t>& free,
                      std::size_t cap) {
  std::uint32_t id;
  if (!free.empty()) {
    id = free.back();
    free.pop_back();
  } else if (slots.size() < cap) {
    id = static_cast<std::uint32_t>(slots.size());
    slots.emplace_back();
  } else {
    return kNoSlot;
  }
  slots[id].in_use = true;
  return id;
}

template <typename Slot>
void release(std::vector<Slot>& slots, std::vector<std::uint32_t>& free, std::uint32_t id) {
  slots[id].in_use = false;
  slots[id].gen = (slots[id].gen + 1) & kGenMask;
  free.push_back(id);
}

}  // namespace

struct AnycastFront::Flow {
  bool in_use = false;
  std::uint32_t gen = 0;
  Endpoint client;
  sockaddr_storage client_sa{};
  socklen_t client_sa_len = 0;
  std::size_t member = 0;  // index into members_
  net::FdHandle upstream;
  /// The upstream the last re-pin replaced. It keeps relaying what the
  /// old member still owes until the sweep finds it a sweep period old.
  net::FdHandle retired;
  std::int64_t retired_ns = 0;
  std::int64_t last_active_ns = 0;
  /// Index into samples_ of the oldest re-pin this flow has not yet
  /// answered for (kNpos: none pending). A later re-pin does not
  /// overwrite it — the recovery clock runs from the first disruption.
  std::size_t pending_sample = kNpos;
};

struct AnycastFront::Conn {
  bool in_use = false;
  std::uint32_t gen = 0;
  net::FdHandle client;
  net::FdHandle upstream;
  bool connecting = false;  // upstream connect() still in flight
  bool stalled = false;     // stall fate: read and discard, never answer
  bool client_eof = false;
  bool upstream_eof = false;
  std::vector<std::uint8_t> to_upstream;  // bytes the kernel has not taken yet
  std::vector<std::uint8_t> to_client;
  std::uint64_t held = 0;  // chunks of this relay waiting in the delay heap
  std::int64_t last_active_ns = 0;
};

/// A send scheduled for later: a delayed or reordered datagram, or a TCP
/// chunk delayed or held through a blackhole window.
struct AnycastFront::Delayed {
  enum Kind : std::uint8_t { UdpUp, UdpDown, TcpUp, TcpDown };
  std::int64_t due_ns = 0;
  std::uint64_t seq = 0;  // FIFO tiebreak for equal deadlines
  Kind kind = UdpUp;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  std::vector<std::uint8_t> bytes;

  /// Heap order: the earliest deadline on top.
  static bool later(const Delayed& a, const Delayed& b) noexcept {
    return a.due_ns != b.due_ns ? a.due_ns > b.due_ns : a.seq > b.seq;
  }
};

AnycastFront::AnycastFront(FrontConfig config)
    : config_(std::move(config)),
      udp_up_(config_.plan.up, config_.plan.seed, chaos::kDirUp),
      udp_down_(config_.plan.down, config_.plan.seed, chaos::kDirDown),
      tcp_up_(config_.plan.up, config_.plan.seed, kTcpUp),
      tcp_down_(config_.plan.down, config_.plan.seed, kTcpDown) {}

AnycastFront::~AnycastFront() { stop(); }

Result<bool> AnycastFront::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  // The front owns ONE port for both transports (like a real VIP). With
  // an ephemeral request the UDP bind picks the number; the TCP bind on
  // the same number can race another process, so retry.
  for (int attempt = 0; attempt < 32; ++attempt) {
    auto udp = net::UdpSocket::open(config_.bind_addr, config_.port, 1 << 21, 1 << 21);
    if (!udp) return Result<bool>::failure(udp.error());
    auto tcp = net::TcpListener::open(config_.bind_addr, udp.value().port());
    if (!tcp) {
      if (config_.port == 0) continue;  // ephemeral clash: redraw
      return Result<bool>::failure(tcp.error());
    }
    front_udp_ = std::move(udp).take();
    front_tcp_ = std::move(tcp).take();
    break;
  }
  if (front_tcp_.fd() < 0) {
    return Result<bool>::failure("anycast front: could not bind matching UDP/TCP ports");
  }
  port_ = front_udp_.port();
  epoll_fd_ = net::FdHandle(::epoll_create1(EPOLL_CLOEXEC));
  wake_fd_ = net::FdHandle(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!epoll_fd_.valid() || !wake_fd_.valid()) {
    return Result<bool>::failure(net::errno_message("epoll_create1/eventfd"));
  }
  watch(epoll_fd_.get(), EPOLL_CTL_ADD, front_udp_.fd(), EPOLLIN, poll_data(kFrontUdp, 0, 0));
  watch(epoll_fd_.get(), EPOLL_CTL_ADD, front_tcp_.fd(), EPOLLIN, poll_data(kListener, 0, 0));
  watch(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), EPOLLIN, poll_data(kWake, 0, 0));
  flows_.reserve(config_.max_flows);
  conns_.reserve(config_.max_flows);
  buf_.resize(64 * 1024);
  epoch_ns_ = steady_ns();

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void AnycastFront::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] auto n = ::write(wake_fd_.get(), &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  flows_.clear();
  free_flows_.clear();
  flow_by_client_.clear();
  conns_.clear();
  free_conns_.clear();
  heap_.clear();
  stats_.live_flows = 0;
  epoll_fd_.reset();
  wake_fd_.reset();
  front_udp_.close();
  front_tcp_.close();
}

void AnycastFront::push_op(std::function<void()> op) {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    ops_.push_back(std::move(op));
  }
  if (wake_fd_.valid()) {
    const std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(wake_fd_.get(), &one, sizeof(one));
  }
}

void AnycastFront::upsert_member(const std::string& id, Endpoint endpoint) {
  push_op([this, id, endpoint] {
    const std::size_t index = find_member(id);
    if (index == kNpos) {
      members_.push_back(Member{id, endpoint, true, salt_for(id)});
    } else {
      members_[index].endpoint = endpoint;
      members_[index].active = true;
    }
    // Re-pointed members need their flows reconnected even though the
    // rendezvous winner did not change; a brand-new member may win flows.
    repin_member_flows(id, /*withdrawal=*/false);
  });
}

void AnycastFront::set_member_active(const std::string& id, bool active) {
  push_op([this, id, active] {
    const std::size_t index = find_member(id);
    if (index != kNpos) members_[index].active = active;
    repin_member_flows(id, /*withdrawal=*/!active);
  });
}

std::vector<ReconvergeSample> AnycastFront::samples() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return samples_;
}

std::size_t AnycastFront::find_member(const std::string& id) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id == id) return i;
  }
  return kNpos;
}

std::size_t AnycastFront::pick_member(const Endpoint& client) const {
  const std::uint64_t flow_hash = std::hash<Endpoint>{}(client);
  std::size_t best = kNpos;
  std::uint64_t best_score = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].active) continue;
    const std::uint64_t score = mix(flow_hash ^ members_[i].salt);
    if (best == kNpos || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

bool AnycastFront::attach_flow_upstream(std::uint32_t id, std::size_t member,
                                        std::int64_t now) {
  Flow& flow = flows_[id];
  net::FdHandle upstream = connect_to(SOCK_DGRAM, members_[member].endpoint);
  if (!upstream.valid()) return false;
  if (flow.upstream.valid()) {
    // Re-pin: the old member may still owe answers. Retiring replaces
    // (closes) any upstream an earlier re-pin retired.
    flow.retired = std::move(flow.upstream);
    flow.retired_ns = now;
    watch(epoll_fd_.get(), EPOLL_CTL_MOD, flow.retired.get(), EPOLLIN,
          poll_data(kRetired, flow.gen, id));
  }
  flow.upstream = std::move(upstream);
  flow.member = member;
  watch(epoll_fd_.get(), EPOLL_CTL_ADD, flow.upstream.get(), EPOLLIN,
        poll_data(kFlow, flow.gen, id));
  return true;
}

void AnycastFront::repin_member_flows(const std::string& id, bool withdrawal) {
  const std::int64_t t0 = steady_ns();
  const std::size_t trigger = find_member(id);
  // The index this change's sample will occupy; samples_ only grows,
  // and only on this thread.
  const std::size_t sample_index = samples_.size();
  std::uint64_t moved = 0;
  for (std::uint32_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (!flow.in_use) continue;
    const std::size_t winner = pick_member(flow.client);
    if (winner == kNpos) continue;  // no active member: leave flows be
    // Flows already on the (re-pointed) trigger member must reconnect
    // even when the winner is unchanged — the endpoint may be new.
    if (winner == flow.member && flow.member != trigger) continue;
    if (attach_flow_upstream(i, winner, t0)) {
      // Oldest unanswered re-pin wins: a flow still waiting on an
      // earlier move keeps that sample as its recovery anchor.
      if (flow.pending_sample == kNpos) flow.pending_sample = sample_index;
      ++moved;
    }
  }
  stats_.flows_moved += moved;
  const std::int64_t t1 = steady_ns();

  std::lock_guard<std::mutex> lock(control_mu_);
  ReconvergeSample sample;
  sample.member = id;
  sample.withdrawal = withdrawal;
  sample.flows_moved = moved;
  sample.remap_us = (t1 - t0) / 1000;
  sample.trigger_ns = t0;
  samples_.push_back(sample);
}

std::int64_t AnycastFront::dark_until(std::int64_t now) const {
  std::int64_t until = now;
  for (const chaos::BlackholeWindow& w : config_.plan.blackholes) {
    if (w.contains(Duration::nanos(now - epoch_ns_))) {
      until = std::max(until, epoch_ns_ + w.end.count_nanos());
    }
  }
  return until;
}

bool AnycastFront::survives(const chaos::PacketFate& fate, std::int64_t now) {
  if (dark_until(now) > now) {
    ++stats_.blackholed;
    return false;
  }
  if (fate.drop) {
    ++stats_.dropped;
    return false;
  }
  return true;
}

void AnycastFront::send_udp(bool up, std::uint32_t id, const std::uint8_t* data,
                            std::size_t len) {
  const Flow& flow = flows_[id];
  if (up) {
    if (::send(flow.upstream.get(), data, len, MSG_NOSIGNAL) >= 0) {
      ++stats_.forwarded_up;
    } else {
      ++stats_.udp_upstream_errors;
    }
  } else if (::sendto(front_udp_.fd(), data, len, MSG_NOSIGNAL,
                      reinterpret_cast<const sockaddr*>(&flow.client_sa),
                      flow.client_sa_len) >= 0) {
    ++stats_.forwarded_down;
  }
}

void AnycastFront::park(Delayed item) {
  item.seq = heap_seq_++;
  heap_.push_back(std::move(item));
  std::push_heap(heap_.begin(), heap_.end(), Delayed::later);
}

// Executes a surviving datagram's fate: corrupt it in place, then send
// it now or park a copy in the delay heap; a duplicate takes the same
// path. A clean datagram is sent straight from the receive buffer.
void AnycastFront::relay_udp(const chaos::PacketFate& fate, bool up, std::uint32_t id,
                             std::uint8_t* data, std::size_t len, std::int64_t now) {
  if (fate.corrupt_offset >= 0) {
    if (len > 0) data[static_cast<std::size_t>(fate.corrupt_offset) % len] ^= fate.corrupt_mask;
    ++stats_.corrupted;
  }
  if (fate.reorder) ++stats_.reordered;
  if (fate.duplicate) ++stats_.duplicated;
  for (int copies = fate.duplicate ? 2 : 1; copies > 0; --copies) {
    if (fate.delay.count_nanos() > 0) {
      Delayed item;
      item.due_ns = now + fate.delay.count_nanos();
      item.kind = up ? Delayed::UdpUp : Delayed::UdpDown;
      item.slot = id;
      item.gen = flows_[id].gen;
      item.bytes.assign(data, data + len);
      park(std::move(item));
      ++stats_.delayed;
    } else {
      send_udp(up, id, data, len);
    }
  }
}

std::uint32_t AnycastFront::open_flow(const Endpoint& client, const sockaddr_storage& sa,
                                      socklen_t sa_len, std::int64_t now) {
  const std::size_t winner = pick_member(client);
  if (winner == kNpos) {
    ++stats_.udp_no_member_drops;
    return kNoSlot;
  }
  std::uint32_t id = acquire(flows_, free_flows_, config_.max_flows);
  if (id == kNoSlot) {
    // Full: evict the single oldest-idle flow (rare; the table is
    // bounded). Stale events for it carry the old generation.
    std::uint32_t oldest = kNoSlot;
    for (std::uint32_t i = 0; i < flows_.size(); ++i) {
      if (oldest == kNoSlot || flows_[i].last_active_ns < flows_[oldest].last_active_ns) {
        oldest = i;
      }
    }
    if (oldest == kNoSlot) return kNoSlot;
    close_flow(oldest);
    ++stats_.flows_expired;
    id = acquire(flows_, free_flows_, config_.max_flows);
  }
  Flow& flow = flows_[id];
  flow.client = client;
  flow.client_sa = sa;
  flow.client_sa_len = sa_len;
  flow.last_active_ns = now;
  flow.pending_sample = kNpos;
  if (!attach_flow_upstream(id, winner, now)) {
    ++stats_.udp_upstream_errors;
    release(flows_, free_flows_, id);
    return kNoSlot;
  }
  flow_by_client_.emplace(client, id);
  ++stats_.flows_created;
  stats_.live_flows = flow_by_client_.size();
  return id;
}

void AnycastFront::close_flow(std::uint32_t id) {
  Flow& flow = flows_[id];
  flow_by_client_.erase(flow.client);
  flow.upstream.reset();  // close also leaves the epoll set
  flow.retired.reset();
  release(flows_, free_flows_, id);
  stats_.live_flows = flow_by_client_.size();
}

void AnycastFront::handle_front_udp(std::int64_t now) {
  for (int i = 0; i < 256; ++i) {
    sockaddr_storage src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n = ::recvfrom(front_udp_.fd(), buf_.data(), buf_.size(), 0,
                                 reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN
    }
    ++stats_.udp_client_datagrams;
    const chaos::PacketFate fate = draw(udp_up_, udp_up_idx_);
    if (!survives(fate, now)) continue;
    const Endpoint client = net::endpoint_from_sockaddr(src);
    const auto it = flow_by_client_.find(client);
    const std::uint32_t id =
        it != flow_by_client_.end() ? it->second : open_flow(client, src, src_len, now);
    if (id == kNoSlot) continue;
    flows_[id].last_active_ns = now;
    relay_udp(fate, /*up=*/true, id, buf_.data(), static_cast<std::size_t>(n), now);
  }
}

void AnycastFront::handle_flow(std::uint32_t id, bool retired, std::int64_t now) {
  Flow& flow = flows_[id];
  const net::FdHandle& upstream = retired ? flow.retired : flow.upstream;
  for (int i = 0; i < 256 && upstream.valid(); ++i) {
    const ssize_t n = ::recv(upstream.get(), buf_.data(), buf_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // ECONNREFUSED from a dead machine: the flow stays pinned; the
        // re-pin (driven by the probe suite / supervisor event) moves it.
        ++stats_.udp_upstream_errors;
      }
      return;
    }
    ++stats_.udp_upstream_answers;
    flow.last_active_ns = now;
    const chaos::PacketFate fate = draw(udp_down_, udp_down_idx_);
    if (!survives(fate, now)) continue;
    relay_udp(fate, /*up=*/false, id, buf_.data(), static_cast<std::size_t>(n), now);
    if (!retired && flow.pending_sample != kNpos) {
      std::lock_guard<std::mutex> lock(control_mu_);
      ReconvergeSample& sample = samples_[flow.pending_sample];
      if (sample.first_answer_us < 0) {
        sample.first_answer_us = (steady_ns() - sample.trigger_ns) / 1000;
      }
      flow.pending_sample = kNpos;
    }
  }
}

void AnycastFront::handle_accept(std::int64_t now) {
  for (;;) {
    sockaddr_storage peer{};
    net::FdHandle client = front_tcp_.accept(peer);
    if (!client.valid()) return;
    ++stats_.tcp_connections;
    if (dark_until(now) > now) {
      ++stats_.tcp_refused;
      continue;  // the handle closes: the connection dies inside the window
    }
    const chaos::ConnFate fate = tcp_up_.conn_fate(conn_idx_++);
    if (fate.reset) {
      ++stats_.tcp_resets;
      const linger lin{1, 0};  // RST instead of FIN on close
      ::setsockopt(client.get(), SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
      continue;
    }
    const std::size_t winner = pick_member(net::endpoint_from_sockaddr(peer));
    if (winner == kNpos && !fate.stall) continue;  // nobody to serve it
    const std::uint32_t id = acquire(conns_, free_conns_, config_.max_flows);
    if (id == kNoSlot) continue;  // relay table full: close
    Conn& conn = conns_[id];
    conn.client = std::move(client);
    conn.stalled = fate.stall;
    conn.client_eof = conn.upstream_eof = false;
    conn.held = 0;
    conn.last_active_ns = now;
    watch(epoll_fd_.get(), EPOLL_CTL_ADD, conn.client.get(), EPOLLIN,
          poll_data(kConnClient, conn.gen, id));
    if (fate.stall) {
      ++stats_.tcp_stalls;  // no upstream: the peer talks into the void
      continue;
    }
    conn.upstream = connect_to(SOCK_STREAM, members_[winner].endpoint);
    if (!conn.upstream.valid()) {
      ++stats_.tcp_relay_errors;
      close_conn(id);
      continue;
    }
    // Writable means the connect finished (or failed: SO_ERROR says).
    conn.connecting = true;
    watch(epoll_fd_.get(), EPOLL_CTL_ADD, conn.upstream.get(), EPOLLIN | EPOLLOUT,
          poll_data(kConnUpstream, conn.gen, id));
  }
}

void AnycastFront::close_conn(std::uint32_t id) {
  Conn& conn = conns_[id];
  conn.client.reset();
  conn.upstream.reset();
  conn.to_upstream.clear();
  conn.to_client.clear();
  release(conns_, free_conns_, id);
}

// Writes as much pending data as the kernel takes each way and sets the
// sockets' epoll interest; false when the relay is over (a peer died, or
// the member's EOF and everything before it reached the client).
bool AnycastFront::flush_conn(std::uint32_t id) {
  Conn& conn = conns_[id];
  // 0: all written, 1: kernel buffer full, -1: peer gone.
  const auto pump = [](const net::FdHandle& fd, std::vector<std::uint8_t>& pending) {
    while (!pending.empty()) {
      const ssize_t n = ::send(fd.get(), pending.data(), pending.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK ? 1 : -1;
      }
      pending.erase(pending.begin(), pending.begin() + n);
    }
    return 0;
  };
  // A side at EOF stops asking for EPOLLIN (it would fire forever).
  const auto interest = [](bool eof, int r) {
    return (eof ? 0u : static_cast<std::uint32_t>(EPOLLIN)) | (r == 1 ? EPOLLOUT : 0u);
  };
  if (conn.upstream.valid() && !conn.connecting) {
    const int r = pump(conn.upstream, conn.to_upstream);
    if (r < 0) return false;
    if (r == 0 && conn.client_eof && conn.held == 0) {
      // Half-close: the client's EOF follows everything it sent. Once the
      // member is done too, its socket has no work left (and would report
      // EPOLLHUP forever).
      if (conn.upstream_eof) conn.upstream.reset();
      else ::shutdown(conn.upstream.get(), SHUT_WR);
    }
    if (conn.upstream.valid()) {
      watch(epoll_fd_.get(), EPOLL_CTL_MOD, conn.upstream.get(), interest(conn.upstream_eof, r),
            poll_data(kConnUpstream, conn.gen, id));
    }
  }
  const int r = pump(conn.client, conn.to_client);
  if (r < 0 || (r == 0 && conn.upstream_eof && conn.held == 0)) return false;
  watch(epoll_fd_.get(), EPOLL_CTL_MOD, conn.client.get(), interest(conn.client_eof, r),
        poll_data(kConnClient, conn.gen, id));
  return true;
}

// Bytes read off one side of a TCP relay (in buf_), run through the
// chunk fates.
void AnycastFront::relay_chunk(std::uint32_t id, bool up, std::size_t len, std::int64_t now) {
  Conn& conn = conns_[id];
  const chaos::PacketFate fate = up ? draw(tcp_up_, tcp_up_idx_) : draw(tcp_down_, tcp_down_idx_);
  if (fate.corrupt_offset >= 0) {
    buf_[static_cast<std::size_t>(fate.corrupt_offset) % len] ^= fate.corrupt_mask;
    ++stats_.corrupted;
  }
  // Loss/dup/reorder never apply to TCP (the kernel would retransmit
  // anyway); a blackhole holds the chunk until the window ends.
  const std::int64_t dark = dark_until(now);
  const std::int64_t release_ns = std::max(now + fate.delay.count_nanos(), dark);
  if (release_ns > now) {
    Delayed item;
    item.due_ns = release_ns;
    item.kind = up ? Delayed::TcpUp : Delayed::TcpDown;
    item.slot = id;
    item.gen = conn.gen;
    item.bytes.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(len));
    park(std::move(item));
    ++conn.held;
    if (fate.delay.count_nanos() > 0) ++stats_.delayed;
    if (dark > now) ++stats_.blackholed;
    return;
  }
  auto& pending = up ? conn.to_upstream : conn.to_client;
  pending.insert(pending.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(len));
  ++(up ? stats_.forwarded_up : stats_.forwarded_down);
}

void AnycastFront::handle_conn(std::uint32_t id, bool from_client, std::uint32_t events,
                               std::int64_t now) {
  Conn& conn = conns_[id];
  conn.last_active_ns = now;
  if (!from_client && conn.connecting && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(conn.upstream.get(), SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      ++stats_.tcp_relay_errors;
      close_conn(id);
      return;
    }
    conn.connecting = false;
  }
  const net::FdHandle& from = from_client ? conn.client : conn.upstream;
  if (from.valid() && (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    for (;;) {
      const ssize_t n = ::recv(from.get(), buf_.data(), buf_.size(), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(id);
        return;
      }
      if (n == 0) {
        (from_client ? conn.client_eof : conn.upstream_eof) = true;
        break;
      }
      if (!conn.stalled) relay_chunk(id, from_client, static_cast<std::size_t>(n), now);
    }
  }
  // A stalled relay reads into the void until its client hangs up.
  if (conn.stalled ? conn.client_eof : !flush_conn(id)) close_conn(id);
}

void AnycastFront::flush_due(std::int64_t now) {
  while (!heap_.empty() && heap_.front().due_ns <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), Delayed::later);
    Delayed item = std::move(heap_.back());
    heap_.pop_back();
    if (item.kind == Delayed::UdpUp || item.kind == Delayed::UdpDown) {
      // A flow closed meanwhile takes its datagrams with it; one re-pinned
      // meanwhile sends them to its new member.
      const Flow& flow = flows_[item.slot];
      if (flow.in_use && flow.gen == item.gen) {
        send_udp(item.kind == Delayed::UdpUp, item.slot, item.bytes.data(), item.bytes.size());
      }
      continue;
    }
    Conn& conn = conns_[item.slot];
    if (!conn.in_use || conn.gen != item.gen) continue;
    --conn.held;
    const bool up = item.kind == Delayed::TcpUp;
    auto& pending = up ? conn.to_upstream : conn.to_client;
    pending.insert(pending.end(), item.bytes.begin(), item.bytes.end());
    ++(up ? stats_.forwarded_up : stats_.forwarded_down);
    if (!flush_conn(item.slot)) close_conn(item.slot);
  }
}

void AnycastFront::sweep(std::int64_t now) {
  for (std::uint32_t id = 0; id < flows_.size(); ++id) {
    Flow& flow = flows_[id];
    if (!flow.in_use) continue;
    if (now - flow.last_active_ns > kFlowIdleNs) {
      close_flow(id);
      ++stats_.flows_expired;
    } else if (flow.retired.valid() && now - flow.retired_ns >= kSweepNs) {
      flow.retired.reset();  // the grace is over
    }
  }
  for (std::uint32_t id = 0; id < conns_.size(); ++id) {
    if (conns_[id].in_use && now - conns_[id].last_active_ns > config_.conn_idle.count_nanos()) {
      close_conn(id);
    }
  }
}

void AnycastFront::process_ops() {
  for (;;) {
    std::function<void()> op;
    {
      std::lock_guard<std::mutex> lock(control_mu_);
      if (ops_.empty()) return;
      op = std::move(ops_.front());
      ops_.pop_front();
    }
    op();
  }
}

void AnycastFront::loop() {
  epoll_event events[128];
  std::int64_t last_sweep = steady_ns();
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout_ms = 100;
    if (!heap_.empty()) {
      const std::int64_t wait_ms = (heap_.front().due_ns - steady_ns() + 999'999) / 1'000'000;
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(wait_ms, 0, 100));
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events, 128, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    // Ops first: a member queued before a datagram arrived serves it.
    process_ops();
    const std::int64_t now = steady_ns();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t data = events[i].data.u64;
      const auto tag = static_cast<Tag>(data >> 56);
      const auto gen = static_cast<std::uint32_t>(data >> 32) & kGenMask;
      const auto slot = static_cast<std::uint32_t>(data);
      switch (tag) {
        case kFrontUdp:
          handle_front_udp(now);
          break;
        case kListener:
          handle_accept(now);
          break;
        case kWake: {
          std::uint64_t junk;
          while (::read(wake_fd_.get(), &junk, sizeof(junk)) > 0) {
          }
          break;
        }
        case kFlow:
        case kRetired:
          if (flows_[slot].in_use && flows_[slot].gen == gen) {
            handle_flow(slot, tag == kRetired, now);
          }
          break;
        case kConnClient:
        case kConnUpstream:
          if (conns_[slot].in_use && conns_[slot].gen == gen) {
            handle_conn(slot, tag == kConnClient, events[i].events, now);
          }
          break;
      }
    }
    flush_due(steady_ns());
    if (now - last_sweep >= kSweepNs) {
      last_sweep = now;
      sweep(now);
    }
  }
}

}  // namespace akadns::fleet
