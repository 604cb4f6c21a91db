#include "sender.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <span>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t kIds = 65536;       // DNS transaction ids per flow
constexpr std::size_t kRecvBatch = 64;    // datagrams per recvmmsg
constexpr std::size_t kRecvBytes = 4096;  // > any UDP answer the responder emits
constexpr std::size_t kCtlBytes = 64;     // room for one SCM_TIMESTAMPNS
constexpr std::size_t kSendBatch = 32;    // datagrams per sendmmsg, per flow
// Below the id wrap: 2^16 queries per flow take 0.65 s even at the
// capacity phase's offered rate.
constexpr std::int64_t kTimeoutNs = 500'000'000;
// Sockets calibration may open before it gives up on a balanced set.
constexpr std::size_t kMaxCandidates = 256;
constexpr std::int64_t kTickNs = 10'000'000;  // Sender's ticker period
// Sleep until this long before a send is due, then spin: sends leave on
// time without the generator holding a core between them.
constexpr std::int64_t kSpinNs = 20'000;

std::int64_t realtime_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int open_flow(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int size = 1 << 22;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  // Kernel receive timestamps: an answer's arrival time does not depend
  // on when the generator thread gets around to reading it.
  const int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof(on));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
  ::nanosleep(&ts, nullptr);
}

}  // namespace

void PhaseResult::merge(const PhaseResult& o) {
  seconds += o.seconds;
  legit.merge(o.legit);
  attack.merge(o.attack);
  unexpected += o.unexpected;
  send_errors += o.send_errors;
  unsent += o.unsent;
  latency.insert(latency.end(), o.latency.begin(), o.latency.end());
  late.insert(late.end(), o.late.begin(), o.late.end());
  generator_cpu += o.generator_cpu;
}

/// One generator thread: its flows, their in-flight tables, and the
/// position in the corpus it replays from.
struct Sender::Lane {
  struct Slot {
    std::int64_t due_ns = 0;
    std::uint64_t seq = 0;
    std::uint32_t entry = 0;
    bool active = false;
  };

  struct FlowState {
    Flow flow;
    std::vector<Slot> slots = std::vector<Slot>(kIds);
    std::uint64_t next_seq = 0;  // id of a query is its sequence mod 2^16
    std::uint64_t oldest = 0;    // every sequence below this is settled
    std::size_t legit_in_flight = 0;  // attack queries are not waited for
    // Send batch: iov[0] is the patched id, iov[1] the entry's wire tail.
    std::size_t pending = 0;
    std::vector<std::array<std::uint8_t, 2>> ids;
    std::vector<iovec> iov;
    std::vector<mmsghdr> hdr;
    std::vector<std::int64_t> due;
    std::vector<std::uint16_t> slot;
  };

  Lane(const std::vector<Entry>& e, const Oracle& o, const std::vector<int>& c, std::size_t start)
      : entries(e), oracle(o), cpus(c), cursor(start % e.size()) {
    rx_bytes.resize(kRecvBatch * kRecvBytes);
    rx_iov.resize(kRecvBatch);
    rx_hdr.resize(kRecvBatch);
    rx_ctl.resize(kRecvBatch);
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      rx_iov[i] = {rx_bytes.data() + i * kRecvBytes, kRecvBytes};
      std::memset(&rx_hdr[i], 0, sizeof(mmsghdr));
      rx_hdr[i].msg_hdr.msg_iov = &rx_iov[i];
      rx_hdr[i].msg_hdr.msg_iovlen = 1;
      rx_hdr[i].msg_hdr.msg_control = rx_ctl[i].bytes;
    }
  }

  void add_flow(Flow f) {
    FlowState s;
    s.flow = f;
    s.ids.resize(kSendBatch);
    s.iov.resize(2 * kSendBatch);
    s.hdr.resize(kSendBatch);
    s.due.resize(kSendBatch);
    s.slot.resize(kSendBatch);
    flows.push_back(std::move(s));
  }

  ClassCounts& counts(std::uint32_t entry) {
    return entries[entry].attack ? result.attack : result.legit;
  }

  void settle(FlowState& f, const Slot& s) {
    if (!entries[s.entry].attack) --f.legit_in_flight;
  }

  void time_out(FlowState& f, Slot& s) {
    s.active = false;
    settle(f, s);
    ++counts(s.entry).timeouts;
  }

  /// Ends the phase for queries still in flight: once every legit query
  /// is settled, the attack queries a defense shed are not waited for.
  void abandon(FlowState& f) {
    for (; f.oldest < f.next_seq; ++f.oldest) {
      Slot& s = f.slots[f.oldest % kIds];
      if (s.active && s.seq == f.oldest) time_out(f, s);
    }
  }

  /// Settles every query older than the timeout, oldest first.
  void expire(FlowState& f, std::int64_t now) {
    while (f.oldest < f.next_seq) {
      Slot& s = f.slots[f.oldest % kIds];
      if (s.active && s.seq == f.oldest) {
        if (s.due_ns + kTimeoutNs > now) break;
        time_out(f, s);
      }
      ++f.oldest;
    }
  }

  void queue_query(FlowState& f, std::int64_t due) {
    const std::uint32_t e = static_cast<std::uint32_t>(cursor);
    cursor = cursor + 1 == entries.size() ? 0 : cursor + 1;
    const std::uint64_t seq = f.next_seq++;
    const auto id = static_cast<std::uint16_t>(seq % kIds);
    Slot& s = f.slots[id];
    if (s.active) time_out(f, s);  // 2^16 sends ago and still unanswered
    s = Slot{due, seq, e, true};
    if (!entries[e].attack) ++f.legit_in_flight;
    const std::size_t i = f.pending++;
    f.ids[i] = {static_cast<std::uint8_t>(id >> 8), static_cast<std::uint8_t>(id & 0xFF)};
    f.iov[2 * i] = {f.ids[i].data(), 2};
    f.iov[2 * i + 1] = {const_cast<std::uint8_t*>(entries[e].wire + 2), entries[e].len - 2};
    std::memset(&f.hdr[i], 0, sizeof(mmsghdr));
    f.hdr[i].msg_hdr.msg_iov = &f.iov[2 * i];
    f.hdr[i].msg_hdr.msg_iovlen = 2;
    f.due[i] = due;
    f.slot[i] = id;
  }

  void flush(FlowState& f, std::int64_t now) {
    std::size_t sent = 0;
    while (sent < f.pending) {
      const int n = ::sendmmsg(f.flow.fd, f.hdr.data() + sent,
                               static_cast<unsigned>(f.pending - sent), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    for (std::size_t i = 0; i < f.pending; ++i) {
      Slot& s = f.slots[f.slot[i]];
      if (i >= sent) {  // never left: not a query the server could answer
        s.active = false;
        settle(f, s);
        ++result.send_errors;
        continue;
      }
      ++counts(s.entry).sent;
      result.late.push_back(now - f.due[i]);
    }
    f.pending = 0;
  }

  /// Sends every query due by `now` (at most one batch per flow).
  void send_due(std::int64_t now) {
    // Past the phase's grace period, queries still due are dropped unsent,
    // and counted: an overloaded generator must not stretch the phase.
    if (now >= t_stop) {
      result.unsent += static_cast<std::uint64_t>((t_end - next_due + interval_ns - 1) / interval_ns);
      next_due = t_end;
      return;
    }
    std::size_t budget = kSendBatch * flows.size();
    while (next_due <= now && next_due < t_end && budget-- > 0) {
      queue_query(flows[rr++ % flows.size()], next_due);
      next_due += interval_ns;
    }
    for (auto& f : flows) {
      if (f.pending > 0) flush(f, now);
    }
  }

  /// Monotonic arrival time of received datagram i: its kernel
  /// timestamp when present, else `fallback`.
  std::int64_t arrival_ns(std::size_t i, std::int64_t fallback) {
    msghdr& m = rx_hdr[i].msg_hdr;
    for (cmsghdr* c = CMSG_FIRSTHDR(&m); c != nullptr; c = CMSG_NXTHDR(&m, c)) {
      if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
        timespec ts{};
        std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
        return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec - realtime_offset;
      }
    }
    return fallback;
  }

  bool receive() {
    bool any = false;
    for (auto& f : flows) {
      while (true) {
        for (auto& h : rx_hdr) h.msg_hdr.msg_controllen = kCtlBytes;
        const int n = ::recvmmsg(f.flow.fd, rx_hdr.data(), kRecvBatch, MSG_DONTWAIT, nullptr);
        if (n <= 0) break;
        any = true;
        const std::int64_t read_at = mono_ns();
        for (int i = 0; i < n; ++i) {
          const std::int64_t now = arrival_ns(static_cast<std::size_t>(i), read_at);
          const std::size_t len = rx_hdr[static_cast<std::size_t>(i)].msg_len;
          const std::uint8_t* bytes = rx_bytes.data() + static_cast<std::size_t>(i) * kRecvBytes;
          if (len < 12) {
            ++result.unexpected;
            continue;
          }
          Slot& s = f.slots[(static_cast<std::size_t>(bytes[0]) << 8) | bytes[1]];
          if (!s.active) {
            ++result.unexpected;
            continue;
          }
          s.active = false;
          settle(f, s);
          ClassCounts& c = counts(s.entry);
          ++c.received;
          if ((bytes[3] & 0xF) == 2) ++c.servfail;
          const bool match = oracle.check(s.entry, {bytes, len}, now) == Oracle::Verdict::Match;
          if (!match) ++c.mismatched;
          if (!entries[s.entry].attack) result.latency.push_back(now - s.due_ns);
        }
        if (static_cast<std::size_t>(n) < kRecvBatch) break;
      }
    }
    return any;
  }

  void run() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    pin_thread(cpus);
    realtime_offset = realtime_ns() - mono_ns();
    const CpuTimes cpu0 = thread_cpu();
    std::vector<pollfd> fds;
    for (const auto& f : flows) fds.push_back({f.flow.fd, POLLIN, 0});
    while (true) {
      std::int64_t now = mono_ns();
      if (next_due <= now && next_due < t_end) send_due(now);
      const bool got = receive();
      now = mono_ns();
      std::size_t legit_in_flight = 0;
      for (auto& f : flows) {
        expire(f, now);
        legit_in_flight += f.legit_in_flight;
      }
      const bool sending = next_due < t_end;
      if (!sending && legit_in_flight == 0) {
        for (auto& f : flows) abandon(f);
        break;
      }
      if (got) continue;
      // A spinning generator would hold a core the server's workers then
      // wait for, so sleep until shortly before the next send. Answers
      // carry kernel timestamps and wait in the socket meanwhile; once
      // sending is over, wake for them instead.
      if (sending) {
        const std::int64_t wait = next_due - now - kSpinNs;
        if (wait > 0) {
          timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
          ::ppoll(nullptr, 0, &ts, nullptr);
        }
      } else {
        timespec ts{0, 1'000'000};
        ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      }
    }
    result.generator_cpu = thread_cpu() - cpu0;
  }

  const std::vector<Entry>& entries;
  const Oracle& oracle;
  const std::vector<int>& cpus;
  std::vector<FlowState> flows;
  std::size_t cursor = 0;
  std::size_t rr = 0;
  // Phase parameters (set by Sender::run before the thread starts): the
  // schedule ends at t_end; its stragglers may be sent until t_stop.
  std::int64_t t_end = 0, t_stop = 0, interval_ns = 1, next_due = 0;
  PhaseResult result;
  std::vector<std::uint8_t> rx_bytes;
  std::vector<iovec> rx_iov;
  std::vector<mmsghdr> rx_hdr;
  struct Ctl {
    alignas(cmsghdr) char bytes[kCtlBytes];
  };
  std::vector<Ctl> rx_ctl;
  std::int64_t realtime_offset = 0;  // CLOCK_REALTIME minus CLOCK_MONOTONIC
};

Sender::Sender(std::vector<Entry> entries, const Oracle& oracle, std::vector<Flow> flows,
               std::vector<int> cpus)
    : entries_(std::move(entries)), oracle_(oracle), cpus_(std::move(cpus)) {
  for (std::size_t t = 0; t < kThreads; ++t) {
    lanes_.push_back(
        std::make_unique<Lane>(entries_, oracle_, cpus_, t * entries_.size() / kThreads));
  }
  for (std::size_t i = 0; i < flows.size(); ++i) lanes_[i % kThreads]->add_flow(flows[i]);
}

Sender::~Sender() {
  for (auto& lane : lanes_) {
    for (auto& f : lane->flows) ::close(f.flow.fd);
  }
}

PhaseResult Sender::run(double rate_qps, double seconds, double grace_s) {
  const std::size_t n = lanes_.size();
  const double lane_interval = 1e9 * static_cast<double>(n) / rate_qps;
  const std::int64_t t_start = mono_ns() + 2'000'000;  // let the threads start
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < n; ++i) {
    Lane& lane = *lanes_[i];
    lane.result = PhaseResult{};
    // Grow nothing while measuring: a reallocation would stall the lane.
    const auto expect = static_cast<std::size_t>(rate_qps * seconds / static_cast<double>(n)) + 1024;
    lane.result.latency.reserve(expect);
    lane.result.late.reserve(expect);
    lane.t_end = t_end;
    lane.t_stop = t_end + static_cast<std::int64_t>(grace_s * 1e9);
    lane.interval_ns = std::max<std::int64_t>(1, static_cast<std::int64_t>(lane_interval));
    lane.next_due = t_start + static_cast<std::int64_t>(lane_interval * static_cast<double>(i) /
                                                        static_cast<double>(n));
  }
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (auto& lane : lanes_) {
    threads.emplace_back([&done, l = lane.get()] {
      l->run();
      done.fetch_add(1, std::memory_order_release);
    });
  }
  std::int64_t next_tick = t_start;
  while (done.load(std::memory_order_acquire) < n) {
    const std::int64_t now = mono_ns();
    if (tick_ && now >= next_tick && now < t_end) {
      tick_();
      next_tick += kTickNs;
    }
    // Wake only for ticks (and, at most every 10 ms, to see the lanes
    // finish): the generator and the workers own the cores meanwhile.
    const std::int64_t until = tick_ && now < t_end ? next_tick : now + 10'000'000;
    sleep_ns(std::clamp<std::int64_t>(until - now, 100'000, 10'000'000));
  }
  for (auto& t : threads) t.join();

  PhaseResult out;
  for (auto& lane : lanes_) {
    out.merge(lane->result);
    lane->result = PhaseResult{};
  }
  out.offered_qps = rate_qps;
  out.seconds = seconds;
  return out;
}

VisibilityProbe::~VisibilityProbe() {
  for (const auto& f : flows_) ::close(f.fd);
}

std::int64_t VisibilityProbe::wait_new(
    std::vector<std::uint8_t> query,
    const std::function<Fresh(std::span<const std::uint8_t>)>& classify,
    std::int64_t deadline_ns) {
  std::vector<std::uint8_t> reply(kRecvBytes);
  std::vector<bool> fresh(flows_.size(), false);
  std::size_t left = flows_.size();
  std::int64_t last = -1;
  while (left > 0) {
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (fresh[i]) continue;
      if (mono_ns() > deadline_ns) return -1;
      const std::uint16_t id = next_id_++;
      query[0] = static_cast<std::uint8_t>(id >> 8);
      query[1] = static_cast<std::uint8_t>(id & 0xFF);
      if (::send(flows_[i].fd, query.data(), query.size(), 0) < 0) continue;
      // Skip stale replies to earlier probes; wait for this id. A probe
      // the kernel dropped under load is asked again on the next pass.
      while (true) {
        pollfd pfd{flows_[i].fd, POLLIN, 0};
        if (::poll(&pfd, 1, 50) != 1) break;
        const ssize_t n = ::recv(flows_[i].fd, reply.data(), reply.size(), 0);
        if (n < 12) break;
        if (reply[0] != query[0] || reply[1] != query[1]) continue;
        const Fresh verdict = classify({reply.data(), static_cast<std::size_t>(n)});
        if (verdict == kMismatch) return -1;
        if (verdict == kNew) {
          fresh[i] = true;
          --left;
          last = mono_ns();
        }
        break;
      }
    }
  }
  return last;
}

std::vector<Flow> calibrate_flows(std::uint16_t port, std::size_t flows_per_worker,
                                  const std::function<std::vector<std::uint64_t>()>& per_worker,
                                  const std::vector<std::uint8_t>& probe, std::string& error) {
  std::vector<Flow> kept;
  std::vector<std::size_t> have(kWorkers, 0);
  std::vector<std::uint8_t> query = probe;
  std::vector<std::uint8_t> reply(kRecvBytes);
  for (std::size_t c = 0; c < kMaxCandidates && kept.size() < kWorkers * flows_per_worker; ++c) {
    const int fd = open_flow(port);
    if (fd < 0) {
      error = std::string("client socket: ") + std::strerror(errno);
      break;
    }
    const auto before = per_worker();
    query[0] = static_cast<std::uint8_t>(c >> 8);
    query[1] = static_cast<std::uint8_t>(c & 0xFF);
    pollfd pfd{fd, POLLIN, 0};
    if (::send(fd, query.data(), query.size(), 0) != static_cast<ssize_t>(query.size()) ||
        ::poll(&pfd, 1, 2000) != 1 || ::recv(fd, reply.data(), reply.size(), 0) < 12) {
      ::close(fd);
      error = "calibration probe went unanswered";
      break;
    }
    // The worker counts a datagram before answering it; re-read briefly
    // in case the counter's store is not yet visible to this thread.
    std::size_t worker = kWorkers;
    for (int attempt = 0; attempt < 100 && worker == kWorkers; ++attempt) {
      const auto after = per_worker();
      for (std::size_t w = 0; w < kWorkers; ++w) {
        if (after[w] > before[w]) worker = w;
      }
      if (worker == kWorkers) sleep_ns(1'000'000);
    }
    if (worker == kWorkers) {
      ::close(fd);
      error = "calibration probe not attributed to any worker";
      break;
    }
    if (have[worker] < flows_per_worker) {
      ++have[worker];
      kept.push_back({fd, worker});
    } else {
      ::close(fd);
    }
  }
  if (kept.size() < kWorkers * flows_per_worker) {
    if (error.empty()) error = "no balanced flow set within the candidate budget";
    for (const auto& f : kept) ::close(f.fd);
    return {};
  }
  // Interleave workers so each generator thread drives every worker.
  std::vector<Flow> ordered;
  // Sender::Sender deals flows round-robin to threads, so worker-major
  // order gives thread t the t-th flow of every worker.
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (const auto& f : kept) {
      if (f.worker == w) ordered.push_back(f);
    }
  }
  return ordered;
}

}  // namespace perfbench
