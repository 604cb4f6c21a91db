#include "net/loadgen.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/socket.hpp"

namespace akadns::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Requested socket buffer size (the kernel clamps to its limits).
constexpr int kSocketBuffer = 1 << 22;

std::int64_t now_ns(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

/// One client socket's world: connected fd, send/recv batch plumbing,
/// and the id-indexed in-flight table. Runs on its own thread.
struct SocketLane {
  LoadgenConfig config;
  const std::vector<workload::ReplayEntry>* corpus = nullptr;
  const std::vector<std::vector<std::uint8_t>>* expected = nullptr;
  const FlipReference* flip_ref = nullptr;  // null outside live-reload runs
  std::uint64_t quota = 0;
  std::size_t corpus_offset = 0;
  std::size_t target_index = 0;  // which config.targets entry this lane hits
  Clock::time_point epoch;

  // Results, split by traffic class (totals are derived at merge time).
  std::uint64_t sent = 0;  // loop control: queries handed to sendmmsg
  ClassCounters legit;
  ClassCounters attack;
  std::uint64_t unexpected = 0;
  std::uint64_t retransmits = 0;
  LogHistogram latency_ns;
  FlipLedger flip;
  OutageTracker outages{500'000'000};
  std::string error;

  struct Outstanding {
    std::uint32_t corpus_idx = 0;
    std::int64_t send_ns = 0;
    bool active = false;
    bool is_attack = false;
    std::uint8_t tries = 0;  // sends so far (first send = 1)
  };

  ClassCounters& bucket(bool is_attack) { return is_attack ? attack : legit; }

  void run() {
    auto opened = UdpSocket::open(Ipv4Addr(127, 0, 0, 1), 0, kSocketBuffer, kSocketBuffer);
    if (!opened) {
      error = opened.error();
      return;
    }
    UdpSocket sock = std::move(opened).take();
    // connect() pins the peer: sends need no address, and the kernel
    // filters inbound datagrams to the server's endpoint.
    sockaddr_storage target{};
    const socklen_t target_len = sockaddr_from_endpoint(config.target, target);
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&target), target_len) != 0) {
      error = errno_message("connect");
      return;
    }

    const std::size_t batch = config.batch;
    // Send-side storage: per-slot query copies (id patched in place).
    std::vector<std::vector<std::uint8_t>> tx_bufs(batch);
    std::vector<iovec> tx_iovecs(batch);
    std::vector<mmsghdr> tx_hdrs(batch);
    // Receive-side storage.
    std::vector<std::vector<std::uint8_t>> rx_bufs(batch);
    for (auto& buf : rx_bufs) buf.resize(4096);
    std::vector<iovec> rx_iovecs(batch);
    std::vector<mmsghdr> rx_hdrs(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      std::memset(&rx_hdrs[i], 0, sizeof(mmsghdr));
      rx_iovecs[i].iov_base = rx_bufs[i].data();
      rx_iovecs[i].iov_len = rx_bufs[i].size();
      rx_hdrs[i].msg_hdr.msg_iov = &rx_iovecs[i];
      rx_hdrs[i].msg_hdr.msg_iovlen = 1;
    }

    std::vector<Outstanding> inflight(65536);
    std::vector<std::uint8_t> retry_buf;
    std::size_t inflight_count = 0;
    std::uint32_t seq = 0;
    const std::int64_t timeout_ns = config.response_timeout.count_nanos();
    // Expiry sweeps are amortized: scanning the slot table every loop
    // iteration would dominate, so sweep at most every timeout/8 (>=1ms).
    const std::int64_t sweep_interval_ns =
        std::max<std::int64_t>(timeout_ns / 8, 1'000'000);
    std::int64_t last_sweep = now_ns(epoch);

    const auto drain_responses = [&] {
      while (inflight_count > 0) {
        int n;
        do {
          n = ::recvmmsg(sock.fd(), rx_hdrs.data(), static_cast<unsigned>(batch), 0, nullptr);
        } while (n < 0 && errno == EINTR);
        if (n <= 0) break;
        const std::int64_t t = now_ns(epoch);
        for (int i = 0; i < n; ++i) {
          const auto len = static_cast<std::size_t>(rx_hdrs[static_cast<std::size_t>(i)].msg_len);
          const auto& buf = rx_bufs[static_cast<std::size_t>(i)];
          if (len < 2) {
            ++unexpected;
            continue;
          }
          const std::uint16_t id = static_cast<std::uint16_t>((buf[0] << 8) | buf[1]);
          Outstanding& slot = inflight[id];
          if (!slot.active) {
            ++unexpected;  // late duplicate or stray datagram
            continue;
          }
          slot.active = false;
          --inflight_count;
          ClassCounters& cls = bucket(slot.is_attack);
          ++cls.received;
          if (len >= 4 && (buf[3] & 0x0F) == 2) ++cls.servfail;  // rcode SERVFAIL
          latency_ns.add(static_cast<double>(t - slot.send_ns));
          if (expected && !expected->empty()) {
            // Expected wires carry id 0; compare everything after it.
            const auto matches = [&](const std::vector<std::uint8_t>& want) {
              return len == want.size() &&
                     std::memcmp(buf.data() + 2, want.data() + 2, len - 2) == 0;
            };
            const bool m1 = matches((*expected)[slot.corpus_idx]);
            const bool m2 = flip_ref && matches(flip_ref->expected[slot.corpus_idx]);
            if (!m1 && !m2) {
              ++cls.mismatched;
            } else if (flip_ref) {
              flip.record(flip_ref->zone[slot.corpus_idx], m1, m2, t);
            }
          }
        }
        if (static_cast<std::size_t>(n) < batch) break;
      }
    };

    while (sent < quota || inflight_count > 0) {
      // Send phase: fill the window in batch-sized syscalls.
      const std::size_t room = config.window - inflight_count;
      std::size_t to_send = std::min({batch, room,
                                      static_cast<std::size_t>(quota - sent)});
      if (config.rate > 0.0 && to_send > 0) {
        // Token pacing against the wall clock: the lane may be at most
        // rate * elapsed queries in. No burst catch-up beyond one batch —
        // a stalled lane resumes at the configured rate, not with a spike.
        const double elapsed_s = static_cast<double>(now_ns(epoch)) / 1e9;
        const auto budget = static_cast<std::uint64_t>(config.rate * elapsed_s);
        to_send = std::min(to_send,
                           static_cast<std::size_t>(budget > sent ? budget - sent : 0));
      }
      if (to_send > 0) {
        const std::int64_t t = now_ns(epoch);
        for (std::size_t j = 0; j < to_send; ++j) {
          const std::size_t idx = (corpus_offset + sent + j) % corpus->size();
          const auto& entry = (*corpus)[idx];
          const auto& wire = entry.wire;
          auto& buf = tx_bufs[j];
          buf.assign(wire.begin(), wire.end());
          const std::uint16_t id = static_cast<std::uint16_t>(seq + j);
          buf[0] = static_cast<std::uint8_t>(id >> 8);
          buf[1] = static_cast<std::uint8_t>(id & 0xff);
          inflight[id] = {static_cast<std::uint32_t>(idx), t, true, entry.is_attack, 1};
          tx_iovecs[j].iov_base = buf.data();
          tx_iovecs[j].iov_len = buf.size();
          std::memset(&tx_hdrs[j], 0, sizeof(mmsghdr));
          tx_hdrs[j].msg_hdr.msg_iov = &tx_iovecs[j];
          tx_hdrs[j].msg_hdr.msg_iovlen = 1;
        }
        std::size_t flushed = 0;
        while (flushed < to_send) {
          const int n = ::sendmmsg(sock.fd(), tx_hdrs.data() + flushed,
                                   static_cast<unsigned>(to_send - flushed), 0);
          if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
              drain_responses();  // free the send queue by consuming replies
              pollfd pfd{sock.fd(), POLLOUT, 0};
              ::poll(&pfd, 1, 10);
              continue;
            }
            break;
          }
          flushed += static_cast<std::size_t>(n);
        }
        // Everything the kernel took counts as sent, per class. Un-book
        // anything it never took (hard error path).
        for (std::size_t j = 0; j < to_send; ++j) {
          const std::uint16_t id = static_cast<std::uint16_t>(seq + j);
          Outstanding& slot = inflight[id];
          if (j < flushed) {
            ++bucket(slot.is_attack).sent;
          } else if (slot.active) {
            slot.active = false;
            ++bucket(slot.is_attack).sent;
            ++bucket(slot.is_attack).dropped;
            outages.record_loss(slot.send_ns);
          }
        }
        inflight_count += flushed;
        seq = static_cast<std::uint32_t>((seq + to_send) & 0xffff);
        sent += to_send;
      }

      drain_responses();

      if (inflight_count > 0 && (to_send == 0 || inflight_count >= config.window)) {
        // Window full or everything sent: block briefly for responses.
        pollfd pfd{sock.fd(), POLLIN, 0};
        ::poll(&pfd, 1, 5);
        drain_responses();
      } else if (to_send == 0 && sent < quota) {
        // Paced out with nothing in flight: sleep off part of the token
        // gap instead of spinning.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }

      // Per-slot straggler expiry: any query unanswered for a full
      // timeout is gone (loss on the loopback path means the server shed
      // it or a socket buffer overflowed). Expiring slots individually —
      // rather than only when the whole lane stalls — keeps the window
      // turning over when the server is deliberately shedding one class
      // of traffic while answering the other.
      if (inflight_count > 0) {
        const std::int64_t t = now_ns(epoch);
        if (t - last_sweep >= sweep_interval_ns) {
          last_sweep = t;
          const std::size_t max_tries = 1 + config.retries;
          for (std::size_t id = 0; id < inflight.size(); ++id) {
            Outstanding& slot = inflight[id];
            if (!slot.active || t - slot.send_ns <= timeout_ns) continue;
            if (slot.tries < max_tries) {
              // Resend the same query under the same transaction id —
              // resolver behavior on a lossy path. Latency restarts at
              // the resend; only a query with every try spent is a drop.
              const auto& wire = (*corpus)[slot.corpus_idx].wire;
              retry_buf.assign(wire.begin(), wire.end());
              retry_buf[0] = static_cast<std::uint8_t>(id >> 8);
              retry_buf[1] = static_cast<std::uint8_t>(id & 0xff);
              if (::send(sock.fd(), retry_buf.data(), retry_buf.size(), 0) >= 0) {
                ++slot.tries;
                slot.send_ns = t;
                ++retransmits;
                continue;
              }
            }
            slot.active = false;
            --inflight_count;
            ++bucket(slot.is_attack).dropped;
            // The loss is stamped at send time: that is when the target
            // failed to answer, not when we gave up waiting — window
            // widths stay timeout-independent.
            outages.record_loss(slot.send_ns);
          }
        }
      }
    }
  }
};

}  // namespace

std::vector<std::vector<std::uint8_t>> expected_responses(
    const workload::ReplayCorpus& corpus, const zone::ZoneStore& store,
    const server::ResponderConfig& responder_config) {
  // Fresh responder per call; cache disabled so the reference is the
  // pure compiled/interpreted datapath (hits replay identical bytes
  // anyway, but the reference should not depend on that).
  server::ResponderConfig config = responder_config;
  config.enable_answer_cache = false;
  server::Responder responder(store, config);
  std::vector<std::vector<std::uint8_t>> expected;
  expected.reserve(corpus.size());
  for (const auto& entry : corpus.entries()) {
    auto wire = responder.respond_wire(entry.wire, entry.source);
    expected.push_back(wire ? std::move(*wire) : std::vector<std::uint8_t>{});
  }
  return expected;
}

FlipReference flip_reference(const workload::ReplayCorpus& corpus, const zone::ZoneStore& flipped,
                             const server::ResponderConfig& responder_config) {
  FlipReference ref;
  ref.expected = expected_responses(corpus, flipped, responder_config);
  const std::vector<dns::DnsName> apexes = flipped.zone_apexes();  // canonical order
  ref.zone.reserve(corpus.size());
  for (const auto& entry : corpus.entries()) {
    std::size_t zone = apexes.size();  // no zone holds the name
    const auto question = dns::decode_question(entry.wire);
    if (question.ok()) {
      if (const auto best = flipped.find_best_compiled(question.value().name)) {
        zone = static_cast<std::size_t>(
            std::lower_bound(apexes.begin(), apexes.end(), best->apex()) - apexes.begin());
      }
    }
    ref.zone.push_back(static_cast<std::uint32_t>(zone));
  }
  return ref;
}

Loadgen::Loadgen(LoadgenConfig config, const workload::ReplayCorpus& corpus,
                 std::vector<std::vector<std::uint8_t>> expected, FlipReference flip)
    : config_(config),
      corpus_(corpus),
      expected_(std::move(expected)),
      flip_(std::move(flip)) {}

LoadgenReport Loadgen::run() {
  const std::size_t lanes_n = std::max<std::size_t>(1, config_.sockets);
  // Multi-target mode: targets wins over the single target field; lanes
  // round-robin, so every target gets ceil/floor(lanes_n / n) sockets.
  std::vector<Endpoint> targets = config_.targets;
  if (targets.empty()) targets.push_back(config_.target);
  const std::int64_t gap_ns = config_.outage_gap.count_nanos();
  std::vector<SocketLane> lanes(lanes_n);
  const auto epoch = Clock::now();
  const std::uint64_t per_lane = config_.total_queries / lanes_n;
  const std::uint64_t remainder = config_.total_queries % lanes_n;
  for (std::size_t i = 0; i < lanes_n; ++i) {
    lanes[i].config = config_;
    lanes[i].config.window = std::min<std::size_t>(config_.window, 32768);
    // The aggregate rate cap splits evenly across lanes.
    lanes[i].config.rate = config_.rate / static_cast<double>(lanes_n);
    lanes[i].target_index = i % targets.size();
    lanes[i].config.target = targets[lanes[i].target_index];
    lanes[i].corpus = &corpus_.entries();
    lanes[i].expected = expected_.empty() ? nullptr : &expected_;
    lanes[i].flip_ref = flip_.expected.empty() ? nullptr : &flip_;
    lanes[i].quota = per_lane + (i < remainder ? 1 : 0);
    // Stagger starting offsets so lanes do not replay the corpus in
    // lockstep (better cache/zone mix at the server).
    lanes[i].corpus_offset = (corpus_.size() * i) / lanes_n;
    lanes[i].epoch = epoch;
    lanes[i].outages = OutageTracker(gap_ns);
  }

  std::vector<std::thread> threads;
  threads.reserve(lanes_n);
  for (auto& lane : lanes) threads.emplace_back([&lane] { lane.run(); });
  for (auto& thread : threads) thread.join();
  const double seconds =
      static_cast<double>(now_ns(epoch)) / 1e9;

  LoadgenReport report;
  report.targets.resize(targets.size());
  std::vector<OutageTracker> per_target(targets.size(), OutageTracker(gap_ns));
  OutageTracker all_targets(gap_ns);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    report.targets[t].target = targets[t];
  }
  for (const auto& lane : lanes) {
    report.legit.merge(lane.legit);
    report.attack.merge(lane.attack);
    report.unexpected += lane.unexpected;
    report.retransmits += lane.retransmits;
    report.latency_ns.merge(lane.latency_ns);
    report.flip.merge(lane.flip.stats());
    TargetReport& tgt = report.targets[lane.target_index];
    ++tgt.lanes;
    tgt.sent += lane.legit.sent + lane.attack.sent;
    tgt.received += lane.legit.received + lane.attack.received;
    tgt.dropped += lane.legit.dropped + lane.attack.dropped;
    tgt.mismatched += lane.legit.mismatched + lane.attack.mismatched;
    per_target[lane.target_index].merge(lane.outages);
    all_targets.merge(lane.outages);
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    report.targets[t].outages = per_target[t].windows();
    report.targets[t].widest_outage_ns = per_target[t].widest_ns();
  }
  report.outages = all_targets.windows();
  report.widest_outage_ns = all_targets.widest_ns();
  report.sent = report.legit.sent + report.attack.sent;
  report.received = report.legit.received + report.attack.received;
  report.dropped = report.legit.dropped + report.attack.dropped;
  report.mismatched = report.legit.mismatched + report.attack.mismatched;
  report.servfail = report.legit.servfail + report.attack.servfail;
  report.seconds = seconds;
  report.qps = seconds > 0.0 ? static_cast<double>(report.received) / seconds : 0.0;
  report.p50_us = report.latency_ns.quantile(0.50) / 1e3;
  report.p90_us = report.latency_ns.quantile(0.90) / 1e3;
  report.p99_us = report.latency_ns.quantile(0.99) / 1e3;
  report.p999_us = report.latency_ns.quantile(0.999) / 1e3;
  report.max_us = report.latency_ns.max() / 1e3;
  return report;
}

}  // namespace akadns::net
