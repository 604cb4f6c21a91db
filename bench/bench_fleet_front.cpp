// §4.2 dataplane: the anycast front's steering cost and reconvergence.
//
// Measures, over real loopback sockets: (1) relay throughput through
// the single-threaded flow-NAT relay, (2) how rendezvous hashing
// spreads client flows across PoP machines, and (3) what a member
// withdrawal costs — the fraction of flows moved (ideal: 1/N), the
// flow-table remap time, and the time until the first answer flows on
// a re-pinned flow under live traffic.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fleet/anycast_front.hpp"
#include "net/socket.hpp"

using namespace akadns;

namespace {

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

/// A UDP member that echoes every datagram back, first byte replaced by
/// its tag so clients can attribute answers.
struct EchoMember {
  net::UdpSocket sock;
  std::uint8_t tag;
  std::thread thread;
  std::atomic<bool> stop{false};

  explicit EchoMember(std::uint8_t tag_byte) : tag(tag_byte) {
    auto opened = net::UdpSocket::open(kLoopback, 0, 1 << 21, 1 << 21);
    sock = std::move(opened).take();
    thread = std::thread([this] {
      std::uint8_t buf[512];
      while (!stop.load(std::memory_order_acquire)) {
        pollfd pfd{sock.fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 20) != 1) continue;
        for (;;) {
          sockaddr_storage src{};
          socklen_t src_len = sizeof(src);
          const ssize_t n = ::recvfrom(sock.fd(), buf, sizeof(buf), 0,
                                       reinterpret_cast<sockaddr*>(&src), &src_len);
          if (n <= 0) break;
          buf[0] = tag;
          ::sendto(sock.fd(), buf, static_cast<std::size_t>(n), 0,
                   reinterpret_cast<const sockaddr*>(&src), src_len);
        }
      }
    });
  }
  ~EchoMember() {
    stop.store(true, std::memory_order_release);
    thread.join();
  }
};

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  bench::heading("Anycast front: steering throughput and reconvergence",
                 "§4.2 — flow-hash pinning; withdrawal moves only the affected catchment");

  constexpr std::size_t kMembers = 4;
  constexpr std::size_t kClients = 64;
  constexpr int kPingsPerClient = 400;

  std::vector<std::unique_ptr<EchoMember>> members;
  for (std::size_t i = 0; i < kMembers; ++i) {
    members.push_back(std::make_unique<EchoMember>(static_cast<std::uint8_t>(0xa0 + i)));
  }

  fleet::AnycastFront front{fleet::FrontConfig{}};
  auto started = front.start();
  if (!started) {
    std::fprintf(stderr, "front: %s\n", started.error().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    std::string id = "m";
    id += std::to_string(i);
    front.upsert_member(id, Endpoint{IpAddr(kLoopback), members[i]->sock.port()});
  }
  while (front.samples().size() < kMembers) {  // one sample per applied op
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Client sockets: one flow each, synchronous ping/pong (the bench
  // measures the relay's per-datagram cost, not kernel batching).
  std::vector<int> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_storage dst{};
    const socklen_t len =
        net::sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), front.udp_port()}, dst);
    ::connect(fd, reinterpret_cast<const sockaddr*>(&dst), len);
    clients.push_back(fd);
  }
  const auto ask = [](int fd) -> int {
    const std::uint8_t ping[32] = {0x5a};
    if (::send(fd, ping, sizeof(ping), 0) < 0) return -1;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 2000) != 1) return -1;
    std::uint8_t buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    return n >= 1 ? buf[0] : -1;
  };

  // --- Throughput + spread ---
  std::map<int, std::uint64_t> spread;
  std::vector<int> pinned(kClients, -1);
  const std::int64_t t0 = now_us();
  std::uint64_t relayed = 0, lost = 0;
  for (int round = 0; round < kPingsPerClient; ++round) {
    for (std::size_t i = 0; i < kClients; ++i) {
      const int tag = ask(clients[i]);
      if (tag < 0) {
        ++lost;
        continue;
      }
      ++relayed;
      pinned[i] = tag;
      if (round == 0) ++spread[tag];
    }
  }
  const double seconds = static_cast<double>(now_us() - t0) / 1e6;

  bench::subheading("relay throughput (synchronous round trips, 64 flows)");
  bench::print_count_row("round trips relayed", relayed);
  bench::print_count_row("lost", lost);
  bench::print_row("relay rate (rt/s)", relayed / seconds);

  bench::subheading("catchment spread over 64 flows (ideal: 25% each)");
  for (const auto& [tag, count] : spread) {
    const double share = static_cast<double>(count) / kClients;
    std::printf("  m%-5d %8.2f%%  |%s|\n", tag - 0xa0, 100 * share,
                render_bar(share * kMembers, 40).c_str());
  }

  // --- Withdrawal reconvergence under live traffic ---
  // Background load keeps flows hot so first_answer_us is meaningful.
  std::atomic<bool> load_stop{false};
  std::thread load([&] {
    while (!load_stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < kClients; ++i) ask(clients[i]);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  front.set_member_active("m0", false);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  load_stop.store(true, std::memory_order_release);
  load.join();

  std::size_t moved_actual = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    const int tag = ask(clients[i]);
    if (pinned[i] == 0xa0 && tag != pinned[i]) ++moved_actual;
  }

  bench::subheading("withdrawal of m0 (1 of 4 members) under load");
  const auto samples = front.samples();
  for (const auto& sample : samples) {
    if (!sample.withdrawal) continue;
    bench::print_count_row("flows moved", sample.flows_moved);
    bench::print_row("moved fraction (ideal 0.25)",
                     static_cast<double>(sample.flows_moved) / kClients);
    bench::print_row("flow-table remap (us)", static_cast<double>(sample.remap_us));
    bench::print_row("first answer on new catchment (us)",
                     static_cast<double>(sample.first_answer_us));
  }
  bench::print_count_row("flows verified on a new member", moved_actual);

  const auto counters = front.counters();
  bench::print_count_row("front datagrams in", counters.udp_client_datagrams);
  bench::print_count_row("answers relayed", counters.udp_upstream_answers);

  for (const int fd : clients) ::close(fd);
  front.stop();
  return 0;
}
