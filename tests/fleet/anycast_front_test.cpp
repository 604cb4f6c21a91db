// The anycast front's steering contract: flows pin to one member via
// rendezvous hashing, withdrawal moves ONLY the withdrawn member's
// flows (ECMP-with-resilient-hashing semantics), reactivation pulls
// back exactly the flows whose winner it is, and the reconvergence
// samples measure it all. Members here are tiny echo servers that tag
// responses with their identity, so every client can see who served it.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet/anycast_front.hpp"
#include "net/socket.hpp"

namespace akadns::fleet {
namespace {

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

/// A UDP member that answers every datagram with [tag, original bytes...].
struct EchoMember {
  net::UdpSocket sock;
  std::uint8_t tag;
  std::thread thread;
  std::atomic<bool> stop{false};

  EchoMember(std::uint8_t tag_byte) : tag(tag_byte) {
    auto opened = net::UdpSocket::open(kLoopback, 0);
    EXPECT_TRUE(opened) << opened.error();
    sock = std::move(opened).take();
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_acquire)) {
        pollfd pfd{sock.fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 50) != 1) continue;
        std::uint8_t buf[2048];
        sockaddr_storage src{};
        socklen_t src_len = sizeof(src);
        const ssize_t n = ::recvfrom(sock.fd(), buf + 1, sizeof(buf) - 1, 0,
                                     reinterpret_cast<sockaddr*>(&src), &src_len);
        if (n <= 0) continue;
        buf[0] = tag;
        ::sendto(sock.fd(), buf, static_cast<std::size_t>(n) + 1, 0,
                 reinterpret_cast<const sockaddr*>(&src), src_len);
      }
    });
  }
  ~EchoMember() {
    stop.store(true, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
  Endpoint endpoint() const { return Endpoint{IpAddr(kLoopback), sock.port()}; }
};

/// One front client: a connected UDP socket that asks "who serves me?"
/// by sending a byte and reading the member tag off the reply.
struct Client {
  int fd;
  explicit Client(std::uint16_t front_port) : fd(::socket(AF_INET, SOCK_DGRAM, 0)) {
    sockaddr_storage dst{};
    const socklen_t len =
        net::sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), front_port}, dst);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&dst), len), 0);
  }
  ~Client() { ::close(fd); }
  Client(const Client&) = delete;
  Client(Client&& other) noexcept : fd(other.fd) { other.fd = -1; }

  /// -1 on timeout.
  int ask(int timeout_ms = 2000) {
    const std::uint8_t ping = 0x5a;
    EXPECT_EQ(::send(fd, &ping, 1, 0), 1);
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return -1;
    std::uint8_t buf[16];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    return n >= 1 ? buf[0] : -1;
  }
};

/// Polls `done` for at most 5 s. Control ops run on the front's epoll
/// thread after the call that queued them returns; each applied op then
/// appends one reconvergence sample, and a moved flow's first relayed
/// answer stamps its sample just after the answer is sent.
bool eventually(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// True once the front has applied `count` control ops in total.
bool ops_applied(const AnycastFront& front, std::size_t count) {
  return eventually([&] { return front.samples().size() >= count; });
}

struct FrontFixture {
  EchoMember a{0xa};
  EchoMember b{0xb};
  EchoMember c{0xc};
  AnycastFront front;

  FrontFixture() : front(FrontConfig{}) {
    auto started = front.start();
    EXPECT_TRUE(started) << started.error();
    front.upsert_member("a", a.endpoint());
    front.upsert_member("b", b.endpoint());
    front.upsert_member("c", c.endpoint());
    // Member ops are queued to the epoll thread; a datagram racing them
    // is (correctly) dropped as no-member. Wait until steering is live.
    for (int i = 0; i < 200 && front.members().size() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(front.members().size(), 3u);
  }
  ~FrontFixture() { front.stop(); }
};

TEST(AnycastFront, PinsEachFlowToOneMember) {
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 16; ++i) clients.emplace_back(fx.front.udp_port());

  std::map<int, int> by_member;
  for (auto& client : clients) {
    const int first = client.ask();
    ASSERT_GE(first, 0) << "no answer through the front";
    // A flow is pinned: repeated asks always land on the same member.
    for (int i = 0; i < 3; ++i) EXPECT_EQ(client.ask(), first);
    ++by_member[first];
  }
  // 16 flows across 3 members: rendezvous hashing spreads them (the
  // exact split is hash-determined; what matters is nobody owns all).
  EXPECT_GE(by_member.size(), 2u);
  EXPECT_EQ(fx.front.counters().live_flows, 16u);
}

TEST(AnycastFront, WithdrawalMovesOnlyTheWithdrawnMembersFlows) {
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 24; ++i) clients.emplace_back(fx.front.udp_port());

  std::vector<int> before;
  for (auto& client : clients) {
    before.push_back(client.ask());
    ASSERT_GE(before.back(), 0);
  }

  const std::size_t ops = fx.front.samples().size();
  fx.front.set_member_active("a", false);
  ASSERT_TRUE(ops_applied(fx.front, ops + 1));

  std::size_t moved = 0, stayed = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const int after = clients[i].ask();
    ASSERT_GE(after, 0);
    EXPECT_NE(after, 0xa) << "flow still reaching a withdrawn member";
    if (before[i] == 0xa) {
      ++moved;
    } else {
      // Minimal disruption: survivors keep their member.
      EXPECT_EQ(after, before[i]);
      ++stayed;
    }
  }
  EXPECT_GT(stayed, 0u);

  // The withdrawal produced a reconvergence sample counting the moves,
  // and traffic since then resolved its first-answer latency.
  if (moved > 0) eventually([&] { return fx.front.samples().back().first_answer_us >= 0; });
  const auto samples = fx.front.samples();
  ASSERT_FALSE(samples.empty());
  const auto& sample = samples.back();
  EXPECT_EQ(sample.member, "a");
  EXPECT_TRUE(sample.withdrawal);
  EXPECT_EQ(sample.flows_moved, moved);
  if (moved > 0) {
    EXPECT_GE(sample.remap_us, 0);
    EXPECT_GE(sample.first_answer_us, 0) << "first answer never measured";
  }
}

TEST(AnycastFront, ReactivationPullsBackItsFlows) {
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 24; ++i) clients.emplace_back(fx.front.udp_port());

  std::vector<int> original;
  for (auto& client : clients) {
    original.push_back(client.ask());
    ASSERT_GE(original.back(), 0);
  }

  const std::size_t ops = fx.front.samples().size();
  fx.front.set_member_active("b", false);
  ASSERT_TRUE(ops_applied(fx.front, ops + 1));
  fx.front.set_member_active("b", true);
  ASSERT_TRUE(ops_applied(fx.front, ops + 2));

  // Rendezvous hashing is deterministic per (flow, member) pair: with
  // the full member set restored, every flow is back on its original
  // winner — withdrawal plus reactivation is a round trip.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(clients[i].ask(), original[i]);
  }
}

TEST(AnycastFront, RepointedMemberKeepsItsFlowsOnFreshEndpoint) {
  // A machine restart lands on new ephemeral ports; upsert_member with
  // the same id re-points existing flows without changing catchments.
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 12; ++i) clients.emplace_back(fx.front.udp_port());
  std::vector<int> before;
  for (auto& client : clients) {
    before.push_back(client.ask());
    ASSERT_GE(before.back(), 0);
  }

  // "Restart" member a on a brand-new socket. The distinct tag proves
  // its flows really reconnected to the fresh endpoint.
  EchoMember a2(0xd);
  const std::size_t ops = fx.front.samples().size();
  fx.front.upsert_member("a", a2.endpoint());
  ASSERT_TRUE(ops_applied(fx.front, ops + 1));

  for (std::size_t i = 0; i < clients.size(); ++i) {
    const int after = clients[i].ask();
    if (before[i] == 0xa) {
      EXPECT_EQ(after, 0xd) << "flow not re-pointed to the restarted member";
    } else {
      EXPECT_EQ(after, before[i]) << "unrelated flow disturbed by the re-point";
    }
  }
}

TEST(AnycastFront, WithdrawalSampleSurvivesQuickReactivation) {
  // The kill-drill pattern: a member withdraws and comes right back
  // (supervisor restart) BEFORE any of the moved flows relays an
  // answer — exactly what happens when the affected clients are waiting
  // out a retry timeout on queries that died with the machine. The
  // withdrawal sample must still resolve its first_answer_us once
  // traffic recovers: each flow anchors to its oldest unanswered
  // re-pin, so a later remap cannot orphan the measurement.
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 24; ++i) clients.emplace_back(fx.front.udp_port());
  std::size_t on_a = 0;
  for (auto& client : clients) {
    const int tag = client.ask();
    ASSERT_GE(tag, 0);
    if (tag == 0xa) ++on_a;
  }
  ASSERT_GT(on_a, 0u) << "hash split left member a empty; cannot exercise the drill";

  // Withdraw and reactivate back-to-back, no traffic in between.
  const std::size_t ops = fx.front.samples().size();
  fx.front.set_member_active("a", false);
  fx.front.set_member_active("a", true);
  ASSERT_TRUE(ops_applied(fx.front, ops + 2));

  // Traffic resumes only now — after BOTH re-pins.
  for (auto& client : clients) ASSERT_GE(client.ask(), 0);

  eventually([&] { return fx.front.samples()[ops].first_answer_us >= 0; });
  const auto samples = fx.front.samples();
  ASSERT_GE(samples.size(), 2u);
  const auto& withdrawal = samples[samples.size() - 2];
  ASSERT_EQ(withdrawal.member, "a");
  ASSERT_TRUE(withdrawal.withdrawal);
  ASSERT_EQ(withdrawal.flows_moved, on_a);
  EXPECT_GE(withdrawal.first_answer_us, 0)
      << "withdrawal measurement lost to the follow-up reactivation re-pin";
}

TEST(AnycastFront, FlowTableBoundEvictsWithoutDisruptingService) {
  // A tiny max_flows forces the oldest-idle eviction path on nearly
  // every new client. Evicted flows are freed only after the epoll
  // batch (they may still have events in it); every client must still
  // be answered — a fresh flow replaces an evicted one transparently.
  EchoMember a{0xa};
  FrontConfig config;
  config.max_flows = 4;
  AnycastFront front(config);
  auto started = front.start();
  ASSERT_TRUE(started) << started.error();
  front.upsert_member("a", a.endpoint());
  for (int i = 0; i < 200 && front.members().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Serialized passes: every ask must be answered even though nearly
  // each new flow evicts the table's oldest.
  std::vector<Client> clients;
  for (int i = 0; i < 16; ++i) clients.emplace_back(front.udp_port());
  for (int pass = 0; pass < 3; ++pass) {
    for (auto& client : clients) EXPECT_EQ(client.ask(), 0xa);
  }

  // Unsynchronized blast: all clients fire at once so a single epoll
  // batch carries both new-flow datagrams (evictions) and upstream
  // answers for flows evicted earlier in that same batch — the stale
  // PollRef window. No reply assertions (an evicted flow's in-flight
  // answer is legitimately dropped); surviving without UB is the test.
  const std::uint8_t ping = 0x5a;
  for (int pass = 0; pass < 20; ++pass) {
    for (auto& client : clients) (void)!::send(client.fd, &ping, 1, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& client : clients) {  // drain whatever made it back
    std::uint8_t buf[16];
    while (::recv(client.fd, buf, sizeof(buf), MSG_DONTWAIT) > 0) {
    }
  }

  const auto counters = front.counters();
  EXPECT_GT(counters.flows_expired, 0u);
  EXPECT_LE(counters.live_flows, 4u);
  front.stop();
}

TEST(AnycastFront, NoActiveMembersDropsInsteadOfCrashing) {
  FrontFixture fx;
  const std::size_t ops = fx.front.samples().size();
  fx.front.set_member_active("a", false);
  fx.front.set_member_active("b", false);
  fx.front.set_member_active("c", false);
  ASSERT_TRUE(ops_applied(fx.front, ops + 3));

  Client client(fx.front.udp_port());
  EXPECT_EQ(client.ask(500), -1);
  EXPECT_GE(fx.front.counters().udp_no_member_drops, 1u);
}

}  // namespace
}  // namespace akadns::fleet
