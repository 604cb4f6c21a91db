// The one UDP/TCP relay, in both of its roles.
//
// AnycastFront.*: the steering contract. Flows pin to one member via
// rendezvous hashing, withdrawal moves ONLY the withdrawn member's flows
// (ECMP-with-resilient-hashing semantics), reactivation pulls back
// exactly the flows whose winner it is, answers a withdrawn member still
// owes reach their clients, and the reconvergence samples measure it
// all. TCP relays survive a client's half-close, are capped and reaped.
//
// ImpairmentProxy.*: the impairment role, a one-member front executing
// a FaultPlan as akadns-chaos runs it. Every fault class is driven to
// certainty (probability 1.0 or an always-on window), so the assertions
// are about *what the fault does to real traffic*, not probabilities.
//
// Members are EchoMembers: UDP and TCP on one port, UDP replies tagged
// with the member's identity, so every client can see who served it.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_stream.hpp"
#include "fleet/anycast_front.hpp"
#include "net/socket.hpp"

namespace akadns::fleet {
namespace {

using namespace std::chrono_literals;
constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

/// A member machine: UDP and TCP on one port. A UDP reply is the
/// datagram with its first byte replaced by `tag` (0: verbatim), sent
/// `delay` after the datagram arrived; TCP echoes what it reads and
/// closes at the peer's EOF.
class EchoMember {
 public:
  explicit EchoMember(std::uint8_t tag = 0, std::chrono::milliseconds delay = 0ms)
      : tag_(tag), delay_(delay) {
    for (int attempt = 0; attempt < 32 && tcp_.fd() < 0; ++attempt) {
      auto udp = net::UdpSocket::open(kLoopback, 0);
      EXPECT_TRUE(udp) << udp.error();
      auto tcp = net::TcpListener::open(kLoopback, udp.value().port());
      if (!tcp) continue;  // the TCP twin of the port is taken: redraw
      udp_ = std::move(udp).take();
      tcp_ = std::move(tcp).take();
    }
    EXPECT_GE(tcp_.fd(), 0);
    thread_ = std::thread([this] { run(); });
  }
  ~EchoMember() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Endpoint endpoint() const { return Endpoint{IpAddr(kLoopback), udp_.port()}; }

 private:
  struct Reply {
    std::chrono::steady_clock::time_point due;
    std::vector<std::uint8_t> bytes;
    sockaddr_storage peer{};
    socklen_t peer_len = 0;
  };

  void run() {
    std::vector<std::uint8_t> buf(64 * 1024);
    std::deque<Reply> replies;  // one delay for all: due order is FIFO
    std::vector<net::FdHandle> conns;
    while (!stop_.load(std::memory_order_acquire)) {
      std::vector<pollfd> fds{{udp_.fd(), POLLIN, 0}, {tcp_.fd(), POLLIN, 0}};
      for (const auto& conn : conns) fds.push_back({conn.get(), POLLIN, 0});
      ::poll(fds.data(), fds.size(), replies.empty() ? 20 : 1);
      for (;;) {
        Reply reply;
        reply.peer_len = sizeof(reply.peer);
        const ssize_t n = ::recvfrom(udp_.fd(), buf.data(), buf.size(), MSG_DONTWAIT,
                                     reinterpret_cast<sockaddr*>(&reply.peer), &reply.peer_len);
        if (n <= 0) break;
        if (tag_ != 0) buf[0] = tag_;
        reply.bytes.assign(buf.begin(), buf.begin() + n);
        reply.due = std::chrono::steady_clock::now() + delay_;
        replies.push_back(std::move(reply));
      }
      while (!replies.empty() && replies.front().due <= std::chrono::steady_clock::now()) {
        const Reply& reply = replies.front();
        ::sendto(udp_.fd(), reply.bytes.data(), reply.bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&reply.peer), reply.peer_len);
        replies.pop_front();
      }
      sockaddr_storage peer{};
      for (net::FdHandle conn; (conn = tcp_.accept(peer)).valid();) {
        conns.push_back(std::move(conn));
      }
      for (std::size_t i = 2; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::recv(fds[i].fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (n > 0) {
          (void)!::send(fds[i].fd, buf.data(), static_cast<std::size_t>(n), MSG_NOSIGNAL);
        } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          std::erase_if(conns, [&](const net::FdHandle& c) { return c.get() == fds[i].fd; });
        }
      }
    }
  }

  std::uint8_t tag_;
  std::chrono::milliseconds delay_;
  net::UdpSocket udp_;
  net::TcpListener tcp_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One front client: a connected UDP socket.
class Client {
 public:
  explicit Client(std::uint16_t front_port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    sockaddr_storage dst{};
    const socklen_t len =
        net::sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), front_port}, dst);
    EXPECT_EQ(::connect(fd_.get(), reinterpret_cast<const sockaddr*>(&dst), len), 0);
  }

  bool send(const std::string& payload) {
    return ::send(fd_.get(), payload.data(), payload.size(), 0) ==
           static_cast<ssize_t>(payload.size());
  }

  std::optional<std::string> recv(int timeout_ms) {
    pollfd pfd{fd_.get(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return std::nullopt;
    char buf[65536];
    const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    return std::string(buf, static_cast<std::size_t>(n));
  }

  /// "Who serves me?": sends a one-byte ping and returns the member tag
  /// of the reply; -1 on timeout.
  int ask(int timeout_ms = 2000) {
    EXPECT_TRUE(send("\x5a"));
    return tag_of(recv(timeout_ms));
  }
  static int tag_of(const std::optional<std::string>& reply) {
    return reply && !reply->empty() ? static_cast<std::uint8_t>(reply->front()) : -1;
  }

 private:
  net::FdHandle fd_;
};

/// A blocking TCP connection to the front.
net::FdHandle tcp_connect(std::uint16_t port) {
  net::FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_storage dst{};
  const socklen_t len = net::sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), port}, dst);
  EXPECT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&dst), len), 0);
  return fd;
}

/// Everything the peer sends until its EOF (or `timeout_ms` of silence).
std::string read_to_eof(const net::FdHandle& fd, int timeout_ms = 3000) {
  std::string out;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd.get(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return out + "<timeout>";
    const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
    if (n <= 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

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

/// A started front steering to `members` (id "a", "b", ... in order).
std::unique_ptr<AnycastFront> front_for(const std::vector<const EchoMember*>& members,
                                        FrontConfig config = {}) {
  auto front = std::make_unique<AnycastFront>(std::move(config));
  auto started = front->start();
  EXPECT_TRUE(started) << started.error();
  for (std::size_t i = 0; i < members.size(); ++i) {
    front->upsert_member(std::string(1, static_cast<char>('a' + i)), members[i]->endpoint());
  }
  // Member ops are queued to the epoll thread; a datagram racing them
  // is (correctly) dropped as no-member. Wait until steering is live.
  EXPECT_TRUE(ops_applied(*front, members.size()));
  return front;
}

/// The impairment role: one member, one plan.
std::unique_ptr<AnycastFront> hop(const EchoMember& member, chaos::FaultPlan plan = {}) {
  FrontConfig config;
  config.plan = std::move(plan);
  return front_for({&member}, std::move(config));
}

struct FrontFixture {
  EchoMember a{0xa};
  EchoMember b{0xb};
  EchoMember c{0xc};
  std::unique_ptr<AnycastFront> front = front_for({&a, &b, &c});
};

TEST(AnycastFront, PinsEachFlowToOneMember) {
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 16; ++i) clients.emplace_back(fx.front->udp_port());

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
  EXPECT_EQ(fx.front->counters().live_flows, 16u);
}

TEST(AnycastFront, WithdrawalMovesOnlyTheWithdrawnMembersFlows) {
  FrontFixture fx;
  std::vector<Client> clients;
  for (int i = 0; i < 24; ++i) clients.emplace_back(fx.front->udp_port());

  std::vector<int> before;
  for (auto& client : clients) {
    before.push_back(client.ask());
    ASSERT_GE(before.back(), 0);
  }

  const std::size_t ops = fx.front->samples().size();
  fx.front->set_member_active("a", false);
  ASSERT_TRUE(ops_applied(*fx.front, ops + 1));

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
  if (moved > 0) eventually([&] { return fx.front->samples().back().first_answer_us >= 0; });
  const auto samples = fx.front->samples();
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
  for (int i = 0; i < 24; ++i) clients.emplace_back(fx.front->udp_port());

  std::vector<int> original;
  for (auto& client : clients) {
    original.push_back(client.ask());
    ASSERT_GE(original.back(), 0);
  }

  const std::size_t ops = fx.front->samples().size();
  fx.front->set_member_active("b", false);
  ASSERT_TRUE(ops_applied(*fx.front, ops + 1));
  fx.front->set_member_active("b", true);
  ASSERT_TRUE(ops_applied(*fx.front, ops + 2));

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
  for (int i = 0; i < 12; ++i) clients.emplace_back(fx.front->udp_port());
  std::vector<int> before;
  for (auto& client : clients) {
    before.push_back(client.ask());
    ASSERT_GE(before.back(), 0);
  }

  // "Restart" member a on a brand-new socket. The distinct tag proves
  // its flows really reconnected to the fresh endpoint.
  EchoMember a2(0xd);
  const std::size_t ops = fx.front->samples().size();
  fx.front->upsert_member("a", a2.endpoint());
  ASSERT_TRUE(ops_applied(*fx.front, ops + 1));

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
  for (int i = 0; i < 24; ++i) clients.emplace_back(fx.front->udp_port());
  std::size_t on_a = 0;
  for (auto& client : clients) {
    const int tag = client.ask();
    ASSERT_GE(tag, 0);
    if (tag == 0xa) ++on_a;
  }
  ASSERT_GT(on_a, 0u) << "hash split left member a empty; cannot exercise the drill";

  // Withdraw and reactivate back-to-back, no traffic in between.
  const std::size_t ops = fx.front->samples().size();
  fx.front->set_member_active("a", false);
  fx.front->set_member_active("a", true);
  ASSERT_TRUE(ops_applied(*fx.front, ops + 2));

  // Traffic resumes only now — after BOTH re-pins.
  for (auto& client : clients) ASSERT_GE(client.ask(), 0);

  eventually([&] { return fx.front->samples()[ops].first_answer_us >= 0; });
  const auto samples = fx.front->samples();
  ASSERT_GE(samples.size(), 2u);
  const auto& withdrawal = samples[samples.size() - 2];
  ASSERT_EQ(withdrawal.member, "a");
  ASSERT_TRUE(withdrawal.withdrawal);
  ASSERT_EQ(withdrawal.flows_moved, on_a);
  EXPECT_GE(withdrawal.first_answer_us, 0)
      << "withdrawal measurement lost to the follow-up reactivation re-pin";
}

TEST(AnycastFront, AnswersOwedByAWithdrawnMemberStillArrive) {
  // A suspended machine keeps answering what reaches it, and ECMP return
  // traffic never crosses the hash: a query in flight when its flow is
  // re-pinned is still answered by the old member, through the front.
  EchoMember slow(0xa, 100ms);
  EchoMember fast(0xb);
  auto front = front_for({&slow, &fast});
  front->set_member_active("b", false);  // every flow starts on the slow member
  ASSERT_TRUE(ops_applied(*front, 3));

  std::vector<Client> clients;
  for (int i = 0; i < 10; ++i) clients.emplace_back(front->udp_port());
  for (auto& client : clients) ASSERT_TRUE(client.send("\x5a"));
  for (auto& client : clients) ASSERT_EQ(Client::tag_of(client.recv(2000)), 0xa);

  // Queries in flight at the slow member; 20 ms later the re-pin moves
  // every flow to the fast one.
  for (auto& client : clients) ASSERT_TRUE(client.send("\x5a"));
  std::this_thread::sleep_for(20ms);
  const std::size_t ops = front->samples().size();
  front->set_member_active("b", true);
  front->set_member_active("a", false);
  ASSERT_TRUE(ops_applied(*front, ops + 2));

  int delivered = 0;
  for (auto& client : clients) delivered += Client::tag_of(client.recv(2000)) == 0xa;
  EXPECT_EQ(delivered, 10) << "answers owed by the withdrawn member were dropped";
  const auto samples = front->samples();
  EXPECT_EQ(samples[ops].flows_moved + samples[ops + 1].flows_moved, 10u);
  // Owed answers do not prove the new catchment works...
  EXPECT_EQ(samples[ops].first_answer_us, -1);
  EXPECT_EQ(samples[ops + 1].first_answer_us, -1);
  // ...the new member's first answers do.
  for (auto& client : clients) EXPECT_EQ(client.ask(), 0xb);
  if (samples[ops + 1].flows_moved > 0) {
    EXPECT_TRUE(eventually([&] { return front->samples()[ops + 1].first_answer_us >= 0; }));
  }
}

TEST(AnycastFront, FlowTableBoundEvictsWithoutDisruptingService) {
  // A tiny max_flows forces the oldest-idle eviction path on nearly
  // every new client. An evicted flow's slot is reused at once; stale
  // events for it carry the old generation and are ignored. Every client
  // must still be answered — a fresh flow replaces an evicted one
  // transparently.
  EchoMember a{0xa};
  FrontConfig config;
  config.max_flows = 4;
  auto front = front_for({&a}, config);

  // Serialized passes: every ask must be answered even though nearly
  // each new flow evicts the table's oldest.
  std::vector<Client> clients;
  for (int i = 0; i < 16; ++i) clients.emplace_back(front->udp_port());
  for (int pass = 0; pass < 3; ++pass) {
    for (auto& client : clients) EXPECT_EQ(client.ask(), 0xa);
  }

  // Unsynchronized blast: all clients fire at once so a single epoll
  // batch carries both new-flow datagrams (evictions) and upstream
  // answers for flows evicted earlier in that same batch — the stale
  // event window. No reply assertions (an evicted flow's in-flight
  // answer is legitimately dropped); surviving without UB is the test.
  for (int pass = 0; pass < 20; ++pass) {
    for (auto& client : clients) client.send("\x5a");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& client : clients) {  // drain whatever made it back
    while (client.recv(0)) {
    }
  }

  const auto counters = front->counters();
  EXPECT_GT(counters.flows_expired, 0u);
  EXPECT_LE(counters.live_flows, 4u);
  front->stop();
}

TEST(AnycastFront, NoActiveMembersDropsInsteadOfCrashing) {
  FrontFixture fx;
  const std::size_t ops = fx.front->samples().size();
  fx.front->set_member_active("a", false);
  fx.front->set_member_active("b", false);
  fx.front->set_member_active("c", false);
  ASSERT_TRUE(ops_applied(*fx.front, ops + 3));

  Client client(fx.front->udp_port());
  EXPECT_EQ(client.ask(500), -1);
  EXPECT_GE(fx.front->counters().udp_no_member_drops, 1u);
}

TEST(AnycastFront, TcpClientThatHalfClosesStillGetsItsAnswer) {
  // A DNS-over-TCP client may shut down its sending side right after
  // the query; the answer must still come back before the relay closes.
  EchoMember member;
  auto front = front_for({&member});
  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string query = "query-" + std::to_string(i);
    const net::FdHandle fd = tcp_connect(front->udp_port());
    ASSERT_EQ(::send(fd.get(), query.data(), query.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(query.size()));
    ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
    answered += read_to_eof(fd) == query;
  }
  EXPECT_EQ(answered, 20);
  EXPECT_EQ(front->counters().tcp_connections, 20u);
}

TEST(AnycastFront, TcpRelaysAreCappedAtMaxFlows) {
  EchoMember member;
  FrontConfig config;
  config.max_flows = 2;
  auto front = front_for({&member}, config);
  const net::FdHandle first = tcp_connect(front->udp_port());
  const net::FdHandle second = tcp_connect(front->udp_port());
  // Both relays are live before the third connection arrives.
  for (const auto* fd : {&first, &second}) {
    ASSERT_EQ(::send(fd->get(), "ping", 4, MSG_NOSIGNAL), 4);
    char buf[8];
    pollfd pfd{fd->get(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 3000), 1);
    ASSERT_EQ(::recv(fd->get(), buf, sizeof(buf), 0), 4);
  }
  const net::FdHandle third = tcp_connect(front->udp_port());
  EXPECT_EQ(read_to_eof(third), "") << "a relay past max_flows was kept open";
  // Closing one frees its slot for the next connection.
  EXPECT_EQ(::shutdown(first.get(), SHUT_WR), 0);
  EXPECT_EQ(read_to_eof(first), "");
  const net::FdHandle fourth = tcp_connect(front->udp_port());
  ASSERT_EQ(::send(fourth.get(), "again", 5, MSG_NOSIGNAL), 5);
  ASSERT_EQ(::shutdown(fourth.get(), SHUT_WR), 0);
  EXPECT_EQ(read_to_eof(fourth), "again");
}

TEST(AnycastFront, SilentTcpRelayIsReapedAfterConnIdle) {
  EchoMember member;
  FrontConfig config;
  config.conn_idle = Duration::millis(200);
  auto front = front_for({&member}, config);
  const net::FdHandle fd = tcp_connect(front->udp_port());
  ASSERT_EQ(::send(fd.get(), "hi", 2, MSG_NOSIGNAL), 2);
  // The answer flows, then silence: the next sweep (1 s cadence) closes
  // the relay, so the client sees EOF well inside 3 s.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(read_to_eof(fd, 3000), "hi");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 3s);
}

TEST(AnycastFront, LossPlanDropsExactlyThePredictedOrdinals) {
  // Each datagram draws one ordinal per direction, and a re-point does
  // not restart the count: the front drops exactly the ordinals the
  // plan's stream predicts, on either side of an upsert_member.
  EchoMember a(0xa);
  EchoMember b(0xb);
  chaos::FaultPlan plan;
  plan.up.loss = 0.3;
  plan.seed = 42;
  auto front = hop(a, plan);
  const chaos::FaultStream oracle(plan.up, plan.seed, chaos::kDirUp);

  Client client(front->udp_port());
  std::uint64_t predicted_drops = 0;
  for (int i = 0; i < 60; ++i) {
    if (i == 30) {
      const std::size_t ops = front->samples().size();
      front->upsert_member("a", b.endpoint());
      ASSERT_TRUE(ops_applied(*front, ops + 1));
    }
    const std::string query{'\0', static_cast<char>(i)};
    ASSERT_TRUE(client.send(query));
    if (oracle.fate(static_cast<std::uint64_t>(i)).drop) {
      ++predicted_drops;
      continue;  // a wrongly relayed one shows up as the next reply
    }
    const auto reply = client.recv(2000);
    ASSERT_TRUE(reply.has_value()) << "ordinal " << i << " dropped but predicted to survive";
    ASSERT_EQ(reply->size(), 2u);
    EXPECT_EQ((*reply)[1], static_cast<char>(i)) << "ordinal " << i;
    EXPECT_EQ(Client::tag_of(reply), i < 30 ? 0xa : 0xb) << "ordinal " << i;
  }
  EXPECT_FALSE(client.recv(200).has_value()) << "a predicted drop was relayed";
  EXPECT_GT(predicted_drops, 0u);
  EXPECT_EQ(front->counters().dropped.value(), predicted_drops);
}

TEST(ImpairmentProxy, CleanPlanRelaysVerbatimBothWays) {
  EchoMember upstream;
  auto proxy = hop(upstream);

  Client client(proxy->udp_port());
  const std::string payload = "through-the-proxy";
  ASSERT_TRUE(client.send(payload));
  const auto reply = client.recv(3000);
  ASSERT_TRUE(reply.has_value()) << "clean proxy dropped the datagram";
  EXPECT_EQ(*reply, payload);

  proxy->stop();
  EXPECT_GE(proxy->counters().forwarded_up.value(), 1u);
  EXPECT_GE(proxy->counters().forwarded_down.value(), 1u);
  EXPECT_EQ(proxy->counters().dropped.value(), 0u);
  EXPECT_EQ(proxy->counters().corrupted.value(), 0u);
}

TEST(ImpairmentProxy, RelaysADatagramSentRightAfterStart) {
  // akadns-chaos's order: the member is queued before start(), the ready
  // line follows it, and a client may send the moment it reads the line.
  EchoMember upstream;
  AnycastFront proxy(FrontConfig{});
  proxy.upsert_member("upstream", upstream.endpoint());
  auto started = proxy.start();
  ASSERT_TRUE(started) << started.error();
  Client client(proxy.udp_port());
  ASSERT_TRUE(client.send("first"));
  EXPECT_EQ(client.recv(3000), std::optional<std::string>("first"));
}

TEST(ImpairmentProxy, TotalUpstreamLossSwallowsEveryDatagram) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.up.loss = 1.0;
  auto proxy = hop(upstream, plan);

  Client client(proxy->udp_port());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.send("lost-" + std::to_string(i)));
  EXPECT_FALSE(client.recv(300).has_value());

  proxy->stop();
  EXPECT_GE(proxy->counters().dropped.value(), 3u);
  EXPECT_EQ(proxy->counters().forwarded_up.value(), 0u);
}

TEST(ImpairmentProxy, FixedDelayAddsMeasurableLatency) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.up.delay = Duration::millis(60);
  plan.down.delay = Duration::millis(60);
  auto proxy = hop(upstream, plan);

  Client client(proxy->udp_port());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send("how-long"));
  const auto reply = client.recv(5000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_TRUE(reply.has_value());
  // 60 ms each way; leave headroom below 120 for scheduler slack.
  EXPECT_GE(elapsed, 100);

  proxy->stop();
  EXPECT_GE(proxy->counters().delayed.value(), 2u);
}

TEST(ImpairmentProxy, CorruptionFlipsExactlyOneByte) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.up.corrupt = 1.0;  // down stays clean: the echo shows the damage
  auto proxy = hop(upstream, plan);

  Client client(proxy->udp_port());
  const std::string payload(64, 'x');
  ASSERT_TRUE(client.send(payload));
  const auto reply = client.recv(3000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->size(), payload.size());
  int diffs = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if ((*reply)[i] != payload[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1) << "single-byte corruption must damage exactly one byte";

  proxy->stop();
  EXPECT_GE(proxy->counters().corrupted.value(), 1u);
}

TEST(ImpairmentProxy, DuplicationDeliversTheAnswerTwice) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.down.dup = 1.0;
  auto proxy = hop(upstream, plan);

  Client client(proxy->udp_port());
  ASSERT_TRUE(client.send("twice"));
  const auto first = client.recv(3000);
  const auto second = client.recv(3000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value()) << "duplicate copy never arrived";
  EXPECT_EQ(*first, "twice");
  EXPECT_EQ(*second, "twice");

  proxy->stop();
  EXPECT_GE(proxy->counters().duplicated.value(), 1u);
}

TEST(ImpairmentProxy, BlackholeWindowGoesCompletelyDark) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.blackholes.push_back({Duration::zero(), Duration::seconds(600)});
  auto proxy = hop(upstream, plan);

  Client client(proxy->udp_port());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.send("void"));
  EXPECT_FALSE(client.recv(300).has_value());

  proxy->stop();
  EXPECT_GE(proxy->counters().blackholed.value(), 3u);
  EXPECT_EQ(proxy->counters().forwarded_up.value(), 0u);
}

TEST(ImpairmentProxy, TcpResetKillsFreshConnections) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.up.tcp_reset = 1.0;
  auto proxy = hop(upstream, plan);

  // The proxy accepts then resets; the next read must fail or EOF fast.
  const net::FdHandle fd = tcp_connect(proxy->udp_port());
  pollfd pfd{fd.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 3000), 1) << "reset never arrived";
  char buf[16];
  EXPECT_LE(::recv(fd.get(), buf, sizeof(buf), 0), 0);

  proxy->stop();
  EXPECT_GE(proxy->counters().tcp_resets.value(), 1u);
}

TEST(ImpairmentProxy, UpsertMemberRepointsNewAndLiveFlows) {
  // Rewiring a hop (its machine restarted on a fresh port) moves the
  // flows it already carries as well as new ones.
  EchoMember a('A');
  EchoMember b('B');
  auto proxy = hop(a);

  Client early(proxy->udp_port());
  ASSERT_TRUE(early.send("x-first"));
  const auto reply = early.recv(3000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->front(), 'A');

  const std::size_t ops = proxy->samples().size();
  proxy->upsert_member("a", b.endpoint());
  ASSERT_TRUE(ops_applied(*proxy, ops + 1));
  Client late(proxy->udp_port());
  for (Client* client : {&late, &early}) {
    ASSERT_TRUE(client->send("x-second"));
    const auto moved = client->recv(3000);
    ASSERT_TRUE(moved.has_value());
    EXPECT_EQ(moved->front(), 'B');
  }

  proxy->stop();
}

TEST(ImpairmentProxy, StopIsPromptAndIdempotent) {
  EchoMember upstream;
  chaos::FaultPlan plan;
  plan.up.delay = Duration::seconds(30);  // a queue full of far-future sends
  auto proxy = hop(upstream, plan);
  Client client(proxy->udp_port());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(client.send("parked"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  proxy->stop();
  proxy->stop();  // idempotent
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 1000) << "stop() waited on the delay queue";
}

}  // namespace
}  // namespace akadns::fleet
