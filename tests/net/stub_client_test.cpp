// The stub client's rules, each against a test-held peer on loopback: a
// reply with another transaction id is skipped, a silent server costs
// exactly the deadline, the stop fd ends a long wait at once, a server
// trickling one byte at a time cannot stretch a call past its deadline,
// and a zero-length frame and an EOF mid-frame are told apart.

#include "net/stub_client.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "dns/wire.hpp"

namespace akadns::net {
namespace {

using Steady = std::chrono::steady_clock;
using std::chrono::milliseconds;
using namespace std::chrono_literals;

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

std::vector<std::uint8_t> query(std::uint16_t id, const char* name = "www.example.com") {
  return dns::encode(dns::make_query(id, dns::DnsName::from(name), dns::RecordType::A));
}

std::int64_t ms_since(Steady::time_point t0) {
  return std::chrono::duration_cast<milliseconds>(Steady::now() - t0).count();
}

/// A UDP client of a bound socket that never reads.
struct UdpPeer {
  UdpSocket server = UdpSocket::open(kLoopback, 0).take();
  StubClient client;
  explicit UdpPeer(int stop_fd = -1)
      : client(StubClient::open(Endpoint{IpAddr(kLoopback), server.port()}, Transport::Udp,
                                Steady::now() + 3s, stop_fd)
                   .take()) {}
};

/// A TCP client of a test-held listener, and the server's end of it.
std::pair<StubClient, FdHandle> tcp_pair(TcpListener& listener) {
  StubClient client = StubClient::open(Endpoint{IpAddr(kLoopback), listener.port()},
                                       Transport::Tcp, Steady::now() + 3s)
                          .take();
  sockaddr_storage peer{};
  FdHandle server = listener.accept(peer);
  for (int i = 0; i < 300 && !server.valid(); ++i) {
    std::this_thread::sleep_for(milliseconds(10));
    server = listener.accept(peer);
  }
  EXPECT_TRUE(server.valid()) << "the listener never saw the client";
  return {std::move(client), std::move(server)};
}

TEST(StubClient, AskSkipsAReplyWithAnotherTransactionId) {
  UdpPeer peer;
  // Both replies are queued before the query leaves: a late answer to
  // an earlier query (id 0x1235), then this query's own (id 0x1234).
  sockaddr_storage self{};
  socklen_t self_len = sizeof(self);
  ASSERT_EQ(::getsockname(peer.client.fd(), reinterpret_cast<sockaddr*>(&self), &self_len), 0);
  const auto stale = query(0x1235, "stale.example.com");
  const auto answer = query(0x1234, "answer.example.com");
  for (const auto* reply : {&stale, &answer}) {
    ASSERT_EQ(::sendto(peer.server.fd(), reply->data(), reply->size(), 0,
                       reinterpret_cast<const sockaddr*>(&self), self_len),
              static_cast<ssize_t>(reply->size()));
  }

  const StubResult got = peer.client.ask(query(0x1234), Steady::now() + 3s);
  ASSERT_TRUE(got) << got.error;
  EXPECT_EQ(std::vector<std::uint8_t>(got.reply.begin(), got.reply.end()), answer);
}

TEST(StubClient, SilentServerTimesOutAtTheDeadline) {
  UdpPeer peer;
  const auto t0 = Steady::now();
  const StubResult got = peer.client.ask(query(7), t0 + 200ms);
  const std::int64_t elapsed = ms_since(t0);
  EXPECT_EQ(got.failure, StubFailure::Timeout) << got.error;
  EXPECT_GE(elapsed, 200);
  EXPECT_LT(elapsed, 700);
}

TEST(StubClient, StopFdEndsALongWaitAtOnce) {
  const FdHandle stop(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  ASSERT_TRUE(stop.valid());
  UdpPeer peer(stop.get());
  std::atomic<Steady::rep> written{0};
  std::thread stopper([&] {
    std::this_thread::sleep_for(50ms);
    written.store(Steady::now().time_since_epoch().count());
    const std::uint64_t one = 1;
    EXPECT_EQ(::write(stop.get(), &one, sizeof(one)), static_cast<ssize_t>(sizeof(one)));
  });
  const StubResult got = peer.client.receive(Steady::now() + 30s);
  const auto returned = Steady::now();
  stopper.join();

  EXPECT_EQ(got.failure, StubFailure::Stopped) << got.error;
  const auto after_write = returned - Steady::time_point(Steady::duration(written.load()));
  EXPECT_LT(std::chrono::duration_cast<milliseconds>(after_write).count(), 100);
}

TEST(StubClient, TricklingTcpServerCannotHoldAnAskPastItsDeadline) {
  auto listener = TcpListener::open(kLoopback, 0).take();
  auto [client, server] = tcp_pair(listener);
  // This query's 200-byte answer frame, one byte every 100 ms: 20 s in
  // all, yet each byte lands well inside any per-read timeout.
  std::atomic<bool> done{false};
  std::thread trickler([&done, fd = server.get()] {
    std::vector<std::uint8_t> frame = {0x00, 200, 0x00, 0x09};
    frame.resize(202, 0xab);
    for (const std::uint8_t byte : frame) {
      if (done.load() || ::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(100ms);
    }
  });

  const auto t0 = Steady::now();
  const StubResult got = client.ask(query(9), t0 + 500ms);
  const std::int64_t elapsed = ms_since(t0);
  done.store(true);
  trickler.join();
  EXPECT_EQ(got.failure, StubFailure::Timeout) << got.error;
  EXPECT_GE(elapsed, 500);
  EXPECT_LT(elapsed, 1000);
}

TEST(StubClient, ZeroLengthFrameAndEofMidFrameAreDistinctFailures) {
  auto listener = TcpListener::open(kLoopback, 0).take();
  const auto deadline = Steady::now() + 3s;

  auto [empty_client, empty_server] = tcp_pair(listener);
  const std::uint8_t empty_frame[] = {0x00, 0x00};
  ASSERT_EQ(::send(empty_server.get(), empty_frame, 2, MSG_NOSIGNAL), 2);
  const StubResult empty = empty_client.receive(deadline);

  auto [cut_client, cut_server] = tcp_pair(listener);
  const std::uint8_t partial_frame[] = {0x00, 0x10, 0xab, 0xcd};
  ASSERT_EQ(::send(cut_server.get(), partial_frame, 4, MSG_NOSIGNAL), 4);
  cut_server.reset();
  const StubResult cut = cut_client.receive(deadline);

  EXPECT_EQ(empty.failure, StubFailure::BadFrame) << empty.error;
  EXPECT_EQ(cut.failure, StubFailure::Closed) << cut.error;
  EXPECT_EQ(cut.error, "connection closed mid-frame");
}

}  // namespace
}  // namespace akadns::net
