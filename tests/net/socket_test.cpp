// Loopback tests for the socket wrappers and the recvmmsg/sendmmsg
// batch: ephemeral-port binding, SO_REUSEPORT group membership,
// Endpoint<->sockaddr round-trips, and the receive/reply batch cycle.

#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "net/socket.hpp"
#include "net/udp_batch.hpp"

namespace akadns::net {
namespace {

constexpr Ipv4Addr kLoopback(127, 0, 0, 1);

/// Waits (bounded) for readability — loopback delivery is fast but not
/// synchronous.
bool wait_readable(int fd, int timeout_ms = 2000) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1;
}

TEST(UdpSocket, EphemeralBindReportsPort) {
  auto opened = UdpSocket::open(kLoopback, 0);
  ASSERT_TRUE(opened) << opened.error();
  EXPECT_GT(std::move(opened).take().port(), 0);
}

TEST(UdpSocket, ReuseportAllowsSecondBindOnSamePort) {
  auto first = UdpSocket::open(kLoopback, 0);
  ASSERT_TRUE(first) << first.error();
  const UdpSocket a = std::move(first).take();
  auto second = UdpSocket::open(kLoopback, a.port());
  ASSERT_TRUE(second) << second.error();
  EXPECT_EQ(std::move(second).take().port(), a.port());
}

TEST(UdpSocket, EphemeralBindsGetDistinctPorts) {
  // Every socket is held open while the next binds: two port-0 sockets
  // that shared a port would take each other's datagrams.
  constexpr std::size_t kSockets = 800;
  std::vector<UdpSocket> held;
  std::set<std::uint16_t> ports;
  held.reserve(kSockets);
  for (std::size_t i = 0; i < kSockets; ++i) {
    auto opened = UdpSocket::open(kLoopback, 0);
    ASSERT_TRUE(opened) << opened.error();
    held.push_back(std::move(opened).take());
    ports.insert(held.back().port());
  }
  EXPECT_EQ(ports.size(), kSockets);
}

TEST(SockaddrConversion, V4RoundTrip) {
  const Endpoint ep{IpAddr(Ipv4Addr(10, 1, 2, 3)), 5353};
  sockaddr_storage ss{};
  const socklen_t len = sockaddr_from_endpoint(ep, ss);
  EXPECT_EQ(len, sizeof(sockaddr_in));
  EXPECT_EQ(endpoint_from_sockaddr(ss), ep);
}

TEST(SockaddrConversion, V6RoundTrip) {
  auto v6 = IpAddr::parse("2001:db8::42");
  ASSERT_TRUE(v6);
  const Endpoint ep{*v6, 443};
  sockaddr_storage ss{};
  const socklen_t len = sockaddr_from_endpoint(ep, ss);
  EXPECT_EQ(len, sizeof(sockaddr_in6));
  EXPECT_EQ(endpoint_from_sockaddr(ss), ep);
}

TEST(UdpBatch, EchoCycleOverLoopback) {
  auto server_r = UdpSocket::open(kLoopback, 0);
  ASSERT_TRUE(server_r) << server_r.error();
  UdpSocket server = std::move(server_r).take();
  auto client_r = UdpSocket::open(kLoopback, 0);
  ASSERT_TRUE(client_r) << client_r.error();
  UdpSocket client = std::move(client_r).take();

  // Client fires `n` distinct datagrams at the server.
  sockaddr_storage server_addr{};
  const socklen_t server_len =
      sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), server.port()}, server_addr);
  constexpr int kCount = 8;
  for (int i = 0; i < kCount; ++i) {
    std::uint8_t msg[4] = {0xab, 0xcd, 0x00, static_cast<std::uint8_t>(i)};
    ASSERT_EQ(::sendto(client.fd(), msg, sizeof(msg), 0,
                       reinterpret_cast<const sockaddr*>(&server_addr), server_len),
              static_cast<ssize_t>(sizeof(msg)));
  }

  // Server batch-receives and echoes each datagram with a marker prefix.
  UdpBatch batch(32);
  int received = 0;
  while (received < kCount) {
    ASSERT_TRUE(wait_readable(server.fd()));
    const int n = batch.recv(server.fd());
    ASSERT_GE(n, 0);
    for (int i = 0; i < n; ++i) {
      const auto pkt = batch.packet(static_cast<std::size_t>(i));
      ASSERT_EQ(pkt.size(), 4u);
      auto& reply = batch.response(static_cast<std::size_t>(i));
      reply.push_back(0xee);
      reply.insert(reply.end(), pkt.begin(), pkt.end());
      // The batch exposes the true kernel-reported source.
      const Endpoint src = endpoint_from_sockaddr(batch.source(static_cast<std::size_t>(i)));
      EXPECT_EQ(src.port, client.port());
    }
    EXPECT_EQ(batch.send(server.fd()), static_cast<std::size_t>(n));
    received += n;
  }

  // Client sees every echo, marker first.
  std::vector<bool> seen(kCount, false);
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(wait_readable(client.fd()));
    std::uint8_t buf[16];
    const ssize_t n = ::recv(client.fd(), buf, sizeof(buf), 0);
    ASSERT_EQ(n, 5);
    EXPECT_EQ(buf[0], 0xee);
    EXPECT_EQ(buf[1], 0xab);
    seen[buf[4]] = true;
  }
  for (int i = 0; i < kCount; ++i) EXPECT_TRUE(seen[i]) << "echo " << i << " missing";
}

TEST(UdpBatch, EmptyResponsesAreDropped) {
  auto server_r = UdpSocket::open(kLoopback, 0);
  ASSERT_TRUE(server_r) << server_r.error();
  UdpSocket server = std::move(server_r).take();
  auto client_r = UdpSocket::open(kLoopback, 0);
  ASSERT_TRUE(client_r) << client_r.error();
  UdpSocket client = std::move(client_r).take();

  sockaddr_storage server_addr{};
  const socklen_t server_len =
      sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), server.port()}, server_addr);
  for (int i = 0; i < 2; ++i) {
    std::uint8_t msg[1] = {static_cast<std::uint8_t>(i)};
    ASSERT_EQ(::sendto(client.fd(), msg, 1, 0,
                       reinterpret_cast<const sockaddr*>(&server_addr), server_len),
              1);
  }

  UdpBatch batch(32);
  int got = 0;
  std::size_t sent_back = 0;
  while (got < 2) {
    ASSERT_TRUE(wait_readable(server.fd()));
    const int n = batch.recv(server.fd());
    ASSERT_GE(n, 0);
    for (int i = 0; i < n; ++i) {
      const auto pkt = batch.packet(static_cast<std::size_t>(i));
      if (pkt[0] == 0) {
        auto& reply = batch.response(static_cast<std::size_t>(i));
        reply.assign({0x99});
      }
      // pkt[0]==1: leave the response empty — dropped, like a malformed
      // query the responder declines to answer.
    }
    sent_back += batch.send(server.fd());
    got += n;
  }
  EXPECT_EQ(sent_back, 1u);

  ASSERT_TRUE(wait_readable(client.fd()));
  std::uint8_t buf[4];
  ASSERT_EQ(::recv(client.fd(), buf, sizeof(buf), 0), 1);
  EXPECT_EQ(buf[0], 0x99);
  // No second datagram arrives.
  EXPECT_FALSE(wait_readable(client.fd(), 100));
}

TEST(TcpListener, AcceptRoundTrip) {
  auto listener_r = TcpListener::open(kLoopback, 0);
  ASSERT_TRUE(listener_r) << listener_r.error();
  TcpListener listener = std::move(listener_r).take();
  EXPECT_GT(listener.port(), 0);

  // Nothing pending: accept is EAGAIN, reported as an invalid handle.
  sockaddr_storage peer{};
  EXPECT_FALSE(listener.accept(peer).valid());

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_storage server_addr{};
  const socklen_t server_len =
      sockaddr_from_endpoint(Endpoint{IpAddr(kLoopback), listener.port()}, server_addr);
  ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&server_addr), server_len), 0);

  ASSERT_TRUE(wait_readable(listener.fd()));
  FdHandle conn = listener.accept(peer);
  ASSERT_TRUE(conn.valid());
  EXPECT_TRUE(endpoint_from_sockaddr(peer).addr.is_v4());

  const char ping[] = "ping";
  ASSERT_EQ(::send(client, ping, 4, 0), 4);
  ASSERT_TRUE(wait_readable(conn.get()));
  char buf[8];
  ASSERT_EQ(::recv(conn.get(), buf, sizeof(buf), 0), 4);
  EXPECT_EQ(std::memcmp(buf, ping, 4), 0);
  ::close(client);
}

}  // namespace
}  // namespace akadns::net
