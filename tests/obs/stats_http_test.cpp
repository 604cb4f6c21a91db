#include "obs/stats_http.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "obs/exposition.hpp"

namespace akadns::obs {
namespace {

struct Fixture {
  Counter queries;
  std::atomic<bool> ready{true};
  MetricRegistry registry;
  StatsServer server;

  Fixture()
      : server([this] { return registry.snapshot(); },
               [this] { return ready.load(); }) {
    registry.counter("akadns_queries_total", {}, queries, "queries handled");
  }
};

TEST(StatsServer, ServesMetricsAndTracksLiveCounters) {
  Fixture fx;
  std::string err;
  ASSERT_TRUE(fx.server.start(0, &err)) << err;
  ASSERT_NE(fx.server.port(), 0);
  const std::string base = "http://127.0.0.1:" + std::to_string(fx.server.port());

  fx.queries += 5;
  HttpResponse resp;
  ASSERT_TRUE(http_get(base + "/metrics", &resp, &err)) << err;
  EXPECT_EQ(resp.status, 200);
  const Exposition parsed = Exposition::parse(resp.body);
  EXPECT_DOUBLE_EQ(parsed.value("akadns_queries_total"), 5.0);

  fx.queries += 37;
  ASSERT_TRUE(http_get(base + "/metrics", &resp, &err)) << err;
  EXPECT_DOUBLE_EQ(Exposition::parse(resp.body).value("akadns_queries_total"), 42.0);
}

TEST(StatsServer, HealthzReflectsReadiness) {
  Fixture fx;
  std::string err;
  ASSERT_TRUE(fx.server.start(0, &err)) << err;
  const std::string base = "http://127.0.0.1:" + std::to_string(fx.server.port());

  HttpResponse resp;
  ASSERT_TRUE(http_get(base + "/healthz", &resp, &err)) << err;
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");

  fx.ready.store(false);
  ASSERT_TRUE(http_get(base + "/healthz", &resp, &err)) << err;
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.body, "unready\n");
}

TEST(StatsServer, UnknownPathIs404AndJsonEndpointServes) {
  Fixture fx;
  std::string err;
  ASSERT_TRUE(fx.server.start(0, &err)) << err;
  const std::string base = "http://127.0.0.1:" + std::to_string(fx.server.port());

  HttpResponse resp;
  ASSERT_TRUE(http_get(base + "/nope", &resp, &err)) << err;
  EXPECT_EQ(resp.status, 404);

  ASSERT_TRUE(http_get(base + "/metrics.json", &resp, &err)) << err;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"akadns_queries_total\""), std::string::npos);
}

TEST(StatsServer, StopIsIdempotentAndRestartable) {
  Fixture fx;
  std::string err;
  ASSERT_TRUE(fx.server.start(0, &err)) << err;
  fx.server.stop();
  fx.server.stop();
  EXPECT_FALSE(fx.server.running());
  ASSERT_TRUE(fx.server.start(0, &err)) << err;
  HttpResponse resp;
  ASSERT_TRUE(http_get("http://127.0.0.1:" + std::to_string(fx.server.port()) +
                           "/healthz",
                       &resp, &err))
      << err;
  EXPECT_EQ(resp.status, 200);
}

TEST(StatsServer, TricklingPeerDoesNotBlockHealthz) {
  Fixture fx;
  std::string err;
  ASSERT_TRUE(fx.server.start(0, &err)) << err;

  // One connection trickles a byte every 200 ms for up to 4 s: every
  // single read sees data quickly, so only a deadline on the whole
  // request frees the serial listener for the next client.
  const int slow = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(slow, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(fx.server.port());
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(4);
    while (!done.load() && std::chrono::steady_clock::now() < end) {
      ::send(slow, "G", 1, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  HttpResponse resp;
  const bool fetched =
      http_get("http://127.0.0.1:" + std::to_string(fx.server.port()) + "/healthz", &resp,
               &err, 2000);
  done.store(true);
  trickle.join();
  ::close(slow);
  ASSERT_TRUE(fetched) << err;
  EXPECT_EQ(resp.status, 200);
}

TEST(HttpGet, TricklingServerCannotHoldARequestPastItsTimeout) {
  // A server that answers one byte every 50 ms for 3 s: each read sees
  // data quickly, so only one deadline on the whole request ends it.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    const int conn = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) return;
    const std::string reply = "HTTP/1.1 200 OK\r\nContent-Length: 60\r\n\r\n" +
                              std::string(60, 'x');
    const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    for (std::size_t i = 0;
         i < reply.size() && !done.load() && std::chrono::steady_clock::now() < end; ++i) {
      ::send(conn, &reply[i], 1, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(conn);
  });

  HttpResponse resp;
  std::string err;
  const auto t0 = std::chrono::steady_clock::now();
  const bool fetched = http_get(
      "http://127.0.0.1:" + std::to_string(ntohs(addr.sin_port)) + "/metrics", &resp, &err, 200);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  done.store(true);
  trickle.join();
  ::close(listener);
  EXPECT_FALSE(fetched) << "a 200 ms request read a body trickled over 3 s";
  EXPECT_NE(err.find("timed out"), std::string::npos) << err;
  EXPECT_GE(elapsed, 200);
  EXPECT_LT(elapsed, 1000);
}

TEST(HttpGet, RejectsBadUrls) {
  HttpResponse resp;
  std::string err;
  EXPECT_FALSE(http_get("ftp://127.0.0.1:1/x", &resp, &err));
  EXPECT_FALSE(http_get("http://127.0.0.1/noport", &resp, &err));
  EXPECT_FALSE(http_get("http://127.0.0.1:0/badport", &resp, &err));
}

}  // namespace
}  // namespace akadns::obs
