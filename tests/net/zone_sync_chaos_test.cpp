// SecondarySync against a real primary over real sockets, under
// injected faults: the degradation ladder's client side. Covers the
// retry/backoff counters, the transfer deadline, wire-level truncation
// (the held zone must stay untouched), a zero-length transfer frame
// (counted as corrupt), the NOTIFY-during-pass race, and stop() latency
// against a blackholed primary.

#include "net/zone_sync.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "chaos/sync_injector.hpp"
#include "common/clock.hpp"
#include "net/server.hpp"
#include "propagation/zone_publisher.hpp"
#include "server/responder.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::net {
namespace {

using dns::DnsName;
using propagation::SyncOp;

const DnsName kApex = DnsName::from("sync.example");

zone::Zone version(std::uint32_t serial) {
  return zone::ZoneBuilder("sync.example", serial)
      .soa("ns1.sync.example", "hostmaster.sync.example", serial)
      .ns("@", "ns1.sync.example")
      .a("ns1", "10.0.0.1")
      .a("www", "10.7.0." + std::to_string(serial % 250 + 1))
      .build();
}

// A live primary: publisher + server in live-reload mode, so tests can
// publish new versions mid-run.
struct Primary {
  MonotonicClock clock;
  propagation::ZonePublisher publisher;
  Server server;

  explicit Primary(ServeConfig config = make_config()) : publisher(clock), server(config, publisher) {}

  static ServeConfig make_config() {
    ServeConfig config;
    config.port = 0;
    config.workers = 1;
    return config;
  }

  void start() {
    auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
  }
};

SecondaryConfig secondary_config(std::uint16_t primary_port) {
  SecondaryConfig config;
  config.primary_port = primary_port;
  config.apexes = {kApex};
  config.io_timeout = Duration::seconds(2);
  return config;
}

std::uint32_t local_serial(propagation::ZonePublisher& pub) {
  const auto held = pub.snapshot(kApex);
  return held ? held->source()->serial() : 0;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(ZoneSyncChaos, InitialSyncPullsTheFullZoneAndSteadyStateIsCheap) {
  Primary primary;
  ASSERT_TRUE(primary.publisher.publish(version(3)).ok());
  primary.start();

  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(secondary_config(primary.server.udp_port()), local);

  EXPECT_EQ(sync.sync_once(), 1u);
  EXPECT_EQ(local_serial(local), 3u);
  EXPECT_TRUE(sync.synced());
  EXPECT_FALSE(sync.degraded());
  auto stats = sync.stats();
  EXPECT_GE(stats.soa_checks.value(), 1u);
  EXPECT_EQ(stats.axfr_applied.value(), 1u);
  EXPECT_EQ(stats.failures.value(), 0u);

  // Nothing new: the next pass is a lone SOA probe, no transfer.
  EXPECT_EQ(sync.sync_once(), 0u);
  stats = sync.stats();
  EXPECT_GE(stats.up_to_date.value(), 1u);

  primary.server.stop();
}

TEST(ZoneSyncChaos, ProbeFaultCountsAFailureAndTheRetryRecovers) {
  Primary primary;
  ASSERT_TRUE(primary.publisher.publish(version(1)).ok());
  primary.start();

  auto script = std::make_shared<chaos::ScriptedInjector>();
  script->fail_nth(SyncOp::ProbeSend, /*ok=*/0);

  auto config = secondary_config(primary.server.udp_port());
  config.fault_hooks = script;
  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(config, local);

  // First pass: the probe faults; nothing published, backoff armed.
  EXPECT_EQ(sync.sync_once(), 0u);
  auto stats = sync.stats();
  EXPECT_EQ(stats.failures.value(), 1u);
  EXPECT_EQ(stats.retries.value(), 0u);
  EXPECT_FALSE(sync.synced());
  EXPECT_TRUE(sync.degraded()) << "never-synced must read degraded";

  // Second pass is a counted retry — and it succeeds (script drained).
  EXPECT_EQ(sync.sync_once(), 1u);
  stats = sync.stats();
  EXPECT_EQ(stats.retries.value(), 1u);
  EXPECT_EQ(local_serial(local), 1u);
  EXPECT_TRUE(sync.synced());
  EXPECT_FALSE(sync.degraded());

  primary.server.stop();
}

TEST(ZoneSyncChaos, TransferDeadlineCutsAStalledStream) {
  Primary primary;
  ASSERT_TRUE(primary.publisher.publish(version(2)).ok());
  primary.start();

  auto script = std::make_shared<chaos::ScriptedInjector>();
  // The first transfer read stalls well past the whole-transfer budget.
  script->push(SyncOp::TransferRead, {.fail = false, .delay = Duration::millis(600)});

  auto config = secondary_config(primary.server.udp_port());
  config.fault_hooks = script;
  config.transfer_deadline = Duration::millis(200);
  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(config, local);

  EXPECT_EQ(sync.sync_once(), 0u);
  auto stats = sync.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.failures.value(), 1u);
  // The stall never produced a partial publish.
  EXPECT_EQ(local.snapshot(kApex), nullptr);
  EXPECT_FALSE(sync.synced());

  // With the stall gone the retry converges.
  EXPECT_EQ(sync.sync_once(), 1u);
  EXPECT_EQ(local_serial(local), 2u);
  EXPECT_EQ(sync.stats().retries.value(), 1u);

  primary.server.stop();
}

TEST(ZoneSyncChaos, TruncatedWireStreamNeverTouchesTheHeldZone) {
  // The primary cuts the transfer stream mid-body at the socket level
  // (fault hook on the serve side) and its idle reaper closes the
  // connection shortly after — the client must classify the early close
  // as a truncation and keep serving its held version.
  auto server_script = std::make_shared<chaos::ScriptedInjector>();
  ServeConfig primary_config = Primary::make_config();
  primary_config.transfer.axfr_records_per_message = 2;
  primary_config.transfer.fault_hooks = server_script;
  primary_config.tcp_idle_timeout = Duration::millis(100);
  Primary primary(primary_config);
  // Publishing 2 then 3 leaves the journal covering only [2, 3]: a
  // client at serial 1 gets the multi-message AXFR-style fallback.
  ASSERT_TRUE(primary.publisher.publish(version(2)).ok());
  ASSERT_TRUE(primary.publisher.publish(version(3)).ok());
  primary.start();

  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  ASSERT_TRUE(local.publish(version(1)).ok());
  SecondarySync sync(secondary_config(primary.server.udp_port()), local);

  // Cut the outgoing stream after its first message.
  server_script->fail_nth(SyncOp::StreamMessage, /*ok=*/1);

  EXPECT_EQ(sync.sync_once(), 0u);
  auto stats = sync.stats();
  EXPECT_EQ(stats.rejected_truncated, 1u)
      << "an early close mid-body must count as truncated";
  EXPECT_EQ(local_serial(local), 1u) << "a partial transfer replaced the held zone";

  // The fault was one-shot; the retry pulls the real thing.
  EXPECT_EQ(sync.sync_once(), 1u);
  EXPECT_EQ(local_serial(local), 3u);

  primary.server.stop();
}

TEST(ZoneSyncChaos, ZeroLengthTransferFrameCountsAsCorrupt) {
  // A primary that answers the SOA probe from a real zone over UDP, then
  // opens its transfer stream with a zero-length frame on TCP. No DNS
  // message is empty, so the stream is corrupt, not oversized.
  const Ipv4Addr loopback(127, 0, 0, 1);
  auto listener = TcpListener::open(loopback, 0).take();
  auto udp_opened = UdpSocket::open(loopback, listener.port());
  ASSERT_TRUE(udp_opened.ok()) << udp_opened.error();
  UdpSocket udp = std::move(udp_opened).take();
  zone::ZoneStore held;
  held.publish(version(4));
  server::Responder responder(held);

  std::atomic<bool> done{false};
  std::thread primary([&] {
    std::vector<FdHandle> conns;
    while (!done.load()) {
      pollfd fds[2] = {{udp.fd(), POLLIN, 0}, {listener.fd(), POLLIN, 0}};
      if (::poll(fds, 2, 20) <= 0) continue;
      std::uint8_t buf[512];
      sockaddr_storage peer{};
      socklen_t peer_len = sizeof(peer);
      const ssize_t n = ::recvfrom(udp.fd(), buf, sizeof(buf), 0,
                                   reinterpret_cast<sockaddr*>(&peer), &peer_len);
      if (n > 0) {
        const auto reply = responder.respond_wire({buf, static_cast<std::size_t>(n)},
                                                  endpoint_from_sockaddr(peer));
        if (reply) {
          ::sendto(udp.fd(), reply->data(), reply->size(), 0,
                   reinterpret_cast<const sockaddr*>(&peer), peer_len);
        }
      }
      FdHandle conn = listener.accept(peer);
      if (!conn.valid()) continue;
      const std::uint8_t empty_frame[] = {0x00, 0x00};
      ::send(conn.get(), empty_frame, sizeof(empty_frame), MSG_NOSIGNAL);
      conns.push_back(std::move(conn));  // held open: the frame, not a close, ends the stream
    }
  });

  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(secondary_config(listener.port()), local);
  EXPECT_EQ(sync.sync_once(), 0u);
  done.store(true);
  primary.join();

  const auto stats = sync.stats();
  EXPECT_GE(stats.soa_checks.value(), 1u) << "the probe never reached the transfer";
  EXPECT_EQ(stats.rejected_corrupt, 1u);
  EXPECT_EQ(stats.rejected_oversize, 0u);
  EXPECT_EQ(local.snapshot(kApex), nullptr);
}

TEST(ZoneSyncChaos, NotifyKickDuringARefreshPassSchedulesOneMorePass) {
  // The race this guards: a NOTIFY landing *while* a refresh pass runs
  // used to be swallowed — the pass was already past that apex, and the
  // thread went back to sleep for the full refresh interval. The kick
  // must instead schedule one more pass before the thread sleeps.
  Primary primary;
  ASSERT_TRUE(primary.publisher.publish(version(1)).ok());
  primary.start();

  auto script = std::make_shared<chaos::ScriptedInjector>();
  // Stretch pass 1: its first transfer read sleeps 400 ms, giving the
  // mid-pass NOTIFY a deterministic window to land in.
  script->push(SyncOp::TransferRead, {.fail = false, .delay = Duration::millis(400)});

  auto config = secondary_config(primary.server.udp_port());
  config.fault_hooks = script;
  // Long enough that only the kick can explain a prompt convergence.
  config.refresh_interval = Duration::seconds(60);
  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(config, local);

  sync.start();
  // Pass 1 is now inside the stretched transfer for version 1. Publish
  // version 2 and deliver the NOTIFY mid-pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(primary.publisher.publish(version(2)).ok());
  sync.notify_kick();

  // Without the re-pass the secondary would sit on version 1 for 60 s.
  EXPECT_TRUE(wait_until([&] { return local_serial(local) == 2; }, 5000))
      << "NOTIFY during the pass was swallowed; local serial "
      << local_serial(local);
  EXPECT_GE(sync.stats().notify_kicks.value(), 1u);

  sync.stop();
  primary.server.stop();
}

TEST(ZoneSyncChaos, StopIsPromptAgainstABlackholedPrimary) {
  // A primary that accepts nothing and answers nothing: bind a UDP port
  // and never read it. The refresh thread will park in poll() on the
  // probe socket with a long io deadline; stop() must interrupt it via
  // the eventfd instead of waiting out the timeout.
  const int dark = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(dark, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(dark, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(dark, reinterpret_cast<sockaddr*>(&bound), &len), 0);

  auto config = secondary_config(ntohs(bound.sin_port));
  config.io_timeout = Duration::seconds(30);
  config.refresh_interval = Duration::seconds(60);
  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(config, local);

  sync.start();
  // Let the thread reach the probe and block on the dark primary.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto t0 = std::chrono::steady_clock::now();
  sync.stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 2000)
      << "stop() waited on the io timeout instead of the stop eventfd";

  ::close(dark);
}

TEST(ZoneSyncChaos, FreshnessCapsDriveServeStaleThenExpiry) {
  // End-to-end ladder on real sockets: sync once, kill the primary, and
  // watch the capped SOA timers walk fresh -> stale -> expired.
  Primary primary;
  ASSERT_TRUE(primary.publisher.publish(version(1)).ok());
  primary.start();

  auto config = secondary_config(primary.server.udp_port());
  config.freshness_caps = propagation::FreshnessCaps{
      .refresh_cap = Duration::millis(100), .expire_cap = Duration::millis(400)};
  MonotonicClock clock;
  propagation::ZonePublisher local(clock);
  SecondarySync sync(config, local);

  EXPECT_EQ(sync.sync_once(), 1u);
  EXPECT_FALSE(sync.degraded());

  // The primary goes dark; the zone ages on the capped timers.
  primary.server.stop();

  EXPECT_TRUE(wait_until(
      [&] {
        return sync.freshness()->evaluate(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count()) == propagation::Freshness::Stale;
      },
      2000));
  // Stale is serve-stale, not degraded.
  EXPECT_FALSE(sync.degraded());
  EXPECT_TRUE(sync.synced()) << "synced() must stay monotone through staleness";

  // Past the expire cap the /healthz signal flips.
  EXPECT_TRUE(wait_until([&] { return sync.degraded(); }, 2000));
}

}  // namespace
}  // namespace akadns::net
