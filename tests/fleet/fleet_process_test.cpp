// Real-process supervision: fork/exec the actual akadns-serve binary
// (path injected at compile time), handshake via the ready line, kill
// it, and watch the supervisor repopulate the PoP. This is the one test
// layer where the subject is a process, not a class.

#include <signal.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fleet/machine_process.hpp"
#include "fleet/supervisor.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "obs/stats_http.hpp"

#ifndef AKADNS_SERVE_BIN
#error "AKADNS_SERVE_BIN must point at the akadns-serve binary"
#endif

namespace akadns::fleet {
namespace {

net::FdHandle connect_tcp(std::uint16_t port, int rcvbuf = 0) {
  net::FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (rcvbuf > 0) ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_storage dst{};
  const socklen_t len =
      net::sockaddr_from_endpoint(Endpoint{IpAddr(Ipv4Addr(127, 0, 0, 1)), port}, dst);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&dst), len) != 0) fd.reset();
  return fd;
}

bool accepts_connections(std::uint16_t port) { return connect_tcp(port).valid(); }

/// A TCP client that pipelines queries (www.ent0.example A) and never
/// reads the answers. The daemon answers until it holds more than one
/// frame of unsent output for the connection, then stops reading it.
/// Returns once /metrics counts that pause, so answers are owed, and stay
/// owed, before anything else runs.
net::FdHandle pipeline_unread_queries(const net::ReadyLine& ready) {
  static constexpr std::uint8_t kFramedQuery[] = {
      0x00, 0x22,                                      // frame length 34
      0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00,  // id, RD, qdcount 1
      0x00, 0x00, 0x00, 0x00,                          // an/ns/ar 0
      3, 'w', 'w', 'w', 4, 'e', 'n', 't', '0', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0,
      0x00, 0x01, 0x00, 0x01};  // A, IN
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 1024; ++i) {
    burst.insert(burst.end(), std::begin(kFramedQuery), std::end(kFramedQuery));
  }
  net::FdHandle fd = connect_tcp(ready.tcp_port, /*rcvbuf=*/4096);
  EXPECT_TRUE(fd.valid());
  const std::string url = "http://127.0.0.1:" + std::to_string(ready.stats_port) + "/metrics";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t off = 0;  // the stream stays frame-aligned: burst holds whole frames
  while (true) {
    obs::HttpResponse response;
    std::string error;
    if (obs::http_get(url, &response, &error) &&
        obs::Exposition::parse(response.body)
                .sum("akadns_frontend_total", obs::labels({{"event", "tcp_read_paused"}})) >= 1) {
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "the daemon never paused the unread connection";
      break;
    }
    // Keep the daemon's receive queue topped up without blocking.
    for (ssize_t n = 1; n > 0;) {
      n = ::send(fd.get(), burst.data() + off, burst.size() - off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) off = (off + static_cast<std::size_t>(n)) % burst.size();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fd;
}

SpawnSpec tiny_serve(const std::string& id) {
  SpawnSpec spec;
  spec.id = id;
  spec.binary = AKADNS_SERVE_BIN;
  spec.args = {"--synthetic", "5",  "--seed",       "3", "--workers", "1",
               "--port",      "0",  "--stats-port", "0"};
  return spec;
}

TEST(MachineProcess, HandshakeReportsEphemeralPortsAndExitsClean) {
  MachineProcess machine(tiny_serve("m0"));
  auto spawned = machine.spawn();
  ASSERT_TRUE(spawned) << spawned.error();
  ASSERT_TRUE(machine.wait_ready(15000)) << "no ready line within budget";

  ASSERT_TRUE(machine.ready().has_value());
  const net::ReadyLine& ready = *machine.ready();
  EXPECT_GT(ready.pid, 0);
  EXPECT_EQ(ready.pid, static_cast<std::int64_t>(machine.pid()));
  EXPECT_NE(ready.udp_port, 0);   // --port 0 resolved to a real bind
  EXPECT_NE(ready.tcp_port, 0);
  EXPECT_NE(ready.stats_port, 0);
  EXPECT_EQ(ready.zones, 5u);
  EXPECT_EQ(ready.workers, 1u);

  EXPECT_TRUE(machine.send_signal(SIGTERM));
  ASSERT_TRUE(machine.wait_exit(10000));
  EXPECT_EQ(machine.exit_code(), 0);
  EXPECT_EQ(machine.term_signal(), 0);
}

TEST(MachineProcess, SecondSigtermForcesImmediateExitCode3) {
  MachineProcess machine(tiny_serve("m0"));
  auto spawned = machine.spawn();
  ASSERT_TRUE(spawned) << spawned.error();
  ASSERT_TRUE(machine.wait_ready(15000));
  const net::ReadyLine ready = *machine.ready();

  // Idempotent-but-escalating: the first SIGTERM begins the drain, an
  // impatient second one must not be swallowed — it forces _exit(3).
  // A client that never reads its answers holds the drain open (its
  // paused connection keeps unsent output until the daemon's 5 s drain
  // deadline), and the second signal waits until the first is visibly
  // acted on: the drain's first step closes the stats port. Neither
  // signal can then land outside the drain.
  const net::FdHandle hog = pipeline_unread_queries(ready);
  EXPECT_TRUE(machine.send_signal(SIGTERM));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (accepts_connections(ready.stats_port)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "first SIGTERM never acted on";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(machine.send_signal(SIGTERM));
  ASSERT_TRUE(machine.wait_exit(10000));
  EXPECT_EQ(machine.exit_code(), 3);
}

TEST(MachineProcess, BadNumericFlagIsAUsageError) {
  // Strict flags: an out-of-range port or a non-number is exit 2, not a
  // daemon on the wrapped-around port or a worker with batch 0.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--port", "70000"}, {"--port", "5x"}, {"--batch", "abc"}}) {
    SpawnSpec spec;
    spec.id = "m0";
    spec.binary = AKADNS_SERVE_BIN;
    spec.args = args;
    MachineProcess machine(spec);
    ASSERT_TRUE(machine.spawn());
    ASSERT_TRUE(machine.wait_exit(10000)) << args[0] << " " << args[1];
    EXPECT_EQ(machine.exit_code(), 2) << args[0] << " " << args[1];
  }
}

TEST(MachineProcess, SigkillIsReportedAsSignalDeath) {
  MachineProcess machine(tiny_serve("m0"));
  auto spawned = machine.spawn();
  ASSERT_TRUE(spawned) << spawned.error();
  ASSERT_TRUE(machine.wait_ready(15000));

  EXPECT_TRUE(machine.send_signal(SIGKILL));
  ASSERT_TRUE(machine.wait_exit(10000));
  EXPECT_EQ(machine.exit_code(), -1);
  EXPECT_EQ(machine.term_signal(), SIGKILL);
  // The handshake survives into Exited: the supervisor logs the dead
  // machine's last known ports.
  EXPECT_TRUE(machine.ready().has_value());
}

TEST(Supervisor, RestartsAKilledMachineOnFreshPorts) {
  SupervisorConfig config;
  config.serve_binary = AKADNS_SERVE_BIN;
  config.machines = 2;
  config.common_args = {"--synthetic", "5", "--seed", "3", "--workers", "1",
                        "--stats-port", "0"};
  config.backoff_min_ms = 100;

  std::vector<Supervisor::Event> events;
  Supervisor supervisor(config, [&](const Supervisor::Event& event) {
    events.push_back(event);
  });
  auto started = supervisor.start();
  ASSERT_TRUE(started) << started.error();
  ASSERT_EQ(events.size(), 2u);  // both Up
  EXPECT_EQ(supervisor.up_count(), 2u);

  // Drill: kill machine 0 and poll until the supervisor brings it back.
  ASSERT_TRUE(supervisor.signal_machine(0, SIGKILL));
  bool restarted = false;
  for (int i = 0; i < 1500 && !restarted; ++i) {
    supervisor.poll();
    for (const auto& event : events) {
      if (event.kind == Supervisor::EventKind::Up && event.index == 0 &&
          event.restarts == 1) {
        restarted = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(restarted) << "machine 0 never came back";
  EXPECT_EQ(supervisor.restarts(0), 1u);
  EXPECT_EQ(supervisor.up_count(), 2u);

  // The Down event recorded the signal death; the replacement reported
  // a usable (almost certainly different) port in its fresh handshake.
  bool saw_down = false;
  for (const auto& event : events) {
    if (event.kind == Supervisor::EventKind::Down && event.index == 0) {
      saw_down = true;
      EXPECT_EQ(event.term_signal, SIGKILL);
    }
  }
  EXPECT_TRUE(saw_down);
  ASSERT_TRUE(supervisor.machine(0).ready().has_value());
  EXPECT_NE(supervisor.machine(0).ready()->udp_port, 0);

  // The cross-thread view agrees with the direct slot access.
  const auto views = supervisor.snapshot();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].id, "m0");
  EXPECT_EQ(views[0].state, MachineProcess::State::Ready);
  EXPECT_EQ(views[0].restarts, 1u);
  ASSERT_TRUE(views[0].ready.has_value());
  EXPECT_EQ(views[0].ready->udp_port, supervisor.machine(0).ready()->udp_port);

  supervisor.stop();
  EXPECT_EQ(supervisor.up_count(), 0u);
  for (std::size_t i = 0; i < supervisor.size(); ++i) {
    EXPECT_EQ(supervisor.machine(i).state(), MachineProcess::State::Exited);
    EXPECT_EQ(supervisor.machine(i).exit_code(), 0) << "machine " << i
                                                    << " did not drain cleanly";
  }
}

TEST(Supervisor, StartFailureNamesTheBrokenMachine) {
  SupervisorConfig config;
  config.serve_binary = "/nonexistent/akadns-serve";
  config.machines = 2;
  config.ready_timeout_ms = 2000;

  Supervisor supervisor(config, [](const Supervisor::Event&) {});
  auto started = supervisor.start();
  ASSERT_FALSE(started);
  EXPECT_NE(started.error().find("m0"), std::string::npos) << started.error();
}

}  // namespace
}  // namespace akadns::fleet
