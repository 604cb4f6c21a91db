// Real-process supervision: fork/exec the actual akadns-serve binary
// (path injected at compile time), handshake via the ready line, kill
// it, and watch the supervisor repopulate the PoP. This is the one test
// layer where the subject is a process, not a class.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

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

#if !defined(AKADNS_SERVE_BIN) || !defined(AKADNS_LOADGEN_BIN) || \
    !defined(AKADNS_FLEET_BIN) || !defined(AKADNS_CHAOS_BIN)
#error "AKADNS_{SERVE,LOADGEN,FLEET,CHAOS}_BIN must point at the four binaries"
#endif

extern char** environ;

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

/// One finished run of a binary: its exit code and what it printed.
struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

/// Runs `binary args...` to completion (SIGKILLed after 20 s), capturing
/// stdout and stderr separately.
CliRun run_cli(const std::string& binary, const std::vector<std::string>& args) {
  CliRun run;
  int out_pipe[2];
  int err_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0 || ::pipe2(err_pipe, O_CLOEXEC) != 0) return run;
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  ::posix_spawn_file_actions_adddup2(&actions, err_pipe[1], STDERR_FILENO);
  std::vector<char*> argv{const_cast<char*>(binary.c_str())};
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  pollfd fds[2] = {{out_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  std::string* sinks[2] = {&run.out, &run.err};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (spawned == 0 && (fds[0].fd >= 0 || fds[1].fd >= 0)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << binary << " still running after 20 s";
      ::kill(pid, SIGKILL);
      break;
    }
    if (::poll(fds, 2, 100) <= 0) continue;
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
      if (n > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(n));
      } else {
        fds[i].fd = -1;
      }
    }
  }
  ::close(out_pipe[0]);
  ::close(err_pipe[0]);
  int status = 0;
  if (spawned == 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  return run;
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
       {std::vector<std::string>{"--port", "70000"},
        {"--port", "5x"},
        {"--batch", "abc"},
        // Compute metering without the defense queues it meters.
        {"--synthetic", "5", "--port", "0", "--compute-qps", "5000"}}) {
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

TEST(MachineProcess, EveryBinaryPrintsHelpAndRejectsBadFlagsBeforeWork) {
  struct Binary {
    std::string path;
    std::vector<std::string> flags;  // the whole flag surface
    std::vector<std::string> out_of_range;
  };
  const Binary binaries[] = {
      {AKADNS_SERVE_BIN,
       {"--zone", "--synthetic", "--seed", "--addr", "--port", "--workers", "--batch",
        "--edns-max", "--notify", "--secondary-of", "--track-apex", "--refresh-ms",
        "--stale-after-ms", "--expire-after-ms", "--flip-after-ms", "--flip-count",
        "--defense", "--compute-qps", "--qod-drop", "--nxdomain-threshold",
        "--nxdomain-penalty", "--stats-port"},
       {"--port", "70000"}},
      {AKADNS_LOADGEN_BIN,
       {"--target", "--synthetic", "--seed", "--queries", "--sockets", "--batch", "--window",
        "--rate", "--corpus", "--attack-mix", "--attack-weights", "--defense", "--timeout-ms",
        "--retries", "--goodput-min", "--max-outage-ms", "--outage-gap-ms", "--verify",
        "--flip-count", "--flip-generations", "--stats-url", "--json"},
       {"--sockets", "0"}},
      {AKADNS_FLEET_BIN,
       {"--machines", "--synthetic", "--seed", "--workers", "--defense", "--port",
        "--machine-port-base", "--stats-port", "--serve-bin", "--run-ms", "--kill-after-ms",
        "--kill-machine", "--suspend-after-ms", "--suspend-machine", "--restore-after-ms",
        "--probe-interval-ms", "--probe-timeout-ms", "--fail-threshold", "--quota-fraction",
        "--min-serving", "--report", "--chaos-plan", "--chaos-seed"},
       {"--machines", "65"}},
      {AKADNS_CHAOS_BIN,
       {"--upstream", "--listen", "--addr", "--plan", "--fault", "--seed", "--stats-port"},
       {"--listen", "70000"}},
  };
  EXPECT_EQ(binaries[0].flags.size(), 22u);
  EXPECT_EQ(binaries[1].flags.size(), 22u);
  EXPECT_EQ(binaries[2].flags.size(), 23u);
  EXPECT_EQ(binaries[3].flags.size(), 7u);
  for (const Binary& binary : binaries) {
    const CliRun help = run_cli(binary.path, {"--help"});
    EXPECT_EQ(help.exit_code, 0) << binary.path;
    for (const std::string& flag : binary.flags) {
      EXPECT_NE(help.out.find("\n  " + flag + " "), std::string::npos)
          << binary.path << " --help lacks " << flag << ":\n" << help.out;
    }
    for (const std::vector<std::string>& args :
         {std::vector<std::string>{"--no-such-flag"}, {"--seed"}, binary.out_of_range}) {
      const CliRun run = run_cli(binary.path, args);
      EXPECT_EQ(run.exit_code, 2) << binary.path << " " << args[0];
      EXPECT_FALSE(run.err.empty()) << binary.path << " " << args[0];
    }
  }
  // The alias is the one name the loadgen keeps for its attack mix.
  EXPECT_EQ(run_cli(AKADNS_LOADGEN_BIN, {"--attack-fraction", "0.5"}).exit_code, 2);

  // Values are checked as they are read, before the daemon builds a zone.
  for (const std::vector<std::string>& bad : {
           std::vector<std::string>{"--qod-drop", "a..b"},
           {"--secondary-of", "127.0.0.1:99999"},
           {"--secondary-of", "127.0.0.1:5300", "--track-apex", "a..b"},
       }) {
    std::vector<std::string> args = {"--synthetic", "1000", "--port", "0"};
    args.insert(args.end(), bad.begin(), bad.end());
    const CliRun run = run_cli(AKADNS_SERVE_BIN, args);
    EXPECT_EQ(run.exit_code, 2) << bad.back();
    EXPECT_EQ(run.err.find("synthetic zones"), std::string::npos) << bad.back() << ":\n"
                                                                 << run.err;
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
