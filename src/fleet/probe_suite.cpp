#include "fleet/probe_suite.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "dns/message.hpp"
#include "dns/wire.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/stats_http.hpp"

namespace akadns::fleet {

namespace {

/// The modelled client identity handed to the reference responder. The
/// live server sees our real ephemeral source instead; responses do not
/// depend on it (no mapping hook is installed on either side).
const Endpoint kProbeClient{IpAddr(Ipv4Addr(127, 0, 0, 1)), 40000};

/// Seeds the probe-name draws (and, mixed, the truncation-candidate scan).
constexpr std::uint64_t kProbeSeed = 0x9ea7;

server::ResponderConfig reference_config() {
  server::ResponderConfig config;
  config.enable_answer_cache = false;
  return config;
}

bool tc_bit(const std::vector<std::uint8_t>& wire) {
  return wire.size() > 2 && (wire[2] & 0x02) != 0;
}

/// Byte comparison, transaction id (bytes 0-1) excluded; the id echo is
/// checked separately against what was sent.
bool bytes_match(const std::uint8_t* got, std::size_t got_len,
                 const std::vector<std::uint8_t>& want) {
  return got_len == want.size() && got_len >= 2 &&
         std::memcmp(got + 2, want.data() + 2, got_len - 2) == 0;
}

}  // namespace

ProbeSuite::ProbeSuite(ProbeConfig config, const workload::HostedZones& zones,
                       TargetsFn targets_fn, SuspendFn suspend_fn)
    : config_(config),
      zones_(zones),
      reference_(zones.store(), reference_config()),
      targets_fn_(std::move(targets_fn)),
      suspend_fn_(std::move(suspend_fn)),
      coordinator_(config.quota),
      rng_(kProbeSeed) {
  find_truncation_candidate();
}

ProbeSuite::~ProbeSuite() { stop(); }

void ProbeSuite::find_truncation_candidate() {
  // Look for a name whose plain-UDP answer truncates (response > 512):
  // that probe proves the TC-retry path end to end — TC'd bytes over
  // UDP, full bytes over TCP. Small synthetic zones may not produce
  // one; the TCP probe then just replays a known answer over TCP.
  Rng scan_rng(kProbeSeed ^ 0x7c15);
  const std::size_t zone_count = zones_.zone_count();
  for (std::size_t i = 0; i < std::min<std::size_t>(zone_count * 4, 256); ++i) {
    const std::size_t rank = scan_rng.next_below(zone_count);
    const auto name = zones_.sample_valid_name(rank, scan_rng);
    const auto query = dns::make_query(0, name, dns::RecordType::A);
    const auto wire = dns::encode(query);
    auto udp = reference_.respond_wire(wire, kProbeClient);
    if (!udp || !tc_bit(*udp)) continue;
    auto tcp = reference_.respond_wire(wire, kProbeClient, SimTime::origin(),
                                       dns::kMaxMessageSize);
    if (!tcp) continue;
    tc_udp_probe_ = ProbeQuery{wire, std::move(*udp), false};
    tc_tcp_probe_ = ProbeQuery{wire, std::move(*tcp), true};
    return;
  }
}

std::vector<ProbeSuite::ProbeQuery> ProbeSuite::build_round_queries() {
  std::vector<ProbeQuery> probes;
  const std::size_t zone_count = zones_.zone_count();

  // 1. Known answer: an existing name must come back byte-exact.
  {
    const std::size_t rank = rng_.next_below(zone_count);
    const auto name = zones_.sample_valid_name(rank, rng_);
    const auto wire = dns::encode(dns::make_query(0, name, dns::RecordType::A));
    auto expected = reference_.respond_wire(wire, kProbeClient);
    if (expected) probes.push_back(ProbeQuery{wire, std::move(*expected), false});
  }
  // 2. NXDOMAIN: a random subdomain must be denied with the right SOA.
  {
    const std::size_t rank = rng_.next_below(zone_count);
    const auto name = zones_.random_subdomain(rank, rng_);
    const auto wire = dns::encode(dns::make_query(0, name, dns::RecordType::A));
    auto expected = reference_.respond_wire(wire, kProbeClient);
    if (expected) probes.push_back(ProbeQuery{wire, std::move(*expected), false});
  }
  // 3. EDNS: an OPT-bearing query must round-trip the negotiation.
  {
    const std::size_t rank = rng_.next_below(zone_count);
    const auto name = zones_.sample_valid_name(rank, rng_);
    auto query = dns::make_query(0, name, dns::RecordType::A);
    query.edns.emplace();
    query.edns->udp_payload_size = 1232;
    const auto wire = dns::encode(query);
    auto expected = reference_.respond_wire(wire, kProbeClient);
    if (expected) probes.push_back(ProbeQuery{wire, std::move(*expected), false});
  }
  // 4. TCP (and the TC-retry pair when the zone set produces one).
  if (tc_udp_probe_ && tc_tcp_probe_) {
    probes.push_back(*tc_udp_probe_);
    probes.push_back(*tc_tcp_probe_);
  } else {
    const std::size_t rank = rng_.next_below(zone_count);
    const auto name = zones_.sample_valid_name(rank, rng_);
    const auto wire = dns::encode(dns::make_query(0, name, dns::RecordType::A));
    auto expected = reference_.respond_wire(wire, kProbeClient, SimTime::origin(),
                                            dns::kMaxMessageSize);
    if (expected) probes.push_back(ProbeQuery{wire, std::move(*expected), true});
  }
  return probes;
}

std::optional<std::string> ProbeSuite::run_probe(const ProbeTarget& target,
                                                 const ProbeQuery& probe,
                                                 MachineProbeState& st) {
  ++st.probes_sent;
  std::vector<std::uint8_t> wire = probe.wire;
  const std::uint16_t id = next_id_++;
  if (next_id_ == 0) next_id_ = 1;
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id & 0xff);

  std::uint8_t rx[65536];
  std::size_t rx_len = 0;

  if (!probe.over_tcp) {
    auto opened = net::UdpSocket::open(Ipv4Addr(127, 0, 0, 1), 0);
    if (!opened) {
      ++st.probe_failures;
      return "udp open: " + opened.error();
    }
    net::UdpSocket sock = std::move(opened).take();
    sockaddr_storage sa{};
    const Endpoint ep{IpAddr(target.addr), target.dns_port};
    const socklen_t sa_len = net::sockaddr_from_endpoint(ep, sa);
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&sa), sa_len) != 0 ||
        ::send(sock.fd(), wire.data(), wire.size(), 0) < 0) {
      ++st.probe_failures;
      return net::errno_message("udp probe send");
    }
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, config_.timeout_ms) <= 0) {
      ++st.probe_failures;
      return "udp probe timeout";
    }
    const ssize_t n = ::recv(sock.fd(), rx, sizeof(rx), 0);
    if (n < 2) {
      ++st.probe_failures;
      return "udp probe recv failed";
    }
    rx_len = static_cast<std::size_t>(n);
  } else {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ++st.probe_failures;
      return net::errno_message("tcp socket");
    }
    net::FdHandle handle(fd);
    timeval tv{config_.timeout_ms / 1000, (config_.timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_storage sa{};
    const Endpoint ep{IpAddr(target.addr), target.dns_port};
    const socklen_t sa_len = net::sockaddr_from_endpoint(ep, sa);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sa_len) != 0) {
      ++st.probe_failures;
      return net::errno_message("tcp probe connect");
    }
    std::vector<std::uint8_t> framed;
    framed.reserve(wire.size() + 2);
    framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    framed.push_back(static_cast<std::uint8_t>(wire.size() & 0xff));
    framed.insert(framed.end(), wire.begin(), wire.end());
    if (::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(framed.size())) {
      ++st.probe_failures;
      return net::errno_message("tcp probe send");
    }
    std::uint8_t header[2];
    std::size_t got = 0;
    while (got < 2) {
      const ssize_t n = ::recv(fd, header + got, 2 - got, 0);
      if (n <= 0) {
        ++st.probe_failures;
        return "tcp probe: short frame header";
      }
      got += static_cast<std::size_t>(n);
    }
    const std::size_t frame_len = (static_cast<std::size_t>(header[0]) << 8) | header[1];
    if (frame_len < 2 || frame_len > sizeof(rx)) {
      ++st.probe_failures;
      return "tcp probe: bad frame length";
    }
    got = 0;
    while (got < frame_len) {
      const ssize_t n = ::recv(fd, rx + got, frame_len - got, 0);
      if (n <= 0) {
        ++st.probe_failures;
        return "tcp probe: short frame body";
      }
      got += static_cast<std::size_t>(n);
    }
    rx_len = frame_len;
  }

  const std::uint16_t rx_id = static_cast<std::uint16_t>((rx[0] << 8) | rx[1]);
  if (rx_id != id) {
    ++st.probe_failures;
    return "probe: transaction id mismatch";
  }
  if (!bytes_match(rx, rx_len, probe.expected)) {
    ++st.byte_mismatches;
    return probe.over_tcp ? "tcp probe: byte mismatch" : "udp probe: byte mismatch";
  }
  return std::nullopt;
}

void ProbeSuite::advisory_scrape(const ProbeTarget& target, MachineProbeState& st) {
  ++st.advisory_scrapes;
  obs::HttpResponse rsp;
  std::string error;
  const std::string url =
      "http://127.0.0.1:" + std::to_string(target.stats_port) + "/metrics";
  if (!obs::http_get(url, &rsp, &error, config_.timeout_ms) || rsp.status != 200) {
    ++st.advisory_anomalies;  // unreachable exporter IS the anomaly
    return;
  }
  try {
    const auto frontend =
        obs::read_series<net::FrontendStats>(obs::Exposition::parse(rsp.body));
    if (frontend.udp_send_failures > 0 || frontend.tcp_protocol_errors > 0) {
      ++st.advisory_anomalies;
    }
  } catch (const std::exception&) {
    ++st.advisory_anomalies;
  }
  // Advisory means advisory: no suspension edge exists on this path —
  // the counters above feed the fleet report and nothing else.
}

void ProbeSuite::run_round() {
  const auto targets = targets_fn_ ? targets_fn_() : std::vector<ProbeTarget>{};
  const std::uint64_t round = rounds_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const bool scrape_round = config_.advisory_every > 0 &&
                            round % static_cast<std::uint64_t>(config_.advisory_every) == 0;
  const auto probes = build_round_queries();

  // Phase 1 (locked, no IO): reconcile the quota fleet with process
  // liveness. A dead machine is the supervisor's domain — it returns
  // its suspension grant and leaves the fleet entirely, because the
  // min_serving floor must count only machines that could actually
  // serve (suspension_policy.hpp: "callers that know about crashed
  // machines shrink the fleet first"). It re-registers on recovery. No
  // restore notification for the dead: there is nothing to signal.
  std::vector<bool> injected(targets.size(), false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const ProbeTarget& target = targets[i];
      MachineProbeState& st = states_[target.id];
      st.id = target.id;
      if (!target.alive) {
        st.suspended = false;  // the grant dies with the registration
        st.consecutive_failures = 0;
        st.consecutive_ok = 0;
        coordinator_.unregister_machine(target.id);
        continue;
      }
      coordinator_.register_machine(target.id);
      const auto it = injected_failures_.find(target.id);
      injected[i] = it != injected_failures_.end() && it->second;
    }
  }

  // Phase 2 (unlocked): the blocking probe + scrape IO. Counters land
  // in a per-target scratch state so readers (the /metrics gauge, the
  // shutdown report) never wait out a probe timeout on mu_.
  struct Outcome {
    bool probed = false;
    bool failed = false;
    std::string last_error;
    MachineProbeState delta;  // counter increments only
  };
  std::vector<Outcome> outcomes(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const ProbeTarget& target = targets[i];
    if (!target.alive) continue;
    Outcome& out = outcomes[i];
    out.probed = true;
    if (injected[i]) {
      out.failed = true;
      out.last_error = "injected failure (drill)";
    } else {
      for (const auto& probe : probes) {
        if (auto err = run_probe(target, probe, out.delta)) {
          out.failed = true;
          out.last_error = *err;
          break;
        }
      }
    }
    if (scrape_round && target.stats_port != 0) {
      advisory_scrape(target, out.delta);
    }
  }

  // Phase 3 (locked, no IO): fold the outcomes into the per-machine
  // state and make the suspension/restore decisions.
  struct Decision {
    std::string id;
    bool suspend = false;  // which edge to notify
  };
  std::vector<Decision> decisions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Outcome& out = outcomes[i];
      if (!out.probed) continue;
      MachineProbeState& st = states_[targets[i].id];
      st.probes_sent += out.delta.probes_sent;
      st.probe_failures += out.delta.probe_failures;
      st.byte_mismatches += out.delta.byte_mismatches;
      st.advisory_scrapes += out.delta.advisory_scrapes;
      st.advisory_anomalies += out.delta.advisory_anomalies;
      if (!out.last_error.empty()) st.last_error = out.last_error;

      ++st.rounds;
      if (out.failed) {
        ++st.failed_rounds;
        st.consecutive_ok = 0;
        ++st.consecutive_failures;
      } else {
        st.consecutive_failures = 0;
        ++st.consecutive_ok;
      }

      if (!st.suspended && st.consecutive_failures >= config_.fail_threshold) {
        // The ONLY suspension edge in the fleet: end-to-end probe
        // failure, gated by the PoP quota. Denied means serve on,
        // degraded.
        if (coordinator_.request_suspension(targets[i].id)) {
          st.suspended = true;
          ++st.suspensions;
          decisions.push_back(Decision{targets[i].id, true});
        } else {
          ++st.denied_suspensions;
        }
      } else if (st.suspended && !out.failed && st.consecutive_ok >= config_.ok_threshold) {
        coordinator_.release(targets[i].id);
        st.suspended = false;
        ++st.restores;
        decisions.push_back(Decision{targets[i].id, false});
      }
    }
  }

  // Notifications run unlocked: the callback pokes the front and sends
  // signals, and may want to read our state.
  for (const auto& d : decisions) {
    if (suspend_fn_) suspend_fn_(d.id, d.suspend);
  }
}

void ProbeSuite::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      run_round();
      const int sleep_ms = config_.interval_ms;
      for (int waited = 0; waited < sleep_ms && running_.load(std::memory_order_acquire);
           waited += 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  });
}

void ProbeSuite::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
}

void ProbeSuite::inject_failure(const std::string& id, bool failing) {
  std::lock_guard<std::mutex> lock(mu_);
  injected_failures_[id] = failing;
}

std::vector<MachineProbeState> ProbeSuite::states() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineProbeState> out;
  out.reserve(states_.size());
  for (const auto& [id, st] : states_) out.push_back(st);
  return out;
}

std::optional<MachineProbeState> ProbeSuite::state_of(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = states_.find(id);
  if (it == states_.end()) return std::nullopt;
  return it->second;
}

ProbeQuotaView ProbeSuite::quota_view() const {
  std::lock_guard<std::mutex> lock(mu_);
  ProbeQuotaView v;
  v.fleet_size = coordinator_.fleet_size();
  v.suspended = coordinator_.suspended_count();
  v.quota = coordinator_.quota();
  v.denied = coordinator_.denied_requests();
  return v;
}

}  // namespace akadns::fleet
