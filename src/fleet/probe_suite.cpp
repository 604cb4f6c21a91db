#include "fleet/probe_suite.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "dns/message.hpp"
#include "dns/wire.hpp"
#include "net/server.hpp"
#include "net/stub_client.hpp"
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

/// Byte comparison, transaction id (bytes 0-1) excluded; the stub
/// client returns only a reply that echoes the id sent.
bool bytes_match(std::span<const std::uint8_t> got, const std::vector<std::uint8_t>& want) {
  return got.size() == want.size() && got.size() >= 2 &&
         std::equal(got.begin() + 2, got.end(), want.begin() + 2);
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
  const auto existing = [&] {
    return zones_.sample_valid_name(rng_.next_below(zone_count), rng_);
  };
  // One A query for `name`, with the reference responder's answer.
  const auto add = [&](const dns::DnsName& name, bool edns, bool over_tcp) {
    auto query = dns::make_query(0, name, dns::RecordType::A);
    if (edns) {
      query.edns.emplace();
      query.edns->udp_payload_size = 1232;
    }
    const auto wire = dns::encode(query);
    auto expected = reference_.respond_wire(wire, kProbeClient, SimTime::origin(),
                                            over_tcp ? dns::kMaxMessageSize : 0);
    if (expected) probes.push_back(ProbeQuery{wire, std::move(*expected), over_tcp});
  };

  // 1. Known answer: an existing name must come back byte-exact.
  add(existing(), false, false);
  // 2. NXDOMAIN: a random subdomain must be denied with the right SOA.
  add(zones_.random_subdomain(rng_.next_below(zone_count), rng_), false, false);
  // 3. EDNS: an OPT-bearing query must round-trip the negotiation.
  add(existing(), true, false);
  // 4. TCP (and the TC-retry pair when the zone set produces one).
  if (tc_udp_probe_ && tc_tcp_probe_) {
    probes.push_back(*tc_udp_probe_);
    probes.push_back(*tc_tcp_probe_);
  } else {
    add(existing(), false, true);
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

  // One deadline for the whole probe: connect, send and the reply.
  const std::string what = probe.over_tcp ? "tcp probe: " : "udp probe: ";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.timeout_ms);
  auto opened = net::StubClient::open(Endpoint{IpAddr(target.addr), target.dns_port},
                                      probe.over_tcp ? net::Transport::Tcp : net::Transport::Udp,
                                      deadline);
  if (!opened) {
    ++st.probe_failures;
    return what + opened.error();
  }
  const net::StubResult reply = opened.value().ask(wire, deadline);
  if (!reply) {
    ++st.probe_failures;
    return what + reply.error;
  }
  if (!bytes_match(reply.reply, probe.expected)) {
    ++st.byte_mismatches;
    return what + "byte mismatch";
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
  ++stats_.rounds;
  const std::uint64_t round = stats_.rounds.value();
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
