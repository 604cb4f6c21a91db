#include "pop/monitoring_agent.hpp"

namespace akadns::pop {

MonitoringAgent::MonitoringAgent(Machine& machine, const zone::ZoneStore& store,
                                 SuspensionCoordinator& coordinator,
                                 EventScheduler& scheduler, MonitoringConfig config)
    : machine_(machine),
      store_(store),
      coordinator_(coordinator),
      scheduler_(scheduler),
      config_(std::move(config)) {
  coordinator_.register_machine(machine_.id());
  machine_.register_metrics(registry_, {});
  prev_window_ = sample_window();
  last_sync_progress_ = scheduler_.now();
}

MonitoringAgent::~MonitoringAgent() {
  stop();
  coordinator_.unregister_machine(machine_.id());
}

void MonitoringAgent::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void MonitoringAgent::stop() {
  running_ = false;
  if (pending_event_ != 0) {
    scheduler_.cancel(pending_event_);
    pending_event_ = 0;
  }
}

void MonitoringAgent::schedule_next() {
  if (!running_) return;
  pending_event_ = scheduler_.schedule_after(config_.check_interval, [this] {
    pending_event_ = 0;
    check_now();
    schedule_next();
  });
}

MonitoringAgent::Window MonitoringAgent::sample_window() const {
  const auto snap = registry_.snapshot();
  const auto ns = obs::read_series<server::NameserverStats>(snap);
  const auto responder = obs::read_series<server::ResponderStats>(snap);
  Window w;
  w.packets = ns.packets_received;
  w.drops = ns.drops.total() +
            obs::read_series<defense::DefenseLaneStats>(snap).drops.total();
  w.responses = responder.responses;
  w.nxdomain = responder.nxdomain;
  w.sync_updates = obs::read_series<propagation::ZoneSyncStats>(snap).updates;
  return w;
}

void MonitoringAgent::derive_anomalies(SimTime now) {
  const Window cur = sample_window();
  const std::uint64_t responses = cur.responses - prev_window_.responses;
  const std::uint64_t nxdomain = cur.nxdomain - prev_window_.nxdomain;
  const std::uint64_t packets = cur.packets - prev_window_.packets;
  const std::uint64_t drops = cur.drops - prev_window_.drops;

  AnomalySignals sig;
  sig.nxdomain_rate =
      responses ? static_cast<double>(nxdomain) / static_cast<double>(responses) : 0.0;
  sig.nxdomain_spike = responses >= config_.min_window_responses &&
                       sig.nxdomain_rate >= config_.nxdomain_rate_threshold;
  sig.drop_rate = packets ? static_cast<double>(drops) / static_cast<double>(packets) : 0.0;
  sig.drop_spike =
      packets >= config_.min_window_packets && sig.drop_rate >= config_.drop_rate_threshold;
  // Every apply counts an update, so the update count moves whenever
  // the replica's sync does.
  const bool has_sync = machine_.zone_sync_stats() != nullptr;
  if (cur.sync_updates != prev_window_.sync_updates) last_sync_progress_ = now;
  sig.zone_sync_age = has_sync ? now - last_sync_progress_ : Duration::zero();
  sig.stale_zone = has_sync && sig.zone_sync_age > config_.stale_zone_age;

  if (sig.nxdomain_spike) ++stats_.nxdomain_spikes;
  if (sig.drop_spike) ++stats_.drop_spikes;
  if (sig.stale_zone) ++stats_.stale_zone_flags;
  anomalies_ = sig;
  prev_window_ = cur;
}

std::string MonitoringAgent::run_test_suite(SimTime now) {
  // Staleness check (§4.2.2): "declare state stale if a critical input's
  // timestamp is older than a threshold".
  if (machine_.nameserver().is_stale(now)) return "stale metadata";

  // A DNS query per hosted zone: the apex SOA must answer NOERROR.
  for (const auto& apex : store_.zone_apexes()) {
    const dns::Question probe{apex, dns::RecordType::SOA, dns::RecordClass::IN};
    const auto rcode = machine_.probe(probe, now);
    if (!rcode) return "no response for zone " + apex.to_string();
    if (*rcode != dns::Rcode::NoError) {
      return "incorrect response for zone " + apex.to_string() + ": " +
             dns::to_string(*rcode);
    }
  }
  // Regression tests for known failure cases.
  for (const auto& question : config_.regression_tests) {
    const auto rcode = machine_.probe(question, now);
    if (!rcode) return "no response for regression test " + question.to_string();
    if (*rcode == dns::Rcode::ServFail) {
      return "SERVFAIL for regression test " + question.to_string();
    }
  }
  return {};
}

bool MonitoringAgent::check_now() {
  const SimTime now = scheduler_.now();
  ++stats_.checks;

  // Passive signals first, from the same registry a live scrape reads:
  // the probe suite below adds its own responses to the counters, so the
  // window closes before the probes run.
  derive_anomalies(now);

  // Crash handling first: restart the nameserver. The QoD firewall rule
  // (installed by the trap at crash time) shields the restarted process.
  if (machine_.nameserver().state() == server::ServerState::Crashed) {
    ++stats_.restarts;
    machine_.nameserver().restart(now);
  }

  const std::string failure = run_test_suite(now);
  if (failure.empty()) {
    if (holding_suspension_) {
      // Healthy again: resume serving and return the quota slot.
      ++stats_.recoveries;
      machine_.nameserver().resume();
      machine_.speaker().readvertise_all();
      coordinator_.release(machine_.id());
      holding_suspension_ = false;
    }
    return true;
  }

  ++stats_.failures_detected;
  if (holding_suspension_) return false;  // already suspended
  if (coordinator_.request_suspension(machine_.id())) {
    ++stats_.suspensions;
    holding_suspension_ = true;
    machine_.nameserver().self_suspend();
    machine_.speaker().withdraw_all();
  } else {
    // Quota exhausted: keep serving in a degraded state — "continue to
    // operate in a degraded state as the alternative is not operating
    // at all" (§4.2.1 / concluding principle iii).
    ++stats_.suspension_denied;
  }
  return false;
}

}  // namespace akadns::pop
