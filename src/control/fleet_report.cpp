#include "control/fleet_report.hpp"

#include <cstdio>

namespace akadns::control {

namespace {

void append_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string render_fleet_report(const FleetReport& report) {
  std::string out;
  char buf[768];
  std::snprintf(buf, sizeof(buf), "{\n  \"uptime_seconds\": %.3f,\n  \"machines\": [\n",
                report.uptime_seconds);
  out += buf;
  for (std::size_t i = 0; i < report.machines.size(); ++i) {
    const auto& m = report.machines[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"id\": \"%s\", \"pid\": %lld, \"up\": %s, \"suspended\": %s,"
        " \"udp_port\": %u, \"stats_port\": %u, \"restarts\": %llu,"
        " \"probe_rounds\": %llu, \"probe_failed_rounds\": %llu,"
        " \"byte_mismatches\": %llu, \"suspensions\": %llu,"
        " \"denied_suspensions\": %llu, \"restores\": %llu,"
        " \"advisory_scrapes\": %llu, \"advisory_anomalies\": %llu}%s\n",
        m.id.c_str(), static_cast<long long>(m.pid), m.up ? "true" : "false",
        m.suspended ? "true" : "false", m.udp_port, m.stats_port,
        (unsigned long long)m.restarts, (unsigned long long)m.probe_rounds,
        (unsigned long long)m.probe_failed_rounds, (unsigned long long)m.byte_mismatches,
        (unsigned long long)m.suspensions, (unsigned long long)m.denied_suspensions,
        (unsigned long long)m.restores, (unsigned long long)m.advisory_scrapes,
        (unsigned long long)m.advisory_anomalies, i + 1 < report.machines.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"front\": {\"port\": %u, \"live_flows\": %llu, \"flows_created\": %llu,"
                " \"flows_moved\": %llu, \"udp_client_datagrams\": %llu,"
                " \"udp_upstream_answers\": %llu, \"udp_no_member_drops\": %llu,"
                " \"tcp_connections\": %llu},\n",
                report.front.port, (unsigned long long)report.front.live_flows,
                (unsigned long long)report.front.flows_created,
                (unsigned long long)report.front.flows_moved,
                (unsigned long long)report.front.udp_client_datagrams,
                (unsigned long long)report.front.udp_upstream_answers,
                (unsigned long long)report.front.udp_no_member_drops,
                (unsigned long long)report.front.tcp_connections);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"quota\": {\"fleet_size\": %zu, \"suspended\": %zu, \"quota\": %zu,"
                " \"denied\": %llu},\n",
                report.quota.fleet_size, report.quota.suspended, report.quota.quota,
                (unsigned long long)report.quota.denied);
  out += buf;
  out += "  \"reconverge\": [\n";
  for (std::size_t i = 0; i < report.reconverge.size(); ++i) {
    const auto& r = report.reconverge[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"member\": \"%s\", \"withdrawal\": %s, \"flows_moved\": %llu,"
                  " \"remap_us\": %lld, \"first_answer_us\": %lld}%s\n",
                  r.member.c_str(), r.withdrawal ? "true" : "false",
                  (unsigned long long)r.flows_moved, static_cast<long long>(r.remap_us),
                  static_cast<long long>(r.first_answer_us),
                  i + 1 < report.reconverge.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"events\": [\n";
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    out += "    \"";
    append_escaped(out, report.events[i]);
    out += i + 1 < report.events.size() ? "\",\n" : "\"\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace akadns::control
