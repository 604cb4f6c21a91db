// akadns-loadgen: replay the synthetic workload at a running server.
//
//   akadns-loadgen --target 127.0.0.1:5300 --synthetic 1000 --seed 42
//                  --queries 100000 --sockets 4 --verify
//
// Builds the same deterministic corpus the server's --synthetic mode
// publishes, blasts it over UDP with sendmmsg/recvmmsg batching, and
// reports qps + latency percentiles. With --verify it also computes
// every expected answer through the local (simulator) Responder and
// byte-compares each received datagram — exit status is nonzero if
// anything dropped or mismatched, which is what the CI smoke keys on.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/flags.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "obs/stats_http.hpp"
#include "workload/population.hpp"
#include "workload/zones.hpp"

namespace {

constexpr const char* kEpilogue =
    "exit status without an attack mix: 0 iff nothing dropped, mismatched, or unexpected.\n"
    "With an attack mix the server is *supposed* to shed attack traffic, so the gate\n"
    "moves to the legitimate class: --defense on exits 0 iff legit goodput >= the floor\n"
    "and no legit response mismatched; --defense off is a baseline measurement and\n"
    "exits 0 whenever the run completed (counters still reported).\n";

/// What the loadgen reads beyond LoadgenConfig and ReplayMixConfig: the
/// server's mode, the exit gates, the flip drill and the report sinks.
struct LoadgenOptions {
  /// What the server is running, recorded in the report and selecting
  /// the exit policy under an attack mix (see main()).
  bool defense = false;
  double goodput_min = 0.9;
  /// Failover-drill gate: when set the run *expects* loss (a machine is
  /// killed or suspended mid-run) and passes iff the widest outage
  /// window stays under this and nothing legit mismatched.
  std::optional<std::int64_t> max_outage_ms;
  bool verify = false;
  /// Live-reload verification: the server was started with
  /// --flip-after-ms/--flip-count matching these — it will republish the
  /// first `flip_count` zones evolved by `flip_generations` mid-run, and
  /// we accept (and require) the new answers.
  std::size_t flip_count = 0;
  std::uint32_t flip_generations = 1;
  std::string json_path;
  /// Server /metrics endpoint (http://host:port). Scraped once after the
  /// run; shed/cache-hit-rate/zone-generation land in the bench JSON.
  std::string stats_url;
};

/// Server-side counters scraped from --stats-url after the run.
struct ServerScrape {
  bool ok = false;
  std::uint64_t shed = 0;         // akadns_defense_drops_total, all reasons
  double cache_hit_rate = 0.0;    // cache / (cache + compiled) fast-path split
  double zone_generation = 0.0;   // max akadns_zone_generation across workers
  std::uint64_t udp_packets = 0;  // datagrams the server's kernel delivered
};

std::string outages_json(const std::vector<akadns::net::OutageWindow>& windows) {
  std::string out = "[";
  char buf[160];
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"first_loss_ms\": %.3f, \"last_loss_ms\": %.3f,"
                  " \"width_ms\": %.3f, \"losses\": %llu}",
                  i == 0 ? "" : ", ", static_cast<double>(windows[i].start_ns) / 1e6,
                  static_cast<double>(windows[i].end_ns) / 1e6,
                  static_cast<double>(windows[i].width_ns()) / 1e6,
                  (unsigned long long)windows[i].losses);
    out += buf;
  }
  out += "]";
  return out;
}

std::string targets_json(const akadns::net::LoadgenReport& r) {
  std::string out = "  \"targets\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < r.targets.size(); ++i) {
    const auto& t = r.targets[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"target\": \"%s\", \"lanes\": %zu, \"sent\": %llu,"
                  " \"received\": %llu, \"dropped\": %llu, \"mismatched\": %llu,"
                  " \"widest_outage_ms\": %.3f, \"outages\": ",
                  t.target.to_string().c_str(), t.lanes, (unsigned long long)t.sent,
                  (unsigned long long)t.received, (unsigned long long)t.dropped,
                  (unsigned long long)t.mismatched,
                  static_cast<double>(t.widest_outage_ns) / 1e6);
    out += buf;
    out += outages_json(t.outages);
    out += i + 1 < r.targets.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";
  return out;
}

std::string class_json(const char* name, const akadns::net::ClassCounters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"sent\": %llu, \"received\": %llu, \"dropped\": %llu,"
                " \"mismatched\": %llu, \"goodput\": %.4f},\n",
                name, (unsigned long long)c.sent, (unsigned long long)c.received,
                (unsigned long long)c.dropped, (unsigned long long)c.mismatched,
                c.goodput());
  return buf;
}

ServerScrape scrape_stats(const std::string& url) {
  ServerScrape s;
  akadns::obs::HttpResponse rsp;
  std::string error;
  if (!akadns::obs::http_get(url + "/metrics", &rsp, &error) || rsp.status != 200) {
    if (error.empty()) error = "HTTP " + std::to_string(rsp.status);
    std::fprintf(stderr, "stats scrape failed (%s): %s\n", url.c_str(), error.c_str());
    return s;
  }
  try {
    const auto exp = akadns::obs::Exposition::parse(rsp.body);
    s.shed = akadns::obs::read_series<akadns::defense::DefenseLaneStats>(exp).drops.total();
    s.cache_hit_rate =
        akadns::obs::read_series<akadns::server::ResponderStats>(exp).cache_hit_rate();
    // Every worker reports its replica's generation; a healthy server
    // agrees across workers, so max == the served generation.
    s.zone_generation = exp.max("akadns_zone_generation");
    s.udp_packets = akadns::obs::read_series<akadns::net::FrontendStats>(exp).udp_packets;
    s.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stats scrape did not parse: %s\n", e.what());
  }
  return s;
}

std::string report_json(const akadns::net::LoadgenReport& r,
                        const akadns::net::LoadgenConfig& config,
                        const akadns::workload::ReplayMixConfig& mix,
                        const LoadgenOptions& opts, const ServerScrape& scrape) {
  char buf[1536];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"target\": \"%s\",\n"
                "  \"queries\": %llu,\n"
                "  \"sockets\": %zu,\n"
                "  \"defense\": \"%s\",\n"
                "  \"attack_fraction\": %.4f,\n"
                "  \"sent\": %llu,\n"
                "  \"received\": %llu,\n"
                "  \"dropped\": %llu,\n"
                "  \"mismatched\": %llu,\n"
                "  \"unexpected\": %llu,\n"
                "  \"retransmits\": %llu,\n"
                "  \"servfail\": %llu,\n",
                config.targets.back().to_string().c_str(),
                (unsigned long long)config.total_queries, config.sockets,
                opts.defense ? "on" : "off", mix.attack_fraction, (unsigned long long)r.sent,
                (unsigned long long)r.received, (unsigned long long)r.dropped,
                (unsigned long long)r.mismatched, (unsigned long long)r.unexpected,
                (unsigned long long)r.retransmits, (unsigned long long)r.servfail);
  std::string out = buf;
  out += class_json("legit", r.legit);
  out += class_json("attack", r.attack);
  out += targets_json(r);
  std::snprintf(buf, sizeof(buf), "  \"widest_outage_ms\": %.3f,\n  \"outages\": ",
                static_cast<double>(r.widest_outage_ns) / 1e6);
  out += buf;
  out += outages_json(r.outages);
  out += ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"flip\": {\"count\": %zu, \"generations\": %u, \"old_answers\": %llu,"
                " \"new_answers\": %llu, \"stale_old\": %llu, \"first_new_ms\": %.3f},\n",
                opts.flip_count, opts.flip_generations,
                (unsigned long long)r.flip.old_answers, (unsigned long long)r.flip.new_answers,
                (unsigned long long)r.flip.stale_old,
                r.flip.first_new_ns >= 0 ? static_cast<double>(r.flip.first_new_ns) / 1e6
                                         : -1.0);
  out += buf;
  if (scrape.ok) {
    std::snprintf(buf, sizeof(buf),
                  "  \"server\": {\"shed\": %llu, \"cache_hit_rate\": %.4f,"
                  " \"zone_generation\": %.0f, \"udp_packets\": %llu},\n",
                  (unsigned long long)scrape.shed, scrape.cache_hit_rate,
                  scrape.zone_generation, (unsigned long long)scrape.udp_packets);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  \"seconds\": %.4f,\n"
                "  \"qps\": %.0f,\n"
                "  \"p50_us\": %.1f,\n"
                "  \"p90_us\": %.1f,\n"
                "  \"p99_us\": %.1f,\n"
                "  \"p999_us\": %.1f,\n"
                "  \"max_us\": %.1f\n"
                "}\n",
                r.seconds, r.qps, r.p50_us, r.p90_us, r.p99_us, r.p999_us, r.max_us);
  out += buf;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions opts;
  akadns::workload::HostedZonesConfig zones_config;
  zones_config.zone_count = 1000;
  akadns::workload::ReplayMixConfig mix;
  akadns::net::LoadgenConfig config;
  config.targets = {akadns::Endpoint{akadns::IpAddr(akadns::Ipv4Addr(127, 0, 0, 1)), 5300}};

  double* const weights[] = {&mix.random_subdomain_weight, &mix.direct_query_weight,
                             &mix.spoofed_weight};
  char weights_text[64];
  std::snprintf(weights_text, sizeof(weights_text), "%g,%g,%g", *weights[0], *weights[1],
                *weights[2]);

  akadns::FlagTable flags("akadns-loadgen", "[options]", kEpilogue);
  flags
      .list("--target", "IP:PORT", config.targets,
            "server address; with several targets, client sockets round-robin across "
            "them and the report carries per-target accounting")
      .number("--synthetic", "N", zones_config.zone_count,
              "zone count matching the server's --synthetic")
      .number("--seed", "S", mix.seed, "seed matching the server's --seed")
      .number("--queries", "N", config.total_queries, "total queries to send")
      .number("--sockets", "N", config.sockets, "parallel client sockets/threads", 1, 1024)
      .number("--batch", "N", config.batch, "datagrams per syscall", 1, 1024)
      .number("--window", "N", config.window, "max in-flight per socket", 1)
      .number("--rate", "N", config.rate,
              "aggregate send-rate cap in qps (0 = unpaced); pace drills so traffic "
              "outlives the event under test",
              0.0)
      .number("--corpus", "N", mix.corpus_size, "distinct queries in the replay mix", 1)
      .number("--attack-mix", "F", mix.attack_fraction,
              "fraction of attack traffic mixed in, 0..1", 0.0, 1.0)
      .add({"--attack-weights", "R,D,S", "random-subdomain/direct/spoofed blend",
            weights_text,
            [weights](std::string_view text) {
              const auto parts = akadns::split(text, ',');
              for (std::size_t k = 0; k < 3; ++k) {
                const auto w = parts.size() == 3
                                   ? akadns::parse_number<double>(parts[k], 0.0)
                                   : std::nullopt;
                if (!w) return false;
                *weights[k] = *w;
              }
              return true;
            }})
      .on_off("--defense", opts.defense,
              "what the server runs (recorded; selects the exit policy)")
      .millis("--timeout-ms", "N", config.response_timeout, "per-query response timeout", 1)
      .number("--retries", "N", config.retries,
              "resend a timed-out query up to N times before counting it dropped (chaos "
              "drills over lossy paths set this; retransmits are reported separately)")
      .number("--goodput-min", "F", opts.goodput_min, "legit goodput floor for --defense on",
              0.0, 1.0)
      .number("--max-outage-ms", "N", opts.max_outage_ms,
              "failover-drill gate: tolerate query loss, but require the widest outage "
              "window (first lost send to last lost send, losses < --outage-gap-ms apart "
              "merged) <= N and zero byte mismatches",
              0)
      .millis("--outage-gap-ms", "N", config.outage_gap,
              "window-merge gap for outage classification")
      .set_true("--verify", opts.verify, "byte-compare responses against the local Responder")
      .number("--flip-count", "N", opts.flip_count,
              "server flips its first N zones mid-run (--flip-after-ms); with --verify, "
              "accept pre- and post-flip answers, require the flip to be observed, and "
              "reject stale-serial answers")
      .number("--flip-generations", "G", opts.flip_generations,
              "generations the server flips by")
      .value("--stats-url", "URL", opts.stats_url,
             "scrape the server's /metrics after the run (the akadns-serve --stats-port "
             "endpoint); embeds shed, cache hit rate, and zone generation in the JSON")
      .value("--json", "PATH", opts.json_path, "write the report as JSON");
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;

  // Rebuild the server's world from the same (count, seed) — self-play.
  std::fprintf(stderr, "building %zu synthetic zones (seed %llu)...\n",
               zones_config.zone_count, (unsigned long long)mix.seed);
  akadns::workload::HostedZones zones(zones_config, mix.seed);
  akadns::workload::PopulationConfig pc;
  pc.resolver_count = 10'000;
  akadns::workload::ResolverPopulation population(pc, mix.seed ^ 0xC0FFEEULL);
  akadns::workload::ReplayCorpus corpus(mix, population, zones);
  std::fprintf(stderr, "corpus ready: %zu entries (%zu attack)\n", corpus.size(),
               corpus.attack_count());

  std::vector<std::vector<std::uint8_t>> expected;
  if (opts.verify) {
    expected = akadns::net::expected_responses(corpus, zones.store());
    std::fprintf(stderr, "computed %zu expected responses\n", expected.size());
  }

  // Live-reload runs also need the post-flip reference: rebuild the world
  // the server's flip drill will publish — zone ranks [0, flip_count)
  // evolved by flip_generations, everything else untouched (evolved with
  // 0 generations is the identity) — and run the Responder over it.
  const bool flip_mode = opts.verify && opts.flip_count > 0;
  akadns::net::FlipReference flip;
  if (flip_mode) {
    akadns::zone::ZoneStore flipped;
    const std::size_t flips = std::min(opts.flip_count, zones.zone_count());
    for (std::size_t rank = 0; rank < zones.zone_count(); ++rank) {
      flipped.publish(zones.evolved(rank, rank < flips ? opts.flip_generations : 0));
    }
    flip = akadns::net::flip_reference(corpus, flipped);
    std::fprintf(stderr, "computed %zu post-flip expected responses (%zu zones evolved)\n",
                 flip.expected.size(), flips);
  }

  akadns::net::Loadgen loadgen(config, corpus, std::move(expected), std::move(flip));
  const auto report = loadgen.run();

  std::printf("sent        %llu\n", (unsigned long long)report.sent);
  std::printf("received    %llu\n", (unsigned long long)report.received);
  std::printf("dropped     %llu\n", (unsigned long long)report.dropped);
  std::printf("mismatched  %llu\n", (unsigned long long)report.mismatched);
  std::printf("unexpected  %llu\n", (unsigned long long)report.unexpected);
  if (report.retransmits > 0 || config.retries > 0) {
    std::printf("retransmits %llu\n", (unsigned long long)report.retransmits);
  }
  if (report.servfail > 0) {
    std::printf("servfail    %llu\n", (unsigned long long)report.servfail);
  }
  if (report.targets.size() > 1 || report.widest_outage_ns > 0) {
    for (const auto& t : report.targets) {
      std::printf("target      %s lanes=%zu sent=%llu received=%llu dropped=%llu"
                  " mismatched=%llu widest_outage_ms=%.1f\n",
                  t.target.to_string().c_str(), t.lanes, (unsigned long long)t.sent,
                  (unsigned long long)t.received, (unsigned long long)t.dropped,
                  (unsigned long long)t.mismatched,
                  static_cast<double>(t.widest_outage_ns) / 1e6);
    }
    for (const auto& w : report.outages) {
      std::printf("outage      first_loss_ms=%.1f last_loss_ms=%.1f width_ms=%.1f losses=%llu\n",
                  static_cast<double>(w.start_ns) / 1e6,
                  static_cast<double>(w.end_ns) / 1e6,
                  static_cast<double>(w.width_ns()) / 1e6,
                  (unsigned long long)w.losses);
    }
  }
  if (mix.attack_fraction > 0.0) {
    std::printf("legit       sent=%llu received=%llu dropped=%llu mismatched=%llu goodput=%.4f\n",
                (unsigned long long)report.legit.sent, (unsigned long long)report.legit.received,
                (unsigned long long)report.legit.dropped,
                (unsigned long long)report.legit.mismatched, report.legit.goodput());
    std::printf("attack      sent=%llu received=%llu dropped=%llu mismatched=%llu goodput=%.4f\n",
                (unsigned long long)report.attack.sent, (unsigned long long)report.attack.received,
                (unsigned long long)report.attack.dropped,
                (unsigned long long)report.attack.mismatched, report.attack.goodput());
  }
  if (opts.flip_count > 0 && opts.verify) {
    std::printf("flip        old=%llu new=%llu stale_old=%llu first_new_ms=%.1f\n",
                (unsigned long long)report.flip.old_answers,
                (unsigned long long)report.flip.new_answers,
                (unsigned long long)report.flip.stale_old,
                report.flip.first_new_ns >= 0
                    ? static_cast<double>(report.flip.first_new_ns) / 1e6
                    : -1.0);
  }
  std::printf("seconds     %.4f\n", report.seconds);
  std::printf("qps         %.0f\n", report.qps);
  std::printf("latency_us  p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f\n", report.p50_us,
              report.p90_us, report.p99_us, report.p999_us, report.max_us);

  ServerScrape scrape;
  if (!opts.stats_url.empty()) {
    scrape = scrape_stats(opts.stats_url);
    if (scrape.ok) {
      std::printf("server      shed=%llu cache_hit_rate=%.4f zone_generation=%.0f"
                  " udp_packets=%llu\n",
                  (unsigned long long)scrape.shed, scrape.cache_hit_rate,
                  scrape.zone_generation, (unsigned long long)scrape.udp_packets);
    }
  }

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << report_json(report, config, mix, opts, scrape);
    std::fprintf(stderr, "wrote %s\n", opts.json_path.c_str());
  }

  if (opts.max_outage_ms) {
    // Failover-drill gate: a machine was killed or suspended on purpose,
    // so dropped queries are expected — inside a bounded window. The run
    // passes iff service recovered fast enough (widest outage window
    // under the budget), answers kept arriving, and every answer that
    // did arrive carried the right bytes. Late answers for slots the
    // sweep already expired surface as `unexpected`; during a drill they
    // are re-steered duplicates, not errors, so they do not gate.
    const double widest_ms = static_cast<double>(report.widest_outage_ns) / 1e6;
    const bool ok = report.mismatched == 0 && report.received > 0 &&
                    widest_ms <= static_cast<double>(*opts.max_outage_ms);
    std::printf("drill gate: widest_outage_ms=%.1f (budget %lld), mismatched=%llu -> %s\n",
                widest_ms, (long long)*opts.max_outage_ms,
                (unsigned long long)report.mismatched, ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  if (mix.attack_fraction > 0.0) {
    // Under an attack mix shed attack traffic is the *intended* outcome,
    // so total-drop counts cannot gate. The property that matters is
    // collateral damage: did legitimate traffic keep flowing, unchanged?
    if (opts.defense) {
      bool ok = report.legit.goodput() >= opts.goodput_min &&
                report.legit.mismatched == 0 && report.legit.sent > 0;
      if (flip_mode) ok = ok && report.flip.stale_old == 0 && report.flip.new_answers > 0;
      std::printf("defense-on gate: legit goodput %.4f (floor %.2f), legit mismatches %llu -> %s\n",
                  report.legit.goodput(), opts.goodput_min,
                  (unsigned long long)report.legit.mismatched, ok ? "PASS" : "FAIL");
      return ok ? 0 : 1;
    }
    // Baseline (defense off): a measurement, not a gate.
    return report.sent > 0 ? 0 : 1;
  }
  bool ok = report.dropped == 0 && report.mismatched == 0 && report.unexpected == 0 &&
            report.servfail == 0;
  if (flip_mode) {
    // The live-reload gate: the flip must have been observed (the run
    // lasted past --flip-after-ms and new answers arrived) and no lane
    // may have seen a stale-serial answer after the new version.
    const bool flip_ok = report.flip.new_answers > 0 && report.flip.stale_old == 0;
    std::printf("flip gate: new_answers=%llu stale_old=%llu -> %s\n",
                (unsigned long long)report.flip.new_answers,
                (unsigned long long)report.flip.stale_old, flip_ok ? "PASS" : "FAIL");
    ok = ok && flip_ok;
  }
  return ok ? 0 : 1;
}
