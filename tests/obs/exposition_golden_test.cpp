// Golden /metrics surfaces: the HELP and TYPE lines, family names and
// label sets that four registries expose, with every sample value
// masked. Dashboards and the benchmark read series by name, so a rename,
// a lost label value or a changed help text must fail here first.
//
// The surfaces:
//   serve_workers.prom  a 2-worker net::Server with defense on
//   serve_control.prom  akadns-serve's control registry: the publisher
//                       and the secondary sync under their subsystems
//   sim_machine.prom    a 2-lane pop::Machine that owns a zone replica
//   anycast_front.prom  an AnycastFront as akadns-chaos registers it
//
// Set AKADNS_WRITE_GOLDEN=1 to rewrite the files from the current tree.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/clock.hpp"
#include "fleet/anycast_front.hpp"
#include "net/server.hpp"
#include "net/zone_sync.hpp"
#include "obs/exposition.hpp"
#include "pop/machine.hpp"
#include "propagation/zone_publisher.hpp"
#include "zone/zone_builder.hpp"

namespace akadns::obs {
namespace {

/// The exposition with each sample line cut before its value.
std::string masked(const MetricsSnapshot& snap) {
  std::istringstream in(render_prometheus(snap));
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] != '#') line = line.substr(0, line.rfind(' '));
    out += line;
    out.push_back('\n');
  }
  return out;
}

void expect_golden(const std::string& file, const MetricsSnapshot& snap) {
  const std::string path = std::string(AKADNS_OBS_GOLDEN_DIR) + "/" + file;
  const std::string actual = masked(snap);
  if (std::getenv("AKADNS_WRITE_GOLDEN")) {
    std::ofstream(path) << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str()) << "the /metrics surface moved; see " << path;
}

TEST(ExpositionGolden, TwoWorkerServerWithDefense) {
  zone::ZoneStore store;
  store.publish(zone::ZoneBuilder("example.com", 1)
                    .ns("@", "ns1.example.com")
                    .a("ns1", "10.0.0.1")
                    .build());
  net::ServeConfig config;
  config.workers = 2;
  config.defense.enabled = true;
  net::Server server(config, store);
  ASSERT_TRUE(server.start());
  const MetricsSnapshot snap = server.metrics_snapshot();
  server.stop();
  expect_golden("serve_workers.prom", snap);
}

TEST(ExpositionGolden, ServeControlRegistry) {
  const MonotonicClock clock;
  propagation::ZonePublisher publisher(clock);
  net::SecondarySync secondary(net::SecondaryConfig{}, publisher);
  MetricRegistry reg;
  publisher.register_metrics(reg, labels({{"subsystem", "publisher"}}));
  secondary.register_metrics(reg, labels({{"subsystem", "secondary"}}));
  expect_golden("serve_control.prom", reg.snapshot());
}

TEST(ExpositionGolden, TwoLaneSimMachineWithReplica) {
  pop::MachineConfig config;
  config.nameserver.lanes = 2;
  const pop::Machine machine(config);
  ASSERT_NE(machine.zone_sync_stats(), nullptr);
  MetricRegistry reg;
  machine.register_metrics(reg, with({}, "machine", 0));
  expect_golden("sim_machine.prom", reg.snapshot());
}

TEST(ExpositionGolden, AnycastFront) {
  const fleet::AnycastFront front(fleet::FrontConfig{});
  MetricRegistry reg;
  front.register_metrics(reg, labels({{"subsystem", "chaos"}}));
  expect_golden("anycast_front.prom", reg.snapshot());
}

}  // namespace
}  // namespace akadns::obs
