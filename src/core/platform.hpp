// The assembled Akamai DNS platform (Figure 5) at laptop scale: a
// simulated Internet (netsim), PoPs with machines / monitoring agents /
// BGP speakers (pop), the metadata pipeline (control), mapping
// intelligence (twotier), and the authoritative nameserver software
// (server) — all driven by one deterministic event scheduler.
//
// The data plane carries real DNS wire bytes: clients frame a query
// with their endpoint and IP TTL, anycast routing delivers it to the
// catchment PoP, ECMP picks a machine, the nameserver scores/queues/
// answers it, and the response travels back unicast to the client node.
#pragma once

#include <memory>
#include <unordered_map>

#include "common/worker_pool.hpp"
#include "control/machine_subscriber.hpp"
#include "core/delegation_sets.hpp"
#include "netsim/topology.hpp"
#include "pop/monitoring_agent.hpp"
#include "pop/pop.hpp"
#include "twotier/mapping.hpp"

namespace akadns::core {

struct PlatformConfig {
  netsim::NetworkConfig network{};
  netsim::TopologyConfig topology{};
  control::ControlPlane::Config control{};
  pop::SuspensionCoordinator::Config suspension{};
  std::uint64_t seed = 42;
  /// Client-side query timeout.
  Duration query_timeout = Duration::seconds(2);
  /// Scheduling latency between packet arrival and nameserver processing.
  Duration process_latency = Duration::micros(200);
  /// Re-pump interval while queries remain queued (compute backlog).
  Duration pump_interval = Duration::millis(1);
  /// Datapath lanes per machine (configuration: results depend on it).
  std::size_t machine_lanes = 1;
  /// Worker threads draining the lanes at each pump (execution: results
  /// are bit-identical for any value; >1 enables the parallel drain).
  std::size_t worker_threads = 1;
};

class Platform {
 public:
  using ResponseCallback =
      std::function<void(std::optional<dns::Message> response, Duration elapsed)>;

  explicit Platform(PlatformConfig config);

  // ---- accessors ----------------------------------------------------------

  EventScheduler& scheduler() noexcept { return scheduler_; }
  netsim::Network& network() noexcept { return network_; }
  const netsim::Topology& topology() const noexcept { return topology_; }
  control::ControlPlane& control() noexcept { return control_; }
  /// The platform's propagation pipeline: host_zone() publishes through
  /// it, so its journal/compile/publish stats describe the whole fleet.
  propagation::ZonePublisher& zone_publisher() noexcept { return zone_publisher_; }
  pop::SuspensionCoordinator& coordinator() noexcept { return coordinator_; }
  twotier::MappingSystem& mapping() noexcept { return mapping_; }

  std::size_t pop_count() const noexcept { return pops_.size(); }
  pop::Pop& pop_at(std::size_t i) { return *pops_.at(i); }
  /// The PoP whose router is `node`, or nullptr.
  pop::Pop* pop_by_router(netsim::NodeId node);

  // ---- build --------------------------------------------------------------

  /// Builds the Internet topology (call once, before adding PoPs).
  void build_internet();

  /// Which zones a PoP's machines serve; null = all hosted zones.
  using ZoneFilter = std::function<bool(const dns::DnsName& apex)>;

  /// Creates a PoP at an edge node with `machine_count` regular machines
  /// (plus one input-delayed machine when requested), all advertising
  /// the given clouds and subscribed to the hosted zones selected by
  /// `zone_filter` plus mapping updates. Monitoring agents are created
  /// and started.
  pop::Pop& add_pop(netsim::NodeId edge_node, std::size_t machine_count,
                    const std::vector<netsim::PrefixId>& clouds,
                    bool include_input_delayed = false, ZoneFilter zone_filter = nullptr);

  /// Publishes a zone through the Management Portal path (validated,
  /// then delivered to every machine via the control plane).
  void host_zone(zone::Zone zone);

  /// Registers a domain whose answers come from Mapping Intelligence
  /// (GTM/CDN hostnames): queries for names under `suffix` are answered
  /// with the `answer_count` best edge sites for the client.
  void register_dynamic_domain(const dns::DnsName& suffix, std::size_t answer_count = 2);

  /// Starts the periodic mapping-intelligence publication (keeps
  /// machines' metadata fresh, §4.2.2).
  void start_mapping_heartbeat(Duration interval);

  /// Installs the §4.3.4 scoring pipeline (rate-limit + NXDOMAIN filter,
  /// each bound to the machine's own zone-store replica) on every
  /// machine created so far. Call after add_pop().
  struct FilterDefaults {
    double rate_limit_default_qps = 200.0;
    double rate_limit_penalty = 60.0;
    double nxdomain_penalty = 150.0;
    std::uint64_t nxdomain_threshold = 200;
  };
  void install_filter_pipeline();
  void install_filter_pipeline(const FilterDefaults& defaults);

  // ---- client data path ----------------------------------------------------

  /// Sends a DNS query from `client_node` toward anycast `cloud`.
  /// The callback fires with the response, or nullopt on timeout.
  void send_query(netsim::NodeId client_node, const Endpoint& client,
                  std::uint8_t ip_ttl, const dns::Message& query,
                  netsim::PrefixId cloud, ResponseCallback callback);

  /// Runs the simulation until quiescent or until `deadline`.
  void run_until(SimTime deadline) { scheduler_.run_until(deadline); }
  void run() { scheduler_.run(); }

  // ---- stats ---------------------------------------------------------------

  std::uint64_t queries_sent() const noexcept { return queries_sent_; }
  std::uint64_t responses_received() const noexcept { return responses_received_; }
  std::uint64_t timeouts() const noexcept { return timeouts_; }

 private:
  struct PendingQuery {
    ResponseCallback callback;
    SimTime sent_at;
    EventScheduler::EventId timeout_event = 0;
  };
  struct PendingKey {
    IpAddr addr;
    std::uint16_t port = 0;
    std::uint16_t id = 0;
    bool operator==(const PendingKey&) const = default;
  };
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& k) const noexcept {
      return static_cast<std::size_t>(k.addr.hash() * 31 + k.port * 7 + k.id);
    }
  };

  void attach_cloud_handler(netsim::PrefixId cloud);
  void on_anycast_delivery(netsim::NodeId at_node, const netsim::Packet& packet);
  void ensure_client_handler(netsim::NodeId node);
  void on_client_delivery(const netsim::Packet& packet);
  void schedule_pump(pop::Pop& pop);
  void subscribe_machine(pop::Machine& machine, bool input_delayed,
                         const ZoneFilter& zone_filter);
  void wire_machine(pop::Pop& pop, pop::Machine& machine);

  PlatformConfig config_;
  EventScheduler scheduler_;
  /// Drains machine lanes at pump time (nullptr = serial). The scheduler
  /// remains the single source of simulated time; workers only run
  /// lane-local query processing between the serial phase boundaries.
  std::unique_ptr<WorkerPool> pool_;
  netsim::Network network_;
  netsim::Topology topology_;
  control::ControlPlane control_;
  /// Propagation pipeline on the scheduler's time axis (declared after
  /// scheduler_, before anything that publishes).
  control::SchedulerClock metadata_clock_{scheduler_};
  propagation::ZonePublisher zone_publisher_{metadata_clock_};
  pop::SuspensionCoordinator coordinator_;
  twotier::MappingSystem mapping_;
  Rng rng_;

  std::vector<std::unique_ptr<pop::Pop>> pops_;
  std::vector<std::unique_ptr<pop::MonitoringAgent>> agents_;
  std::unordered_map<netsim::NodeId, pop::Pop*> pops_by_router_;
  std::unordered_map<netsim::PrefixId, bool> cloud_handlers_;
  std::unordered_map<netsim::NodeId, bool> client_handlers_;
  std::unordered_map<IpAddr, netsim::NodeId> client_nodes_;
  std::unordered_map<PendingKey, PendingQuery, PendingKeyHash> pending_;
  std::unordered_map<pop::Pop*, bool> pump_scheduled_;
  std::unordered_map<const pop::Machine*, ZoneFilter> machine_zone_filters_;
  std::vector<dns::DnsName> hosted_apexes_;
  std::vector<std::pair<dns::DnsName, std::size_t>> dynamic_domains_;
  bool heartbeat_running_ = false;
  Duration heartbeat_interval_ = Duration::seconds(1);
  std::uint64_t queries_sent_ = 0;
  std::uint64_t responses_received_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint16_t machine_counter_ = 0;
};

}  // namespace akadns::core
