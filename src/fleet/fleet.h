// Fleet: many HostNetworks on one shared virtual clock, coupled by the
// inter-host rack/ToR model and aggregated into fleet-wide telemetry.
//
// The paper argues the intra-host network needs the same manageability as
// the inter-host network; a data-center operator runs thousands of such
// hosts at once. Fleet is that operator's view in this repo: it owns the
// single sim::Simulation, constructs every host through HostNetwork's
// clock-injection constructors (the API redesign this layer motivated), and
// advances all of them in lock-step ticks:
//
//   fleet::Fleet fleet(256);
//   auto flow = fleet.StartCrossHostFlow({.tenant = 7, .src_host = 0,
//                                         .dst_host = 9});
//   fleet.Run(20);                         // 20 ticks on the shared clock.
//   uint64_t digest = fleet.TelemetryDigest();
//   auto view = fleet.RootCauseView();
//
// Determinism contract: a fleet run is a pure function of (host count,
// options, placement calls). The tick's per-host work — fabric settle,
// telemetry reduction, root-cause scan — fans out over a persistent
// core::WorkerPool (Options::worker_threads) in contiguous host-order
// chunks. Each fabric settles into its own sim::StagedEvents buffer
// instead of scheduling on the shared clock; the buffers are then applied
// serially in strict host order, so the calendar queue sees the exact
// event sequence a serial pass produces. All merges (telemetry samples,
// root-cause inputs) are likewise in strict host order. Digests are
// therefore byte-identical across runs, worker counts (including 0/1 =
// serial), and cross-host placement order.

#ifndef MIHN_SRC_FLEET_FLEET_H_
#define MIHN_SRC_FLEET_FLEET_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/anomaly/heartbeat.h"
#include "src/anomaly/root_cause.h"
#include "src/core/worker_pool.h"
#include "src/fleet/inter_host.h"
#include "src/fleet/report.h"
#include "src/host/host_network.h"
#include "src/sim/staged_events.h"

namespace mihn::fleet {

// The per-host options template the fleet defaults to: telemetry and
// management services off (Autostart::kNone). The fleet aggregates
// telemetry centrally; 256 per-host collectors each ticking the shared
// clock would dominate every run. Opt back in via Options::host.
HostNetwork::Options DefaultHostOptions();

// One tenant flow spanning two hosts: an intra-host stage on the source
// (device -> NIC), an inter-host stage (uplink/rack/downlink), and an
// intra-host stage on the destination (NIC -> device). The fleet couples
// the three each tick: every stage's allocation caps the others.
struct CrossHostFlowSpec {
  fabric::TenantId tenant = fabric::kNoTenant;
  int src_host = 0;
  int dst_host = 0;
  // kInvalidComponent picks the host's first SSD (source) / first DIMM
  // (destination) — a storage-read-into-memory shape.
  topology::ComponentId src_device = topology::kInvalidComponent;
  topology::ComponentId dst_device = topology::kInvalidComponent;
  sim::Bandwidth demand = sim::Bandwidth::Gbps(40);
  double weight = 1.0;
};

using CrossFlowId = int64_t;
inline constexpr CrossFlowId kInvalidCrossFlow = -1;

// Fleet-level root-cause view: per-host congestion reports (host order),
// saturated inter-host links, per-host heartbeat alarms (when meshes are
// enabled), and the fleet-wide tenant suspect ranking.
struct FleetSuspect {
  fabric::TenantId tenant = fabric::kNoTenant;
  double share_sum = 0.0;  // Summed congested-link shares across the fleet.
  int hosts_implicated = 0;
};

struct HostCongestion {
  int host = 0;
  std::vector<anomaly::CongestionReport> reports;
};

struct HostAlarm {
  int host = 0;
  sim::TimeNs first_alarm_at;
  topology::LinkId top_suspect = topology::kInvalidLink;
  double score = 0.0;
};

struct FleetRootCause {
  std::vector<HostCongestion> hosts;          // Only hosts with congested links.
  std::vector<InterHostLinkUse> inter_links;  // Inter-host links at/over threshold.
  std::vector<HostAlarm> alarms;              // Only hosts whose mesh alarmed.
  std::vector<FleetSuspect> suspects;         // Descending share_sum.
};

class Fleet {
 public:
  struct Options {
    uint64_t seed = 1;
    sim::TimeNs tick_period = sim::TimeNs::Millis(1);
    // Inter-host capacities and rack width; Config::hosts is overwritten
    // with the fleet's host count.
    InterHostNetwork::Config inter;
    // Template applied to every host. Options::seed is ignored (the fleet
    // seeds the one shared clock); Options::trace must stay disabled (a
    // Simulation has a single observer slot).
    HostNetwork::Options host = DefaultHostOptions();
    // Worker parallelism for the whole tick: parallel fabric settle (via
    // the staged-events seam), per-host telemetry reduction, and the
    // root-cause scan all share one persistent core::WorkerPool. <= 1 runs
    // serially; digests are byte-identical across any value (per-host
    // results merge in strict host order).
    int worker_threads = 0;
    // Cap the pool at std::thread::hardware_concurrency(). Oversubscribing
    // the tick's compute-bound chunks only adds context switches; tests
    // disable the clamp to force real cross-thread execution even on small
    // machines. Never affects results, only scheduling.
    bool clamp_workers_to_hardware = true;
    // Directed-link utilization at/above this counts as congested, in both
    // per-host rollups and RootCauseView().
    double congestion_threshold = 0.9;
  };

  explicit Fleet(int num_hosts);
  Fleet(int num_hosts, Options options);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();

  // -- Topology ----------------------------------------------------------------
  int host_count() const { return static_cast<int>(hosts_.size()); }
  HostNetwork& host(int i) { return *hosts_[static_cast<size_t>(i)]; }
  InterHostNetwork& inter_host() { return inter_; }
  sim::Simulation& simulation() { return sim_; }
  sim::TimeNs Now() const { return sim_.Now(); }
  const Options& options() const { return options_; }
  // Actual pool width after the hardware clamp; 1 means serial.
  int worker_parallelism() const { return pool_ != nullptr ? pool_->parallelism() : 1; }

  // -- Cross-host placement ----------------------------------------------------
  // Starts the three coupled stages. The end-to-end rate settles over the
  // following ticks (one coupling pass per tick).
  CrossFlowId StartCrossHostFlow(const CrossHostFlowSpec& spec);
  void StopCrossHostFlow(CrossFlowId id);
  // Last coupled end-to-end rate (zero before the first tick after start).
  sim::Bandwidth CrossHostRate(CrossFlowId id) const;
  int cross_host_flow_count() const { return static_cast<int>(cross_flows_.size()); }

  // -- Time --------------------------------------------------------------------
  // One fleet tick: settle pending mutations (in parallel, staged), advance
  // the shared clock by tick_period, re-couple cross-host flows, then settle
  // and reduce every host in one pass and aggregate one FleetSample.
  // Returns the new sample.
  const FleetSample& Tick();
  void Run(int ticks);

  // -- Telemetry ---------------------------------------------------------------
  const std::vector<FleetSample>& samples() const { return samples_; }
  // FNV-1a 64 digest of the full sample history (see report.h). Folds only
  // the samples added since the previous call into a running state; Tick()
  // itself never pays for the encoding.
  uint64_t TelemetryDigest() const;
  // JSON report over the sample history (see report.h).
  std::string RenderReport() const;
  bool WriteReportFile(const std::string& path) const;

  // -- Anomaly -----------------------------------------------------------------
  // Builds and starts one heartbeat mesh per host (config.participants is
  // replaced per host with that host's Devices()). Idempotent.
  void EnableHeartbeats(anomaly::HeartbeatMesh::Config config = {});
  bool heartbeats_enabled() const { return !meshes_.empty(); }

  // Fleet-level root cause: every host's congested links and suspects,
  // merged in host order, plus saturated inter-host links and heartbeat
  // alarms.
  FleetRootCause RootCauseView();

 private:
  struct CrossFlow {
    CrossHostFlowSpec spec;
    fabric::FlowId src_flow = fabric::kInvalidFlow;
    fabric::FlowId dst_flow = fabric::kInvalidFlow;
    int32_t inter_slot = -1;
    double coupled_rate_bps = 0.0;
    // Each stage's intra-host rate as read after its host's last lift.
    double src_lifted_bps = 0.0;
    double dst_lifted_bps = 0.0;
  };

  // Couples every cross-host flow's three stages, paying only for what
  // changed. Stale hosts (IsStale) lift their stages' caps, settle, and
  // cache the lifted rates; clean hosts reuse their cached ones. The
  // inter-host solve always runs, and a cap goes to every stage on a stale
  // host and to any stage whose coupled rate moved. Exact: every fabric,
  // and the shared clock's event sequence, ends the pass as a lift and
  // re-cap of every stage host would leave them (pinned by
  // GoldenTest.QuietFleetCouplingMatchesPinnedHashes).
  void CoupleCrossHostFlows();
  // True when host |host| must lift and re-cap: its fabric has taken a
  // mutation since the fleet last capped it (a demand change, start/stop,
  // fault, config change or transfer completion), or re-solving it would
  // still change it (DDIO writes, transfers in flight; see
  // Fabric::resolve_is_noop).
  bool IsStale(int host) const;
  // Forces every fabric's pending solve: solves fan out across the worker
  // pool into per-host staging buffers, then the buffers are applied to the
  // shared clock serially in strict host order — the exact event sequence
  // (and event-pool slot reuse) of a serial pass. Opens no pool round when
  // no fabric is dirty.
  void SettleHosts();
  // Applies every host's staging buffer to the shared clock, in host order.
  void ApplyStagings();
  // Runs body(begin, end) over contiguous host-order chunks of [0, N) on
  // the pool, or inline when the fleet is serial. |body| must be parallel-
  // safe on disjoint host ranges.
  void ForEachHost(const std::function<void(size_t, size_t)>& body);
  // The tick's last pass: each host settles (staged) and is reduced in the
  // same pool round; the stagings are replayed afterwards, in host order,
  // before the fleet totals and the inter-host snapshot.
  FleetSample SettleAndSample();
  HostSample ReduceHost(int i);

  Options options_;
  // Declaration order is destruction-safety: the clock outlives the hosts
  // (hosts_ destructs first), per HostNetwork's shared-clock lifetime rule.
  sim::Simulation sim_;
  std::vector<std::unique_ptr<HostNetwork>> hosts_;
  InterHostNetwork inter_;
  std::vector<std::unique_ptr<anomaly::HeartbeatMesh>> meshes_;  // Empty unless enabled.
  std::map<CrossFlowId, CrossFlow> cross_flows_;  // Ordered: deterministic coupling.
  CrossFlowId next_cross_id_ = 1;
  std::vector<FleetSample> samples_;
  // Running digest over samples_[0, digest_folded_): advanced lazily by
  // TelemetryDigest(), which is logically const.
  mutable SampleDigest digest_;
  mutable size_t digest_folded_ = 0;
  // CoupleCrossHostFlows() scratch, one batch per host: the limit lifts
  // (stale hosts only) and the end-to-end caps (stale hosts, and stages
  // whose coupled rate moved). Cleared and refilled every tick, so their
  // capacity carries over and a steady tick allocates nothing for them; a
  // quiet tick leaves every batch empty.
  using LimitBatch = std::vector<std::pair<fabric::FlowId, sim::Bandwidth>>;
  std::vector<LimitBatch> lifts_;
  std::vector<LimitBatch> caps_;
  // Per host: the fabric's mutation_count() right after the fleet applied
  // its last cap batch there. A host whose count has moved since is stale.
  std::vector<uint64_t> capped_mutations_;
  // Null when the fleet is serial (effective worker_threads <= 1). Worker
  // threads only ever run inside ForEachHost rounds, so the pool needs no
  // particular destruction order relative to sim_/hosts_.
  std::unique_ptr<core::WorkerPool> pool_;
  // One staging buffer per host, reused every settle pass.
  std::vector<sim::StagedEvents> stagings_;
};

}  // namespace mihn::fleet

#endif  // MIHN_SRC_FLEET_FLEET_H_
