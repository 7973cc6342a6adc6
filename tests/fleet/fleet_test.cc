#include "src/fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>  // For the wall-clock speedup gate only; sim time stays virtual.
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/fleet/inter_host.h"

namespace mihn::fleet {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

// -- InterHostNetwork ---------------------------------------------------------

TEST(InterHostNetworkTest, HostUplinkIsSharedMaxMin) {
  InterHostNetwork::Config config;
  config.hosts = 4;
  config.hosts_per_rack = 4;  // One rack: no rack hops involved.
  InterHostNetwork net(config);
  // Two flows out of host 0 compete for its 100G uplink.
  const int32_t a = net.AddFlow(0, 1, Bandwidth::Gbps(100));
  const int32_t b = net.AddFlow(0, 2, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(b).ToGbps(), 50.0);
}

TEST(InterHostNetworkTest, RackUplinkBindsCrossRackFlows) {
  InterHostNetwork::Config config;
  config.hosts = 4;
  config.hosts_per_rack = 2;  // Hosts {0,1} in rack 0, {2,3} in rack 1.
  config.rack_up = Bandwidth::Gbps(100);
  config.rack_down = Bandwidth::Gbps(100);
  InterHostNetwork net(config);
  EXPECT_EQ(net.racks(), 2);
  // Distinct source hosts (100G uplink each) but one shared 100G rack uplink.
  const int32_t a = net.AddFlow(0, 2, Bandwidth::Gbps(100));
  const int32_t b = net.AddFlow(1, 3, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(b).ToGbps(), 50.0);
  // Intra-rack traffic skips the rack hop, but host 2's downlink is shared
  // with flow a: max-min grants each 50.
  const int32_t c = net.AddFlow(3, 2, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(c).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
}

TEST(InterHostNetworkTest, RemoveFlowReleasesCapacity) {
  InterHostNetwork::Config config;
  config.hosts = 2;
  InterHostNetwork net(config);
  const int32_t a = net.AddFlow(0, 1, Bandwidth::Gbps(100));
  const int32_t b = net.AddFlow(0, 1, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
  net.RemoveFlow(a);
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 0.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(b).ToGbps(), 100.0);
}

TEST(InterHostNetworkTest, SnapshotOrderIsFixed) {
  InterHostNetwork::Config config;
  config.hosts = 3;
  config.hosts_per_rack = 2;
  InterHostNetwork net(config);
  const auto links = net.SnapshotLinks();
  ASSERT_EQ(links.size(), net.link_count());
  ASSERT_EQ(links.size(), 2u * 3 + 2u * 2);
  EXPECT_EQ(links[0].host, 0);
  EXPECT_TRUE(links[0].up);
  EXPECT_EQ(links[1].host, 0);
  EXPECT_FALSE(links[1].up);
  EXPECT_EQ(links[6].host, -1);  // First rack link after 3 host pairs.
  EXPECT_EQ(links[6].rack, 0);
}

// -- Fleet --------------------------------------------------------------------

// The standard workload for the determinism gates: a mix of intra-rack and
// cross-rack flows over disjoint host pairs, two tenants.
std::vector<CrossHostFlowSpec> GateWorkload(int hosts) {
  std::vector<CrossHostFlowSpec> specs;
  for (int src = 0; src + 40 < hosts; src += 48) {
    CrossHostFlowSpec near;
    near.tenant = 7;
    near.src_host = src;
    near.dst_host = src + 5;  // Same rack at the default width of 32.
    specs.push_back(near);
    CrossHostFlowSpec far;
    far.tenant = 9;
    far.src_host = src + 2;
    far.dst_host = src + 40;  // Crosses into the next rack.
    far.demand = Bandwidth::Gbps(80);
    specs.push_back(far);
  }
  return specs;
}

uint64_t RunGate(int hosts, int ticks, Fleet::Options options, bool reverse_placement,
                 std::string* report = nullptr) {
  Fleet fleet(hosts, options);
  std::vector<CrossHostFlowSpec> specs = GateWorkload(hosts);
  if (reverse_placement) {
    std::reverse(specs.begin(), specs.end());
  }
  for (const CrossHostFlowSpec& spec : specs) {
    fleet.StartCrossHostFlow(spec);
  }
  fleet.Run(ticks);
  if (report != nullptr) {
    *report = fleet.RenderReport();
  }
  return fleet.TelemetryDigest();
}

// The ISSUE's acceptance gate: a 256-host fleet, multi-tick, byte-identical
// telemetry across two independent runs.
TEST(FleetTest, DeterminismGate256Hosts) {
  std::string report_a;
  std::string report_b;
  const uint64_t a = RunGate(256, 3, Fleet::Options{}, false, &report_a);
  const uint64_t b = RunGate(256, 3, Fleet::Options{}, false, &report_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(report_a, report_b);
  EXPECT_NE(a, 0xcbf29ce484222325ull);  // Not the empty-history digest.
}

TEST(FleetTest, DigestIndependentOfPlacementOrder) {
  const uint64_t forward = RunGate(128, 3, Fleet::Options{}, false);
  const uint64_t reversed = RunGate(128, 3, Fleet::Options{}, true);
  EXPECT_EQ(forward, reversed);
}

TEST(FleetTest, DigestIndependentOfAggregationThreads) {
  // The parallel telemetry reduction (worker_threads, which also sizes the
  // settle and root-cause fan-out) never shows in the digest.
  Fleet::Options serial;
  serial.worker_threads = 0;
  Fleet::Options threaded;
  threaded.worker_threads = 4;
  threaded.clamp_workers_to_hardware = false;  // Real threads even on 1 core.
  EXPECT_EQ(RunGate(64, 3, serial, false), RunGate(64, 3, threaded, false));
}

// The tentpole gate: the parallel settle + reduction must be invisible in
// the telemetry. Byte-identical digests across worker counts, including
// 0/1 (serial, no pool) and widths beyond the machine's core count.
TEST(FleetTest, DigestIndependentOfWorkerCount256Hosts) {
  std::string baseline_report;
  Fleet::Options serial;
  serial.worker_threads = 0;
  const uint64_t baseline = RunGate(256, 3, serial, false, &baseline_report);
  EXPECT_NE(baseline, 0xcbf29ce484222325ull);  // Not the empty-history digest.
  for (const int workers : {1, 2, 8}) {
    Fleet::Options options;
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;  // Real threads even on 1 core.
    std::string report;
    EXPECT_EQ(RunGate(256, 3, options, false, &report), baseline) << workers << " workers";
    EXPECT_EQ(report, baseline_report) << workers << " workers";
  }
}

TEST(FleetTest, WorkerParallelismReflectsOptionsAndClamp) {
  Fleet serial(2);
  EXPECT_EQ(serial.worker_parallelism(), 1);

  Fleet::Options unclamped;
  unclamped.worker_threads = 8;
  unclamped.clamp_workers_to_hardware = false;
  Fleet wide(2, unclamped);
  EXPECT_EQ(wide.worker_parallelism(), 8);

  Fleet::Options clamped;
  clamped.worker_threads = 1 << 20;  // Absurd: must clamp to the machine.
  Fleet sane(2, clamped);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_LE(sane.worker_parallelism(), static_cast<int>(hw == 0 ? 1u : hw));
  EXPECT_GE(sane.worker_parallelism(), 1);
}

// Finite transfers are the one settle output that touches the shared clock
// (completion events). Cross-worker staging must reproduce the serial
// event sequence exactly: same completion times, same digests.
TEST(FleetTest, ParallelSettleWithFiniteTransfersMatchesSerial) {
  struct Outcome {
    uint64_t digest = 0;
    std::vector<std::pair<int, int64_t>> completions;  // (host, end ns).
  };
  const auto run = [](int workers) {
    Fleet::Options options;
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;
    Fleet fleet(8, options);
    Outcome out;
    for (int h = 0; h < fleet.host_count(); ++h) {
      // A transfer sized to finish mid-run, re-solved every tick by the
      // cross-host coupling churn on the same host.
      fabric::TransferSpec transfer;
      transfer.flow.path = *fleet.host(h).fabric().Route(fleet.host(h).server().ssds[0],
                                                         fleet.host(h).server().dimms[0]);
      transfer.flow.tenant = 2;
      transfer.flow.demand = Bandwidth::Gbps(50);
      transfer.bytes = 4 * 1000 * 1000 * (h + 1);  // Staggered completions.
      transfer.on_complete = [&out, h](const fabric::TransferResult& result) {
        out.completions.emplace_back(h, result.end.nanos());
      };
      fleet.host(h).fabric().StartTransfer(std::move(transfer));
    }
    for (int h = 0; h + 1 < fleet.host_count(); h += 2) {
      CrossHostFlowSpec cross;
      cross.tenant = 5;
      cross.src_host = h;
      cross.dst_host = h + 1;
      fleet.StartCrossHostFlow(cross);
    }
    fleet.Run(4);
    out.digest = fleet.TelemetryDigest();
    return out;
  };
  const Outcome serial = run(0);
  ASSERT_FALSE(serial.completions.empty());  // The gate must exercise completions.
  for (const int workers : {2, 8}) {
    const Outcome pooled = run(workers);
    EXPECT_EQ(pooled.digest, serial.digest) << workers << " workers";
    EXPECT_EQ(pooled.completions, serial.completions) << workers << " workers";
  }
}

// The perf acceptance gate: at 1024 hosts a pooled tick must beat serial
// ≥ 3× on machines with real parallelism to spare (≥ 6 cores; ≥ 1.8× on
// 4–5 cores where 3× is not attainable after the serial fraction). Skipped
// under sanitizers (instrumentation skews scheduling) and on < 4 cores,
// where the pool clamps toward serial and there is nothing to measure.
TEST(FleetTest, PooledTickSpeedupGate1024Hosts) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build: wall-clock gate not meaningful";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  GTEST_SKIP() << "sanitizer build: wall-clock gate not meaningful";
#endif
#endif
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  GTEST_SKIP() << "invariant-check build: wall-clock gate not meaningful";
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "only " << hw << " cores: no parallel speedup to measure";
  }
  const double required = hw >= 6 ? 3.0 : 1.8;

  constexpr int kHosts = 1024;
  constexpr int kTicks = 5;
  const auto time_run = [](Fleet::Options options) {
    Fleet fleet(kHosts, options);
    for (const CrossHostFlowSpec& spec : GateWorkload(kHosts)) {
      fleet.StartCrossHostFlow(spec);
    }
    fleet.Tick();  // Warm-up: first solves, pool spin-up, page faults.
    // mihn-check: nondet-ok(wall-clock speedup gate; never enters sim state)
    const auto start = std::chrono::steady_clock::now();
    fleet.Run(kTicks);
    // mihn-check: nondet-ok(wall-clock speedup gate; never enters sim state)
    const auto stop = std::chrono::steady_clock::now();
    const double elapsed =
        // mihn-check: nondet-ok(wall-clock speedup gate; never enters sim state)
        std::chrono::duration<double>(stop - start).count();
    return std::pair<double, uint64_t>(elapsed, fleet.TelemetryDigest());
  };

  Fleet::Options serial;
  serial.worker_threads = 0;
  Fleet::Options pooled;
  pooled.worker_threads = static_cast<int>(hw);
  const auto [serial_secs, serial_digest] = time_run(serial);
  const auto [pooled_secs, pooled_digest] = time_run(pooled);
  ASSERT_EQ(pooled_digest, serial_digest);  // Speed must not buy divergence.
  ASSERT_GT(pooled_secs, 0.0);
  const double speedup = serial_secs / pooled_secs;
  EXPECT_GE(speedup, required) << "serial " << serial_secs << "s vs pooled " << pooled_secs
                               << "s on " << hw << " cores";
}

TEST(FleetTest, TickAdvancesSharedClockAndSamples) {
  Fleet fleet(2);
  EXPECT_EQ(fleet.Now(), TimeNs::Zero());
  const FleetSample& first = fleet.Tick();
  EXPECT_EQ(first.at, fleet.options().tick_period);
  EXPECT_EQ(fleet.host(0).Now(), fleet.Now());
  EXPECT_EQ(fleet.host(1).Now(), fleet.Now());
  fleet.Run(2);
  EXPECT_EQ(fleet.samples().size(), 3u);
  EXPECT_EQ(fleet.samples().back().at.nanos(), 3 * fleet.options().tick_period.nanos());
}

TEST(FleetTest, CrossHostFlowCouplesToMinOfStages) {
  Fleet fleet(2);
  CrossHostFlowSpec spec;
  spec.tenant = 3;
  spec.src_host = 0;
  spec.dst_host = 1;
  spec.demand = Bandwidth::Gbps(4000);  // Far above any stage's capacity.
  const CrossFlowId id = fleet.StartCrossHostFlow(spec);
  EXPECT_EQ(fleet.CrossHostRate(id).bytes_per_sec(), 0.0);  // Before first tick.
  fleet.Run(3);
  const double settled = fleet.CrossHostRate(id).bytes_per_sec();
  EXPECT_GT(settled, 0.0);
  // Bounded by the inter-host access link and by both intra-host stages.
  EXPECT_LE(settled, fleet.options().inter.host_up.bytes_per_sec());
  // After coupling, the source intra-host stage is capped at exactly the
  // end-to-end rate.
  const auto src_flows = fleet.host(0).fabric().ActiveFlows();
  ASSERT_EQ(src_flows.size(), 1u);
  EXPECT_DOUBLE_EQ(fleet.host(0).fabric().FlowRate(src_flows.front()).bytes_per_sec(), settled);
  // A fixed point: further ticks do not move it.
  fleet.Tick();
  EXPECT_DOUBLE_EQ(fleet.CrossHostRate(id).bytes_per_sec(), settled);
  EXPECT_GT(fleet.samples().back().inter_rate_bps, 0.0);
  EXPECT_EQ(fleet.samples().back().cross_host_flows, 1);
}

// The coupling pays only for what changed. On a quiet GateWorkload fleet
// no fabric solves after the first coupled tick. A demand change on one
// stage host re-solves that host (the change, the lift, the cap); of the
// other hosts only the partner whose coupled rate moved re-solves, once,
// for its new cap.
TEST(FleetTest, QuietCouplingSolvesOnlyWhatChanged) {
  constexpr int kHosts = 256;
  Fleet fleet(kHosts);
  CrossFlowId near = kInvalidCrossFlow;
  for (const CrossHostFlowSpec& spec : GateWorkload(kHosts)) {
    const CrossFlowId id = fleet.StartCrossHostFlow(spec);
    if (spec.src_host == 0) {
      near = id;  // 0 -> 5 at 40 Gbps, from host 0's first SSD.
    }
  }
  ASSERT_NE(near, kInvalidCrossFlow);
  // A heavy-weighted flow from the same SSD shares the stage's first link.
  HostNetwork& src = fleet.host(0);
  fabric::FlowSpec hog;
  hog.path = *src.fabric().Route(src.server().ssds[0], src.server().dimms[0]);
  hog.tenant = 3;
  hog.demand = Bandwidth::Gbps(10);
  hog.weight = 9.0;
  const fabric::FlowId hog_id = src.fabric().StartFlow(hog);

  std::vector<uint64_t> before(kHosts);
  const auto snapshot = [&] {
    for (int h = 0; h < kHosts; ++h) {
      before[static_cast<size_t>(h)] = fleet.host(h).fabric().recompute_count();
    }
  };
  // Hosts whose solve count moved since snapshot(), as (host, solves).
  const auto resolved = [&] {
    std::vector<std::pair<int, uint64_t>> moved;
    for (int h = 0; h < kHosts; ++h) {
      const uint64_t now = fleet.host(h).fabric().recompute_count();
      if (now != before[static_cast<size_t>(h)]) {
        moved.emplace_back(h, now - before[static_cast<size_t>(h)]);
      }
    }
    return moved;
  };
  using Solves = std::vector<std::pair<int, uint64_t>>;

  fleet.Tick();  // The first coupled tick: every stage host lifts and caps.
  const double unsqueezed = fleet.CrossHostRate(near).bytes_per_sec();
  EXPECT_DOUBLE_EQ(unsqueezed, Bandwidth::Gbps(40).bytes_per_sec());
  snapshot();
  fleet.Run(3);
  EXPECT_EQ(resolved(), Solves{});

  // The hog's share of the SSD link now squeezes the stage below 40 Gbps.
  src.fabric().SetFlowDemand(hog_id, Bandwidth::Gbps(250));
  snapshot();
  fleet.Tick();
  const double squeezed = fleet.CrossHostRate(near).bytes_per_sec();
  EXPECT_LT(squeezed, unsqueezed);
  EXPECT_EQ(resolved(), (Solves{{0, 3}, {5, 1}}));

  // Still above its share: the stage's rate stays put, so only host 0
  // re-solves.
  src.fabric().SetFlowDemand(hog_id, Bandwidth::Gbps(240));
  snapshot();
  fleet.Tick();
  EXPECT_EQ(fleet.CrossHostRate(near).bytes_per_sec(), squeezed);
  EXPECT_EQ(resolved(), (Solves{{0, 3}}));

  snapshot();
  fleet.Run(3);
  EXPECT_EQ(resolved(), Solves{});
}

TEST(FleetTest, StopCrossHostFlowReleasesAllStages) {
  Fleet fleet(3);
  CrossHostFlowSpec spec;
  spec.src_host = 0;
  spec.dst_host = 2;
  const CrossFlowId id = fleet.StartCrossHostFlow(spec);
  fleet.Run(2);
  EXPECT_EQ(fleet.cross_host_flow_count(), 1);
  fleet.StopCrossHostFlow(id);
  EXPECT_EQ(fleet.cross_host_flow_count(), 0);
  EXPECT_EQ(fleet.CrossHostRate(id).bytes_per_sec(), 0.0);
  fleet.Tick();  // Coupling after removal must not touch the dead stages.
  EXPECT_EQ(fleet.samples().back().cross_host_flows, 0);
  EXPECT_EQ(fleet.host(0).fabric().ActiveFlows().size(), 0u);
}

TEST(FleetTest, RootCauseViewRanksFleetWideSuspects) {
  Fleet fleet(3);
  // Tenant 7 saturates a link on hosts 0 and 2; tenant 4 rides along small
  // on host 0 only.
  for (const int h : {0, 2}) {
    fabric::FlowSpec hog;
    hog.path = *fleet.host(h).fabric().Route(fleet.host(h).server().gpus[0],
                                             fleet.host(h).server().dimms[0]);
    hog.tenant = 7;
    fleet.host(h).fabric().StartFlow(hog);
  }
  fabric::FlowSpec minor;
  minor.path = *fleet.host(0).fabric().Route(fleet.host(0).server().ssds[0],
                                             fleet.host(0).server().dimms[0]);
  minor.tenant = 4;
  minor.demand = Bandwidth::Gbps(1);
  fleet.host(0).fabric().StartFlow(minor);
  fleet.Run(2);

  FleetRootCause view = fleet.RootCauseView();
  ASSERT_FALSE(view.hosts.empty());
  EXPECT_EQ(view.hosts.front().host, 0);
  ASSERT_FALSE(view.suspects.empty());
  EXPECT_EQ(view.suspects.front().tenant, 7);
  EXPECT_EQ(view.suspects.front().hosts_implicated, 2);
  EXPECT_GT(fleet.samples().back().max_host_utilization, 0.9);
}

TEST(FleetTest, HeartbeatAlarmsSurfacePerHost) {
  Fleet::Options options;
  options.tick_period = TimeNs::Millis(2);
  Fleet fleet(2, options);
  anomaly::HeartbeatMesh::Config mesh;
  mesh.period = TimeNs::Micros(100);
  mesh.baseline_samples = 4;
  fleet.EnableHeartbeats(mesh);
  EXPECT_TRUE(fleet.heartbeats_enabled());
  fleet.Run(2);  // Establish baselines on a healthy fleet.

  // Silent +5us degradation on host 1, on a link its probes traverse.
  HostNetwork& faulty = fleet.host(1);
  const auto path = *faulty.fabric().Route(faulty.server().nics[0], faulty.server().sockets[0]);
  fabric::LinkFault fault;
  fault.extra_latency = TimeNs::Micros(5);
  faulty.fabric().InjectLinkFault(path.hops[0].link, fault);
  fleet.Run(3);

  const FleetRootCause view = fleet.RootCauseView();
  ASSERT_EQ(view.alarms.size(), 1u);
  EXPECT_EQ(view.alarms.front().host, 1);
  EXPECT_GT(view.alarms.front().first_alarm_at, TimeNs::Zero());
}

TEST(FleetTest, ReportRendersAndWrites) {
  Fleet fleet(4);
  CrossHostFlowSpec spec;
  spec.src_host = 1;
  spec.dst_host = 3;
  fleet.StartCrossHostFlow(spec);
  fleet.Run(2);
  const std::string report = fleet.RenderReport();
  EXPECT_NE(report.find("\"telemetry_digest\""), std::string::npos);
  EXPECT_NE(report.find("\"hosts\": 4"), std::string::npos);
  EXPECT_NE(report.find("\"ticks\""), std::string::npos);
  EXPECT_NE(report.find("\"final_hosts\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "fleet_report_test.json";
  ASSERT_TRUE(fleet.WriteReportFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// TelemetryDigest() folds only the samples added since its last call; read
// at any points in a run it must equal a one-shot hash of the whole
// history, and the rendered report must carry that same digest.
TEST(FleetTest, RunningDigestMatchesOneShotHashAtEveryRead) {
  Fleet fleet(8);
  CrossHostFlowSpec spec;
  spec.src_host = 1;
  spec.dst_host = 6;
  fleet.StartCrossHostFlow(spec);
  EXPECT_EQ(fleet.TelemetryDigest(), DigestSamples({}));
  for (const int ticks : {1, 0, 3, 1, 5}) {
    fleet.Run(ticks);
    EXPECT_EQ(fleet.TelemetryDigest(), DigestSamples(fleet.samples()));
    EXPECT_EQ(fleet.TelemetryDigest(), DigestSamples(fleet.samples()));  // Idempotent.
  }
  fleet.Run(2);  // Unread ticks: the report folds them.
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                static_cast<unsigned long long>(DigestSamples(fleet.samples())));
  EXPECT_NE(fleet.RenderReport().find(hex), std::string::npos);
  EXPECT_EQ(fleet.TelemetryDigest(), DigestSamples(fleet.samples()));
}

TEST(FleetTest, HostTemplateOptionsApply) {
  Fleet::Options options;
  options.host.preset = HostNetwork::Preset::kEdgeNode;
  Fleet fleet(2, options);
  EXPECT_EQ(fleet.host(0).server().gpus.size(), 0u);
  EXPECT_FALSE(fleet.host(0).owns_clock());
  EXPECT_FALSE(fleet.host(1).owns_clock());
}

}  // namespace
}  // namespace mihn::fleet
