#include "src/anomaly/heartbeat.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/host/host_network.h"

namespace mihn::anomaly {
namespace {

using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(HeartbeatTest, BuildsAllOrderedPairs) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  auto mesh = host.MakeHeartbeatMesh();
  const size_t n = host.Devices().size();
  EXPECT_EQ(mesh->pair_count(), n * (n - 1));
}

TEST(HeartbeatTest, NoAlarmsOnHealthyFabric) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(50));
  EXPECT_TRUE(mesh->Alarms().empty());
  EXPECT_FALSE(mesh->first_alarm_at().has_value());
  EXPECT_GT(mesh->probes_sent(), 0u);
}

TEST(HeartbeatTest, DetectsSilentLatencyFault) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));  // Learn baselines.

  // Silent degradation on nic0's switch downlink: +5us latency, no error
  // counter anywhere.
  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  const topology::LinkId bad_link = path.hops[0].link;
  host.fabric().InjectLinkFault(bad_link, fabric::LinkFault{1.0, TimeNs::Micros(5)});

  host.RunFor(TimeNs::Millis(20));
  ASSERT_FALSE(mesh->Alarms().empty());
  ASSERT_TRUE(mesh->first_alarm_at().has_value());
  EXPECT_GT(*mesh->first_alarm_at(), TimeNs::Millis(20));
  EXPECT_LT(*mesh->first_alarm_at(), TimeNs::Millis(30));
}

TEST(HeartbeatTest, LocalizesFaultedLinkFirst) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));

  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  const topology::LinkId bad_link = path.hops[0].link;
  host.fabric().InjectLinkFault(bad_link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(30));

  const auto suspects = mesh->LocalizeFaults();
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front().link, bad_link);
  EXPECT_DOUBLE_EQ(suspects.front().score, 1.0);
  // Other suspects (links sharing degraded paths) score strictly less.
  for (size_t i = 1; i < suspects.size(); ++i) {
    EXPECT_LT(suspects[i].score, 1.0) << "link " << suspects[i].link;
  }
}

TEST(HeartbeatTest, CapacityFaultAlsoDetected) {
  // A capacity-degraded switch link congests under load; the resulting
  // queueing latency trips the mesh even though the fault itself only
  // touches bandwidth.
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  config.degradation_factor = 1.5;
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();

  // Background load through nic0's switch uplink.
  fabric::FlowSpec bulk;
  bulk.path = *host.fabric().Route(host.server().gpus[0], host.server().sockets[0]);
  bulk.demand = sim::Bandwidth::GBps(10);
  host.fabric().StartFlow(bulk);

  host.RunFor(TimeNs::Millis(20));
  ASSERT_TRUE(mesh->Alarms().empty());

  // Degrade the shared uplink to 40%: the same 10 GB/s now congests it.
  const topology::LinkId uplink = bulk.path.hops[1].link;
  host.fabric().InjectLinkFault(uplink, fabric::LinkFault{0.4, TimeNs::Zero()});
  host.RunFor(TimeNs::Millis(30));
  EXPECT_FALSE(mesh->Alarms().empty());
}

TEST(HeartbeatTest, RecoversWhenFaultCleared) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));
  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  host.fabric().InjectLinkFault(path.hops[0].link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(20));
  EXPECT_FALSE(mesh->Alarms().empty());
  host.fabric().ClearLinkFault(path.hops[0].link);
  host.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh->Alarms().empty());
}

TEST(HeartbeatTest, ResetBaselinesClearsState) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));
  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  host.fabric().InjectLinkFault(path.hops[0].link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(20));
  EXPECT_FALSE(mesh->Alarms().empty());
  // Re-baseline with the fault active: the degraded latency becomes the new
  // normal (operator accepted it).
  mesh->ResetBaselines();
  host.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh->Alarms().empty());
  EXPECT_FALSE(mesh->first_alarm_at().has_value());
}

TEST(HeartbeatTest, ProbeTrafficIsVisibleInTelemetry) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(10));
  // Probe bytes appear under TrafficClass::kProbe somewhere.
  double probe_bytes = 0.0;
  for (auto& snap : host.fabric().SnapshotAll()) {
    probe_bytes += snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kProbe)];
  }
  EXPECT_GT(probe_bytes, 0.0);
}

// A dual-ported NIC with asymmetric port latencies: port 0 is fast (the
// initial route), port 1 is ~50us slower. Killing port 0's uplink forces
// a re-route whose path latency is wildly above the learned baseline.
struct DualPorted {
  topology::Topology topo;
  topology::ComponentId socket, nic;
  topology::LinkId up0, up1;
};

DualPorted MakeDualPorted() {
  using topology::ComponentKind;
  using topology::LinkKind;
  using topology::LinkSpec;
  DualPorted d;
  d.socket = d.topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  const auto rp0 = d.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp0", d.socket);
  const auto sw0 = d.topo.AddComponent(ComponentKind::kPcieSwitch, "s0.rp0.sw0", d.socket);
  const auto rp1 = d.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp1", d.socket);
  const auto sw1 = d.topo.AddComponent(ComponentKind::kPcieSwitch, "s0.rp1.sw0", d.socket);
  d.nic = d.topo.AddComponent(ComponentKind::kNic, "nic0", d.socket);
  d.topo.AddLink(d.socket, rp0, LinkKind::kIntraSocket);
  d.up0 = d.topo.AddLink(rp0, sw0, LinkKind::kPcieSwitchUp);
  d.topo.AddLink(sw0, d.nic, LinkKind::kPcieSwitchDown);
  d.topo.AddLink(d.socket, rp1, LinkKind::kIntraSocket);
  d.up1 = d.topo.AddLink(
      rp1, sw1,
      LinkSpec{LinkKind::kPcieSwitchUp, sim::Bandwidth::Gbps(256), TimeNs::Micros(50)});
  d.topo.AddLink(sw1, d.nic, LinkKind::kPcieSwitchDown);
  return d;
}

// The PR-5 heartbeat fix: when a fault moves the fabric's route epoch, the
// mesh must re-resolve pair paths (instead of probing the frozen dead
// path forever) and restart each re-routed pair's baseline (instead of
// judging the new path against the old path's learned latency).
TEST(HeartbeatTest, ReroutedPairRestartsBaselineInsteadOfAlarming) {
  sim::Simulation sim;
  const DualPorted d = MakeDualPorted();
  fabric::Fabric fabric(sim, d.topo);

  HeartbeatMesh::Config config;
  config.participants = {d.socket, d.nic};
  config.period = TimeNs::Millis(1);
  HeartbeatMesh mesh(fabric, config);
  mesh.Start();
  sim.RunFor(TimeNs::Millis(20));  // Learn the fast-port baseline.
  EXPECT_TRUE(mesh.Alarms().empty());

  // Kill the fast uplink. The re-routed path is ~50us slower than the
  // learned baseline — hugely past the 2x alarm threshold — but a fresh
  // baseline must absorb it. A frozen path would instead probe the dead
  // link (20x latency inflation) and alarm.
  fabric.InjectLinkFault(d.up0, fabric::LinkFault{0.0, TimeNs::Zero()});
  sim.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh.Alarms().empty());
  EXPECT_TRUE(mesh.alarm_log().empty());
  EXPECT_GT(mesh.probes_sent(), 0u);
}

// alarmed_count() is maintained incrementally; it must equal Alarms().size()
// after every tick through raises, recovery clears, re-route clears, and a
// baseline reset. cleared_count() likewise must equal the number of cleared
// alarm_log() entries.
TEST(HeartbeatTest, AlarmedCountTracksAlarmsEveryTick) {
  sim::Simulation sim;
  const DualPorted d = MakeDualPorted();
  fabric::Fabric fabric(sim, d.topo);
  HeartbeatMesh::Config config;
  config.participants = {d.socket, d.nic};
  config.period = TimeNs::Millis(1);
  HeartbeatMesh mesh(fabric, config);
  mesh.Start();

  size_t max_alarmed = 0;
  const auto cleared_in_log = [&mesh] {
    return static_cast<size_t>(
        std::count_if(mesh.alarm_log().begin(), mesh.alarm_log().end(),
                      [](const HeartbeatMesh::AlarmEvent& event) { return event.cleared; }));
  };
  const auto run = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      sim.RunFor(TimeNs::Millis(1));
      ASSERT_EQ(mesh.alarmed_count(), mesh.Alarms().size()) << "at " << sim.Now().ToString();
      ASSERT_EQ(mesh.cleared_count(), cleared_in_log()) << "at " << sim.Now().ToString();
      max_alarmed = std::max(max_alarmed, mesh.alarmed_count());
    }
  };
  const auto slow = [](int64_t us) { return fabric::LinkFault{1.0, TimeNs::Micros(us)}; };

  run(20);  // Learn the fast-port baseline.
  // Both ports degraded: the route stays on port 0, whose latency jumps.
  fabric.InjectLinkFault(d.up1, slow(5));
  fabric.InjectLinkFault(d.up0, slow(20));
  run(10);
  ASSERT_GT(mesh.alarmed_count(), 0u);
  // Port 0 heals in place: recovery clears the alarms.
  fabric.ClearLinkFault(d.up0);
  run(20);
  EXPECT_EQ(mesh.alarmed_count(), 0u);
  const size_t recovered = mesh.alarm_log().size();
  EXPECT_GT(recovered, 0u);
  // Raise again, then heal port 1 instead: the pairs re-route to it, which
  // closes their alarms.
  fabric.InjectLinkFault(d.up0, slow(20));
  run(10);
  ASSERT_GT(mesh.alarmed_count(), 0u);
  const uint64_t epoch = fabric.route_epoch();
  fabric.ClearLinkFault(d.up1);
  EXPECT_GT(fabric.route_epoch(), epoch);
  run(1);
  EXPECT_EQ(mesh.alarmed_count(), 0u);
  // Back to port 0, degraded past the threshold again, then a reset.
  fabric.ClearLinkFault(d.up0);
  run(20);
  fabric.InjectLinkFault(d.up1, slow(5));
  fabric.InjectLinkFault(d.up0, slow(20));
  run(10);
  ASSERT_GT(mesh.alarmed_count(), 0u);
  mesh.ResetBaselines();
  EXPECT_EQ(mesh.alarmed_count(), 0u);
  EXPECT_EQ(mesh.Alarms().size(), 0u);
  EXPECT_EQ(mesh.cleared_count(), mesh.alarm_log().size());  // Every episode closed.
  run(20);

  EXPECT_GE(max_alarmed, 2u);
  EXPECT_GT(mesh.alarm_log().size(), recovered);
}

TEST(HeartbeatTest, AlarmLogRecordsRaiseAndClearEpisodes) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));
  EXPECT_TRUE(mesh->alarm_log().empty());

  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  host.fabric().InjectLinkFault(path.hops[0].link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(20));
  ASSERT_FALSE(mesh->alarm_log().empty());
  const size_t raised = mesh->alarm_log().size();
  for (const auto& event : mesh->alarm_log()) {
    EXPECT_FALSE(event.cleared);
    EXPECT_GE(event.raised_at, TimeNs::Millis(20));
  }

  host.fabric().ClearLinkFault(path.hops[0].link);
  host.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh->Alarms().empty());
  // Recovery closes every episode in place; no new episodes appear.
  EXPECT_EQ(mesh->alarm_log().size(), raised);
  for (const auto& event : mesh->alarm_log()) {
    EXPECT_TRUE(event.cleared);
    EXPECT_GT(event.cleared_at, event.raised_at);
  }
}

}  // namespace
}  // namespace mihn::anomaly
