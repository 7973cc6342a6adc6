// Bit-exact determinism of the fabric's observable surface.
//
// The simulator is the oracle for every experiment: if two identically
// seeded runs can disagree in even one snapshot byte, telemetry diffs,
// anomaly baselines, and manager decisions all become unreproducible. This
// regression pins the contract end to end — including the fault table and
// DIMM spill placement state, which are deliberately kept in ordered maps
// (src/fabric/fabric.h) so no hash order can leak into output.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/fabric/fabric.h"
#include "src/sim/simulation.h"
#include "src/topology/presets.h"

namespace mihn::fabric {
namespace {

using sim::Bandwidth;
using sim::Simulation;
using sim::TimeNs;

// Serializes every observable counter with full precision (hexfloat keeps
// every mantissa bit, so "equal dumps" means bit-equal doubles). Void so
// ASSERT_* is usable.
void DumpFabric(Fabric& fabric, const topology::Server& server, std::ostringstream& out) {
  out << std::hexfloat;
  for (const LinkSnapshot& snap : fabric.SnapshotAll()) {
    out << "link=" << snap.link << " fwd=" << snap.forward << " cap=" << snap.capacity_bps
        << " rate=" << snap.rate_bps << " util=" << snap.utilization
        << " bytes=" << snap.bytes_total << " pkts=" << snap.packets;
    for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
      out << " t" << tenant << "=" << rate;
    }
    for (const auto& [tenant, bytes] : snap.bytes_by_tenant) {
      out << " tb" << tenant << "=" << bytes;
    }
    for (const double r : snap.rate_by_class_bps) {
      out << " c=" << r;
    }
    out << "\n";
  }
  for (const topology::ComponentId socket : server.sockets) {
    const SocketCacheStats stats = fabric.CacheStats(socket);
    out << "socket=" << socket << " io=" << stats.io_write_rate_bps
        << " hit=" << stats.hit_rate << " spill=" << stats.spill_rate_bps
        << " ws=" << stats.working_set_bytes << "\n";
  }
  for (const FlowId id : fabric.ActiveFlows()) {
    const auto info = fabric.GetFlowInfo(id);
    ASSERT_TRUE(info.has_value()) << id;
    out << "flow=" << id << " rate=" << info->rate.bytes_per_sec()
        << " moved=" << info->bytes_moved << "\n";
  }
  out << "recomputes=" << fabric.recompute_count() << " mutations=" << fabric.mutation_count()
      << " now=" << fabric.simulation().Now().nanos() << "\n";
}

// One eventful scenario: DDIO inbound writes (exercises spill-DIMM
// placement), cross-socket traffic, faults injected and partially cleared,
// packets, and a mid-run config change.
std::string RunScenario(uint64_t seed) {
  Simulation sim(seed);
  topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);

  auto flow_between = [&](topology::ComponentId src, topology::ComponentId dst, TenantId tenant,
                          bool ddio) {
    FlowSpec spec;
    auto path = fabric.Route(src, dst);
    EXPECT_TRUE(path.has_value());
    spec.path = *path;
    spec.tenant = tenant;
    spec.ddio_write = ddio;
    return fabric.StartFlow(spec);
  };

  flow_between(server.external_hosts[0], server.sockets[0], 1, /*ddio=*/true);
  flow_between(server.external_hosts[1], server.sockets[1], 2, /*ddio=*/true);
  flow_between(server.gpus[0], server.gpus[2], 3, /*ddio=*/false);
  const FlowId limited = flow_between(server.ssds[0], server.dimms[0], 4, /*ddio=*/false);
  fabric.SetFlowLimit(limited, Bandwidth::GBps(2));

  sim.RunFor(TimeNs::Millis(1));
  fabric.InjectLinkFault(topology::LinkId{0}, LinkFault{0.5, TimeNs::Micros(3)});
  fabric.InjectLinkFault(topology::LinkId{3}, LinkFault{0.25, TimeNs::Micros(1)});
  sim.RunFor(TimeNs::Millis(1));
  fabric.ClearLinkFault(topology::LinkId{3});

  PacketSpec packet;
  auto packet_path = fabric.Route(server.nics[0], server.dimms[1]);
  EXPECT_TRUE(packet_path.has_value());
  packet.path = &*packet_path;
  packet.tenant = 1;
  fabric.SendPacket(packet);

  FabricConfig config = fabric.config();
  config.iommu_enabled = !config.iommu_enabled;
  fabric.SetConfig(config);
  sim.RunFor(TimeNs::Millis(1));

  std::ostringstream out;
  DumpFabric(fabric, server, out);
  return out.str();
}

TEST(DeterminismTest, IdenticallySeededRunsProduceByteIdenticalSnapshots) {
  const std::string first = RunScenario(42);
  const std::string second = RunScenario(42);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DumpActuallyObservesActivity) {
  // Guard against the regression test degenerating into comparing two
  // empty strings: the scenario must produce flows, bytes, and cache state.
  const std::string dump = RunScenario(7);
  EXPECT_NE(dump.find("flow="), std::string::npos);
  EXPECT_NE(dump.find("hit="), std::string::npos);
  EXPECT_NE(dump.find("recomputes="), std::string::npos);
}

TEST(DeterminismTest, DifferentFaultInsertionOrderSameState) {
  // The fault table is keyed storage, not history: injecting the same
  // faults in a different order must converge to identical snapshots.
  auto run = [](bool reversed) {
    Simulation sim(1);
    topology::Server server = topology::CommodityTwoSocket();
    Fabric fabric(sim, server.topo);
    FlowSpec spec;
    auto path = fabric.Route(server.external_hosts[0], server.sockets[1]);
    EXPECT_TRUE(path.has_value());
    spec.path = *path;
    spec.tenant = 9;
    fabric.StartFlow(spec);
    const LinkFault faint{0.9, TimeNs::Nanos(10)};
    const LinkFault heavy{0.3, TimeNs::Micros(5)};
    if (reversed) {
      fabric.InjectLinkFault(topology::LinkId{4}, heavy);
      fabric.InjectLinkFault(topology::LinkId{1}, faint);
    } else {
      fabric.InjectLinkFault(topology::LinkId{1}, faint);
      fabric.InjectLinkFault(topology::LinkId{4}, heavy);
    }
    sim.RunFor(TimeNs::Millis(2));
    std::ostringstream out;
    out << std::hexfloat;
    for (const LinkSnapshot& snap : fabric.SnapshotAll()) {
      out << snap.link << ":" << snap.rate_bps << ":" << snap.bytes_total << "\n";
    }
    return out.str();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace mihn::fabric
