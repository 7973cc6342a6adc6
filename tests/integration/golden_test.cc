// Golden byte-identity gates: pinned hashes of outputs that the
// determinism contract says must never move under a refactor or a
// performance change — a churned multi-tenant fleet's digest, report,
// root-cause view and link snapshots; a collector's full metric store;
// a collector whose rings wrap; a detector bank's anomaly log; one fabric
// under a seeded sequence of every mutator; and the policy_grid sweep
// report. The expectations were captured before the telemetry read path
// moved off per-link tenant maps (fleet, collector, sweep), before the
// metric store moved to handle-indexed, on-demand rings (wrapped
// collector, bank log) and before the fabric's flow map became a dense
// id-ordered table (fabric op sequence); a change that alters any of
// these bytes is a behaviour change, not an optimisation.
//
// Floating-point values are folded as hexfloats, so a pinned hash moves
// on any bit-level change, not just on a printed-digit change.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/anomaly/bank.h"
#include "src/anomaly/root_cause.h"
#include "src/chaos/sweep.h"
#include "src/fleet/fleet.h"
#include "src/host/host_network.h"
#include "src/sim/random.h"
#include "src/topology/presets.h"

namespace mihn {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

class Fnv {
 public:
  void Add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    Add(std::string_view(buf));
  }
  void Add(int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64 ";", v);
    Add(std::string_view(buf));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void FoldSnapshot(Fnv& fnv, const fabric::LinkSnapshot& snap) {
  fnv.Add(static_cast<int64_t>(snap.link));
  fnv.Add(static_cast<int64_t>(snap.forward));
  fnv.Add(snap.capacity_bps);
  fnv.Add(snap.rate_bps);
  fnv.Add(snap.utilization);
  fnv.Add(snap.bytes_total);
  fnv.Add(static_cast<int64_t>(snap.packets));
  fnv.Add("rt");
  for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
    fnv.Add(static_cast<int64_t>(tenant));
    fnv.Add(rate);
  }
  fnv.Add("bt");
  for (const auto& [tenant, bytes] : snap.bytes_by_tenant) {
    fnv.Add(static_cast<int64_t>(tenant));
    fnv.Add(bytes);
  }
  for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
    fnv.Add(snap.rate_by_class_bps[static_cast<size_t>(k)]);
    fnv.Add(snap.bytes_by_class[static_cast<size_t>(k)]);
  }
}

uint64_t FoldRootCause(const fleet::FleetRootCause& view) {
  Fnv rc;
  for (const fleet::HostCongestion& host : view.hosts) {
    rc.Add(static_cast<int64_t>(host.host));
    for (const anomaly::CongestionReport& r : host.reports) {
      rc.Add(static_cast<int64_t>(r.link.link));
      rc.Add(static_cast<int64_t>(r.link.forward));
      rc.Add(r.utilization);
      rc.Add(static_cast<int64_t>(r.dominant_class));
      rc.Add(r.spill_fraction);
      rc.Add(r.monitor_fraction);
      for (const anomaly::TenantShare& share : r.tenants) {
        rc.Add(static_cast<int64_t>(share.tenant));
        rc.Add(share.share);
      }
    }
  }
  for (const fleet::FleetSuspect& s : view.suspects) {
    rc.Add(static_cast<int64_t>(s.tenant));
    rc.Add(s.share_sum);
    rc.Add(static_cast<int64_t>(s.hosts_implicated));
  }
  return rc.value();
}

struct FleetGolden {
  uint64_t digest = 0;
  uint64_t report = 0;
  uint64_t root_cause = 0;
  uint64_t snapshots = 0;
};

// Hashes a finished fleet run: digest, report, root-cause view (which must
// name congested hosts and suspects) and every host's link snapshots.
FleetGolden FoldFleet(fleet::Fleet& f) {
  FleetGolden out;
  out.digest = f.TelemetryDigest();
  Fnv report;
  report.Add(f.RenderReport());
  out.report = report.value();

  const fleet::FleetRootCause view = f.RootCauseView();
  EXPECT_FALSE(view.hosts.empty());
  EXPECT_FALSE(view.suspects.empty());
  out.root_cause = FoldRootCause(view);

  Fnv snaps;
  for (int h = 0; h < f.host_count(); ++h) {
    for (const fabric::LinkSnapshot& snap : f.host(h).fabric().SnapshotAll()) {
      FoldSnapshot(snaps, snap);
    }
  }
  out.snapshots = snaps.value();
  return out;
}

// 64 hosts in two racks, DDIO off. Cross-host flows from three tenants;
// six intra-host flows per host from four more, plus a fifth whose only
// flow runs at zero demand (present on its links at rate 0); packets from a
// packet-only tenant; one seeded demand change per host per tick and a
// stop/start wave halfway through.
FleetGolden RunGoldenFleet(int worker_threads) {
  constexpr int kHosts = 64;
  constexpr int kTicks = 24;
  constexpr int kIntraPerHost = 6;
  fleet::Fleet::Options options;
  options.host.fabric.ddio_enabled = false;
  options.worker_threads = worker_threads;
  options.clamp_workers_to_hardware = false;
  options.congestion_threshold = 0.6;
  fleet::Fleet f(kHosts, options);
  sim::Rng rng(0x60d1e5);

  for (int h = 0; h < kHosts; h += 2) {
    fleet::CrossHostFlowSpec spec;
    spec.tenant = static_cast<fabric::TenantId>(7 + h % 3);
    spec.src_host = h;
    spec.dst_host = (h + 5 + 32 * (h % 4 == 0 ? 1 : 0)) % kHosts;
    spec.demand = Bandwidth::Gbps(static_cast<double>(rng.UniformInt(20, 90)));
    f.StartCrossHostFlow(spec);
  }

  std::vector<std::vector<fabric::FlowId>> intra(kHosts);
  const auto start_intra = [&](int h, int k) {
    HostNetwork& host = f.host(h);
    const topology::Server& server = host.server();
    topology::ComponentId src = topology::kInvalidComponent;
    switch (k % 3) {
      case 0:
        src = server.ssds[static_cast<size_t>(k) % server.ssds.size()];
        break;
      case 1:
        src = server.nics[static_cast<size_t>(k) % server.nics.size()];
        break;
      default:
        src = server.gpus[static_cast<size_t>(k) % server.gpus.size()];
        break;
    }
    const topology::ComponentId dst =
        server.dimms[static_cast<size_t>(h + k) % server.dimms.size()];
    fabric::FlowSpec spec;
    spec.path = *host.fabric().Route(src, dst);
    // The zero-demand flow gets a tenant of its own.
    spec.tenant = static_cast<fabric::TenantId>(k == 5 ? 15 : 11 + (h + k) % 4);
    spec.demand = k == 5 ? Bandwidth::Zero()
                         : Bandwidth::Gbps(static_cast<double>(rng.UniformInt(4, 120)));
    spec.weight = 1.0 + static_cast<double>(k % 2);
    return host.fabric().StartFlow(spec);
  };
  for (int h = 0; h < kHosts; ++h) {
    for (int k = 0; k < kIntraPerHost; ++k) {
      intra[static_cast<size_t>(h)].push_back(start_intra(h, k));
    }
  }

  for (int t = 0; t < kTicks; ++t) {
    for (int h = 0; h < kHosts; ++h) {
      HostNetwork& host = f.host(h);
      std::vector<fabric::FlowId>& flows = intra[static_cast<size_t>(h)];
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, kIntraPerHost - 2));
      host.fabric().SetFlowDemand(
          flows[pick], Bandwidth::Gbps(static_cast<double>(rng.UniformInt(0, 160))));
      if (t == kTicks / 2 && h % 3 == 0) {
        host.fabric().StopFlow(flows[1]);
        flows[1] = start_intra(h, 1);
      }
      if (h % 8 == 0) {
        const topology::Path path =
            *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
        fabric::PacketSpec pkt;
        pkt.path = &path;
        pkt.bytes = 256 + 64 * t;
        pkt.tenant = 40;
        host.fabric().SendPacket(std::move(pkt));
      }
    }
    f.Tick();
  }

  return FoldFleet(f);
}

TEST(GoldenTest, ChurnedMultiTenantFleetMatchesPinnedHashes) {
  const FleetGolden serial = RunGoldenFleet(0);
  EXPECT_EQ(Hex(serial.digest), "0xd97b52335a5ac23c");
  EXPECT_EQ(Hex(serial.report), "0x7755e504522e3f9e");
  EXPECT_EQ(Hex(serial.root_cause), "0x753494fbca9faa60");
  EXPECT_EQ(Hex(serial.snapshots), "0x4199d158ed9dd34d");

  // The pinned bytes hold at any worker count.
  const FleetGolden pooled = RunGoldenFleet(3);
  EXPECT_EQ(pooled.digest, serial.digest);
  EXPECT_EQ(pooled.report, serial.report);
  EXPECT_EQ(pooled.root_cause, serial.root_cause);
  EXPECT_EQ(pooled.snapshots, serial.snapshots);
}

struct QuietFleetGolden {
  FleetGolden fleet;
  uint64_t completions = 0;  // Every (host, end ns) in delivery order.
  uint64_t rates = 0;        // Every cross-host flow's coupled rate, every tick.
};

// 64 hosts in two racks, DDIO on, where most hosts carry one cross-host
// stage and nothing else, so most hosts see no mutation on most ticks.
// Around them: three hosts change an intra-host demand every tick (their
// partners' coupled rates move), one quiet stage host loses 85% of its SSD
// link mid-run and gets it back, one cross-host flow stops and restarts,
// finite transfers on quiet stage hosts complete across several ticks, one
// quiet stage host carries DDIO writes whose spill contends with its stage
// (one write's demand drops once), and one sends packets.
QuietFleetGolden RunQuietFleet(int worker_threads) {
  constexpr int kHosts = 64;
  constexpr int kTicks = 24;
  constexpr int kChurnHosts[] = {5, 22, 41};
  constexpr int kChurnFlows = 5;
  constexpr int kFaultHost = 12;
  constexpr int kRestartHost = 30;
  constexpr int kDdioHost = 27;
  constexpr int kPacketHost = 44;
  fleet::Fleet::Options options;
  options.worker_threads = worker_threads;
  options.clamp_workers_to_hardware = false;
  options.congestion_threshold = 0.5;
  // Data lingers long enough that the DDIO writes below overflow the LLC
  // and spill to memory.
  options.host.fabric.llc_drain_time = TimeNs::Micros(400);
  fleet::Fleet f(kHosts, options);
  sim::Rng rng(0x9e1e7);
  QuietFleetGolden out;
  std::vector<std::pair<int, int64_t>> completions;

  // Even hosts send, each to a distinct odd host; every fourth flow
  // crosses into the other rack.
  std::vector<fleet::CrossHostFlowSpec> specs;
  std::vector<fleet::CrossFlowId> ids;
  for (int h = 0; h < kHosts; h += 2) {
    fleet::CrossHostFlowSpec spec;
    spec.tenant = static_cast<fabric::TenantId>(7 + h % 3);
    spec.src_host = h;
    spec.dst_host = (h + 7 + 32 * (h % 8 == 0 ? 1 : 0)) % kHosts;
    spec.demand = Bandwidth::Gbps(static_cast<double>(rng.UniformInt(20, 90)));
    if (spec.dst_host == kDdioHost) {
      spec.dst_device = f.host(kDdioHost).server().dimms[2];
    }
    specs.push_back(spec);
    ids.push_back(f.StartCrossHostFlow(spec));
  }

  std::vector<std::vector<fabric::FlowId>> churn(std::size(kChurnHosts));
  for (size_t c = 0; c < std::size(kChurnHosts); ++c) {
    HostNetwork& host = f.host(kChurnHosts[c]);
    const topology::Server& server = host.server();
    // Heavier-weighted flows from the SSD a sending stage starts at and
    // from every NIC, one of them a receiving stage's: either way they
    // contend with the host's stage on its first PCIe link.
    for (int k = 0; k < kChurnFlows; ++k) {
      fabric::FlowSpec spec;
      spec.path = *host.fabric().Route(
          k == 0 ? server.ssds[0] : server.nics[static_cast<size_t>(k - 1) % server.nics.size()],
          server.dimms[0]);
      spec.tenant = static_cast<fabric::TenantId>(11 + k);
      spec.demand = Bandwidth::Gbps(static_cast<double>(rng.UniformInt(10, 200)));
      spec.weight = 3.0;
      churn[c].push_back(host.fabric().StartFlow(spec));
    }
  }

  // Two DDIO writes, one from the receiving stage's NIC, whose spill shares
  // a degraded memory-controller link with the stage: each solve moves the
  // spill coupling one step, and after the other write's demand drops it
  // takes several solves to settle.
  fabric::FlowId ddio_other = fabric::kInvalidFlow;
  {
    HostNetwork& host = f.host(kDdioHost);
    const topology::Server& server = host.server();
    const auto start_ddio = [&](topology::ComponentId nic, double gbps) {
      fabric::FlowSpec spec;
      spec.path = *host.fabric().Route(nic, server.sockets[0]);
      spec.tenant = 20;
      spec.demand = Bandwidth::Gbps(gbps);
      spec.ddio_write = true;
      return host.fabric().StartFlow(spec);
    };
    start_ddio(server.nics[3], 240);
    ddio_other = start_ddio(server.nics[0], 160);
    host.fabric().InjectLinkFault(host.fabric().Route(server.sockets[0], server.dimms[2])->hops[0].link,
                                  fabric::LinkFault{0.1});
  }

  // Finite transfers that share the stage's first hop (the SSD link on a
  // sending host, the NIC's on a receiving one).
  const auto start_transfer = [&](int h, bool from_nic, int64_t bytes) {
    HostNetwork& host = f.host(h);
    const topology::Server& server = host.server();
    fabric::TransferSpec transfer;
    transfer.flow.path =
        *host.fabric().Route(from_nic ? server.nics[0] : server.ssds[0], server.dimms[1]);
    transfer.flow.tenant = 30;
    transfer.flow.demand = Bandwidth::Gbps(50);
    transfer.bytes = bytes;
    transfer.on_complete = [&completions, h](const fabric::TransferResult& result) {
      completions.emplace_back(h, result.end.nanos());
    };
    host.fabric().StartTransfer(std::move(transfer));
  };
  start_transfer(2, false, 9 * 1000 * 1000);
  start_transfer(18, false, 22 * 1000 * 1000);
  start_transfer(50, false, 47 * 1000 * 1000);
  start_transfer(9, true, 15 * 1000 * 1000);

  const topology::LinkId fault_link =
      f.host(kFaultHost)
          .fabric()
          .Route(f.host(kFaultHost).server().ssds[0], f.host(kFaultHost).server().dimms[0])
          ->hops.front()
          .link;
  const topology::Path packet_path = *f.host(kPacketHost).fabric().Route(
      f.host(kPacketHost).server().nics[0], f.host(kPacketHost).server().sockets[0]);
  const size_t restart_index = static_cast<size_t>(kRestartHost / 2);

  Fnv rates;
  for (int t = 0; t < kTicks; ++t) {
    for (size_t c = 0; c < std::size(kChurnHosts); ++c) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, kChurnFlows - 1));
      f.host(kChurnHosts[c])
          .fabric()
          .SetFlowDemand(churn[c][pick],
                         Bandwidth::Gbps(static_cast<double>(rng.UniformInt(0, 160))));
    }
    if (t == 8) {
      f.host(kFaultHost).fabric().InjectLinkFault(fault_link, fabric::LinkFault{0.15});
    }
    if (t == 16) {
      f.host(kFaultHost).fabric().ClearLinkFault(fault_link);
    }
    if (t == 10) {
      f.StopCrossHostFlow(ids[restart_index]);
    }
    if (t == 14) {
      ids[restart_index] = f.StartCrossHostFlow(specs[restart_index]);
    }
    if (t == 4) {
      f.host(kDdioHost).fabric().SetFlowDemand(ddio_other, Bandwidth::Gbps(30));
    }
    if (t == 6) {
      start_transfer(2, false, 13 * 1000 * 1000);
      start_transfer(34, false, 26 * 1000 * 1000);
    }
    fabric::PacketSpec pkt;
    pkt.path = &packet_path;
    pkt.bytes = 512 + 64 * t;
    pkt.tenant = 40;
    f.host(kPacketHost).fabric().SendPacket(std::move(pkt));
    f.Tick();
    for (const fleet::CrossFlowId id : ids) {
      rates.Add(f.CrossHostRate(id).bytes_per_sec());
    }
  }
  // Let the longest transfers drain.
  f.Run(12);

  EXPECT_GE(completions.size(), 6u);
  out.fleet = FoldFleet(f);
  Fnv fnv;
  for (const auto& [host, end] : completions) {
    fnv.Add(static_cast<int64_t>(host));
    fnv.Add(end);
  }
  out.completions = fnv.value();
  out.rates = rates.value();
  return out;
}

// Pinned before the cross-host coupling learned to skip hosts with no new
// mutation: the skip must not move a single byte.
TEST(GoldenTest, QuietFleetCouplingMatchesPinnedHashes) {
  const QuietFleetGolden serial = RunQuietFleet(0);
  EXPECT_EQ(Hex(serial.fleet.digest), "0xda0ff681ed5ab636");
  EXPECT_EQ(Hex(serial.fleet.report), "0x7aa0e9dd4d99aad9");
  EXPECT_EQ(Hex(serial.fleet.root_cause), "0x2f740c437c698c57");
  EXPECT_EQ(Hex(serial.fleet.snapshots), "0x78cd8a340d8d6ad7");
  EXPECT_EQ(Hex(serial.completions), "0x2e4694fc319e95c2");
  EXPECT_EQ(Hex(serial.rates), "0xe0d792aa3509ac52");

  const QuietFleetGolden pooled = RunQuietFleet(3);
  EXPECT_EQ(pooled.fleet.digest, serial.fleet.digest);
  EXPECT_EQ(pooled.fleet.report, serial.fleet.report);
  EXPECT_EQ(pooled.fleet.root_cause, serial.fleet.root_cause);
  EXPECT_EQ(pooled.fleet.snapshots, serial.fleet.snapshots);
  EXPECT_EQ(pooled.completions, serial.completions);
  EXPECT_EQ(pooled.rates, serial.rates);
}

// One host with the collector sampling every millisecond: several tenants
// sharing links, a zero-demand flow (its tenant series must exist at rate
// 0), packet traffic, a fault, and flows stopping mid-run. The hash covers
// every series key and every retained point.
uint64_t RunGoldenCollector(size_t series_capacity, uint64_t* dropped_points) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kCollectorOnly;
  options.telemetry.series_capacity = series_capacity;
  sim::Simulation sim(17);
  HostNetwork host(sim, options);
  const topology::Server& server = host.server();
  fabric::Fabric& fabric = host.fabric();
  std::vector<fabric::FlowId> flows;
  for (int k = 0; k < 8; ++k) {
    fabric::FlowSpec spec;
    const topology::ComponentId src =
        k % 2 == 0 ? server.ssds[static_cast<size_t>(k / 2) % server.ssds.size()]
                   : server.nics[static_cast<size_t>(k / 2) % server.nics.size()];
    spec.path = *fabric.Route(src, server.dimms[static_cast<size_t>(k) % server.dimms.size()]);
    spec.tenant = static_cast<fabric::TenantId>(k == 3 ? 5 : 1 + k % 3);
    spec.demand = k == 3 ? Bandwidth::Zero() : Bandwidth::GBps(2.0 + k);
    spec.ddio_write = false;
    flows.push_back(fabric.StartFlow(spec));
  }
  for (int ms = 0; ms < 40; ++ms) {
    if (ms % 5 == 0) {
      const topology::Path path = *fabric.Route(server.gpus[0], server.sockets[0]);
      fabric::PacketSpec pkt;
      pkt.path = &path;
      pkt.bytes = 4096;
      pkt.tenant = 9;
      fabric.SendPacket(std::move(pkt));
    }
    if (ms == 10) {
      fabric.InjectLinkFault(fabric.Route(server.ssds[0], server.dimms[0])->hops[0].link,
                             fabric::LinkFault{0.25, TimeNs::Micros(3)});
    }
    if (ms == 20) {
      fabric.StopFlow(flows[0]);
      fabric.StopFlow(flows[5]);
    }
    if (ms == 30) {
      fabric.SetFlowDemand(flows[3], Bandwidth::GBps(1));
    }
    sim.RunFor(TimeNs::Millis(1));
  }
  const telemetry::Collector& collector = host.collector();
  EXPECT_GT(collector.series_count(), 0u);
  // Tenant 5's only flow runs at zero demand until 30 ms: its series exists.
  const topology::Path zero_path = *fabric.Route(server.nics[1 % server.nics.size()],
                                                 server.dimms[3 % server.dimms.size()]);
  const topology::DirectedLink zero_hop = zero_path.hops.front();
  EXPECT_NE(collector.Series(telemetry::Collector::TenantRateKey(zero_hop.link,
                                                                 zero_hop.forward, 5)),
            nullptr);
  Fnv fnv;
  for (const std::string& key : collector.Keys()) {
    fnv.Add(key);
    collector.Series(key)->ForEach([&fnv](const sim::TimePoint& p) {
      fnv.Add(p.time.nanos());
      fnv.Add(p.value);
    });
  }
  *dropped_points = collector.total_dropped_points();
  return fnv.value();
}

TEST(GoldenTest, CollectorMetricStoreMatchesPinnedHash) {
  uint64_t dropped = 0;
  EXPECT_EQ(Hex(RunGoldenCollector(4096, &dropped)), "0xd4d52908a689c6ca");
  EXPECT_EQ(dropped, 0u);
}

// The same run with 16-point rings: every series wraps (40 samples), so
// the pinned hash covers eviction order and the dropped-point count.
TEST(GoldenTest, WrappedCollectorRingsMatchPinnedHash) {
  uint64_t dropped = 0;
  Fnv fnv;
  fnv.Add(static_cast<int64_t>(RunGoldenCollector(16, &dropped)));
  fnv.Add(static_cast<int64_t>(dropped));
  EXPECT_EQ(Hex(fnv.value()), "0xe246061e1bd2e619");
  EXPECT_GT(dropped, 0u);
}

// A campaign-style detector bank (EWMA on every link-utilization series
// and every socket cache-hit series) scanned every 700 us, off the
// collector's 1 ms grid, over a host that takes a link fault, a demand
// surge, a tenant that first appears mid-run, and a rebaseline. The hash
// covers the whole anomaly log.
TEST(GoldenTest, DetectorBankAnomalyLogMatchesPinnedHash) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kCollectorOnly;
  sim::Simulation sim(29);
  HostNetwork host(sim, options);
  const topology::Server& server = host.server();
  fabric::Fabric& fabric = host.fabric();

  anomaly::DetectorBank bank;
  const topology::Topology& topo = host.topo();
  for (topology::LinkId link = 0; link < static_cast<topology::LinkId>(topo.link_count());
       ++link) {
    for (const bool forward : {true, false}) {
      bank.Attach(telemetry::Collector::LinkUtilKey(link, forward),
                  std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
    }
  }
  for (const topology::ComponentId socket : server.sockets) {
    bank.Attach(telemetry::Collector::CacheHitKey(socket),
                std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
  }

  std::vector<fabric::FlowId> flows;
  const auto start = [&](topology::ComponentId src, topology::ComponentId dst,
                         fabric::TenantId tenant, double gbps, bool ddio) {
    fabric::FlowSpec spec;
    spec.path = *fabric.Route(src, dst);
    spec.tenant = tenant;
    spec.demand = Bandwidth::GBps(gbps);
    spec.ddio_write = ddio;
    flows.push_back(fabric.StartFlow(spec));
  };
  for (int k = 0; k < 6; ++k) {
    const topology::ComponentId src =
        k % 2 == 0 ? server.nics[static_cast<size_t>(k / 2) % server.nics.size()]
                   : server.ssds[static_cast<size_t>(k / 2) % server.ssds.size()];
    start(src, server.dimms[static_cast<size_t>(k) % server.dimms.size()],
          static_cast<fabric::TenantId>(1 + k % 3), 3.0 + k, k % 2 == 0);
  }

  sim::EventHandle scan =
      sim.SchedulePeriodic(TimeNs::Micros(700), [&] { bank.Scan(host.collector()); });
  const topology::LinkId faulted = fabric.Route(server.nics[0], server.dimms[0])->hops[0].link;
  for (int ms = 0; ms < 60; ++ms) {
    if (ms == 15) {
      fabric.InjectLinkFault(faulted, fabric::LinkFault{0.2, TimeNs::Micros(5)});
    }
    if (ms == 22) {
      start(server.gpus[0], server.dimms[1 % server.dimms.size()], 8, 20.0, true);
    }
    if (ms == 30) {
      fabric.SetFlowDemand(flows[1], Bandwidth::GBps(40));
    }
    if (ms == 38) {
      fabric.ClearLinkFault(faulted);
      bank.Rebaseline();
    }
    if (ms == 45) {
      fabric.StopFlow(flows[2]);
    }
    sim.RunFor(TimeNs::Millis(1));
  }
  scan.Cancel();

  ASSERT_FALSE(bank.log().empty());
  Fnv fnv;
  fnv.Add(static_cast<int64_t>(bank.log().size()));
  for (const anomaly::Anomaly& a : bank.log()) {
    fnv.Add(a.at.nanos());
    fnv.Add(a.metric);
    fnv.Add(a.value);
    fnv.Add(a.score);
    fnv.Add(a.detail);
  }
  EXPECT_EQ(Hex(fnv.value()), "0xbbe8f18bcbe39c4a");
}

// One fabric (DDIO on) driven by a seeded sequence of every mutator:
// continuous flows and DDIO writes whose spill companions are created,
// resized and removed; finite transfers, several started together so they
// complete in one batch; stops, single and batched limits, weights and
// demands; fault inject/clear; config changes; packets. After every step
// the hash folds each active flow's info and rate, every directed link's
// view, each socket's cache stats and the solve/mutation counts, then the
// transfer results in delivery order.
uint64_t RunGoldenFabric() {
  sim::Simulation sim(41);
  const topology::Server server = topology::CommodityTwoSocket();
  fabric::Fabric fabric(sim, server.topo);
  sim::Rng rng(0xfab1e);
  Fnv fnv;
  std::vector<fabric::FlowId> flows;
  std::vector<fabric::TransferResult> results;

  const auto pick = [&rng](const std::vector<topology::ComponentId>& from) {
    return from[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
  };
  // A device-to-memory or device-to-socket route; the socket ones may be
  // DDIO writes. Empty when faults leave no route.
  const auto random_spec = [&]() {
    fabric::FlowSpec spec;
    const int64_t kind = rng.UniformInt(0, 2);
    const topology::ComponentId src =
        kind == 0 ? pick(server.nics) : (kind == 1 ? pick(server.ssds) : pick(server.gpus));
    const bool to_socket = rng.Bernoulli(0.5);
    const topology::ComponentId dst = to_socket ? pick(server.sockets) : pick(server.dimms);
    if (const auto path = fabric.Route(src, dst)) {
      spec.path = *path;
    }
    spec.tenant = static_cast<fabric::TenantId>(rng.UniformInt(1, 5));
    spec.demand = Bandwidth::Gbps(static_cast<double>(rng.UniformInt(1, 200)));
    spec.weight = 1.0 + static_cast<double>(rng.UniformInt(0, 2));
    spec.ddio_write = to_socket && rng.Bernoulli(0.7);
    return spec;
  };
  const auto random_flow = [&]() {
    return flows[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(flows.size()) - 1))];
  };
  const auto start_transfer = [&](fabric::FlowSpec spec, int64_t bytes) {
    fabric::TransferSpec t;
    t.flow = std::move(spec);
    t.bytes = bytes;
    t.on_complete = [&results](const fabric::TransferResult& r) { results.push_back(r); };
    flows.push_back(fabric.StartTransfer(std::move(t)));
  };
  std::vector<topology::LinkId> faulted;
  int spill_steps = 0;

  for (int step = 0; step < 400; ++step) {
    const int64_t op = flows.empty() ? 0 : rng.UniformInt(0, 11);
    switch (op) {
      case 0:
      case 1:
        flows.push_back(fabric.StartFlow(random_spec()));
        break;
      case 2: {
        // A batch of identical transfers on one route: they drain together.
        const fabric::FlowSpec spec = random_spec();
        const int64_t bytes = rng.UniformInt(1, 64) * 64 * 1024;
        const int64_t copies = rng.UniformInt(1, 3);
        for (int64_t c = 0; c < copies; ++c) {
          start_transfer(spec, bytes);
        }
        break;
      }
      case 3:
        fabric.StopFlow(random_flow());
        break;
      case 4:
        fabric.SetFlowLimit(random_flow(),
                            Bandwidth::Gbps(static_cast<double>(rng.UniformInt(0, 100))));
        break;
      case 5: {
        std::vector<std::pair<fabric::FlowId, Bandwidth>> limits;
        for (int64_t k = rng.UniformInt(1, 4); k > 0; --k) {
          limits.emplace_back(random_flow(),
                              Bandwidth::Gbps(static_cast<double>(rng.UniformInt(1, 300))));
        }
        limits.emplace_back(fabric::FlowId{999999}, Bandwidth::Gbps(1));  // Unknown: skipped.
        fabric.SetFlowLimitsBatch(limits);
        break;
      }
      case 6:
        fabric.SetFlowWeight(random_flow(), 0.5 + static_cast<double>(rng.UniformInt(0, 6)));
        break;
      case 7:
      case 8:
        fabric.SetFlowDemand(random_flow(),
                             Bandwidth::Gbps(static_cast<double>(rng.UniformInt(0, 250))));
        break;
      case 9:
        if (!faulted.empty() && rng.Bernoulli(0.5)) {
          fabric.ClearLinkFault(faulted.back());
          faulted.pop_back();
        } else {
          const auto link = static_cast<topology::LinkId>(
              rng.UniformInt(0, static_cast<int64_t>(server.topo.link_count()) - 1));
          const double factors[] = {0.0, 0.3, 0.7, 1.0};
          fabric.InjectLinkFault(
              link, fabric::LinkFault{factors[rng.UniformInt(0, 3)],
                                      TimeNs::Nanos(rng.UniformInt(0, 2000))});
          faulted.push_back(link);
        }
        break;
      case 10: {
        fabric::FabricConfig config = fabric.config();
        config.ddio_enabled = rng.Bernoulli(0.7);
        config.iommu_enabled = rng.Bernoulli(0.3);
        config.relaxed_ordering = rng.Bernoulli(0.6);
        config.ddio_ways = static_cast<int>(rng.UniformInt(1, 4));
        fabric.SetConfig(config);
        break;
      }
      default: {
        const fabric::FlowSpec spec = random_spec();
        if (!spec.path.empty()) {
          fabric::PacketSpec pkt;
          pkt.path = &spec.path;
          pkt.bytes = rng.UniformInt(0, 8192);
          pkt.tenant = spec.tenant;
          fabric.SendPacket(std::move(pkt));
        }
        break;
      }
    }
    sim.RunFor(TimeNs::Micros(rng.UniformInt(1, 400)));

    fnv.Add(sim.Now().nanos());
    for (const fabric::FlowId id : fabric.ActiveFlows()) {
      const std::optional<fabric::FlowInfo> info = fabric.GetFlowInfo(id);
      EXPECT_TRUE(info.has_value());
      fnv.Add(info->id);
      fnv.Add(static_cast<int64_t>(info->tenant));
      fnv.Add(static_cast<int64_t>(info->klass));
      fnv.Add(info->rate.bytes_per_sec());
      fnv.Add(info->demand.bytes_per_sec());
      fnv.Add(info->limit.bytes_per_sec());
      fnv.Add(info->weight);
      fnv.Add(info->bytes_moved);
      fnv.Add(info->bytes_remaining);
      fnv.Add(info->start_time.nanos());
      for (const topology::DirectedLink& hop : info->path->hops) {
        fnv.Add(static_cast<int64_t>(hop.link));
        fnv.Add(static_cast<int64_t>(hop.forward));
      }
      fnv.Add(fabric.FlowRate(id).bytes_per_sec());
      spill_steps += info->klass == fabric::TrafficClass::kSpill ? 1 : 0;
    }
    fabric.VisitLinks([&fnv](const fabric::LinkView& view) {
      fnv.Add(view.capacity_bps());
      fnv.Add(view.rate_bps());
      fnv.Add(view.bytes_total());
      fnv.Add(static_cast<int64_t>(view.packets()));
      for (const fabric::TenantCounter& tc : view.tenants()) {
        fnv.Add(static_cast<int64_t>(tc.tenant));
        fnv.Add(static_cast<int64_t>(tc.rate_present) * 2 + static_cast<int64_t>(tc.bytes_present));
        fnv.Add(tc.rate_bps);
        fnv.Add(tc.bytes);
      }
      for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
        fnv.Add(view.rate_by_class_bps()[static_cast<size_t>(k)]);
        fnv.Add(view.bytes_by_class()[static_cast<size_t>(k)]);
      }
    });
    for (const topology::ComponentId socket : server.sockets) {
      const fabric::SocketCacheStats stats = fabric.CacheStats(socket);
      fnv.Add(stats.io_write_rate_bps);
      fnv.Add(stats.hit_rate);
      fnv.Add(stats.spill_rate_bps);
      fnv.Add(stats.working_set_bytes);
      fnv.Add(stats.ddio_capacity_bytes);
    }
    fnv.Add(static_cast<int64_t>(fabric.recompute_count()));
    fnv.Add(static_cast<int64_t>(fabric.mutation_count()));
  }
  sim.RunFor(TimeNs::Millis(50));
  // The sequence reaches what the fleet goldens do not: spill companions
  // and transfers delivered in batches.
  EXPECT_GT(spill_steps, 0);
  EXPECT_GT(results.size(), 20u);
  int batched = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    batched += results[i].end == results[i - 1].end ? 1 : 0;
  }
  EXPECT_GT(batched, 0);
  fnv.Add("results");
  for (const fabric::TransferResult& r : results) {
    fnv.Add(r.id);
    fnv.Add(r.start.nanos());
    fnv.Add(r.end.nanos());
    fnv.Add(r.bytes);
  }
  return fnv.value();
}

TEST(GoldenTest, SeededFabricOpSequenceMatchesPinnedHash) {
  EXPECT_EQ(Hex(RunGoldenFabric()), "0xd907f172ce2a08d6");
}

TEST(GoldenTest, PolicyGridSweepReportMatchesPinnedHash) {
  chaos::SweepConfig config;
  std::string error;
  ASSERT_TRUE(chaos::LoadSweepFile(
      std::string(MIHN_SOURCE_DIR) + "/tools/mihn_chaos/campaigns/policy_grid.chaos", &config,
      &error))
      << error;
  chaos::Sweep sweep(std::move(config));
  chaos::TrialExecutor executor(0);
  const chaos::SweepResult result = sweep.Run(executor);
  ASSERT_TRUE(result.ok()) << result.error;
  Fnv fnv;
  fnv.Add(chaos::SweepReportJson(result));
  EXPECT_EQ(Hex(fnv.value()), "0xb36fce14f2cc11ca");
}

}  // namespace
}  // namespace mihn
