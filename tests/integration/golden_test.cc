// Golden byte-identity gates: pinned hashes of outputs that the
// determinism contract says must never move under a refactor or a
// performance change — a churned multi-tenant fleet's digest, report,
// root-cause view and link snapshots; a collector's full metric store;
// and the policy_grid sweep report. The expectations were captured before
// the telemetry read path moved off per-link tenant maps; a change that
// alters any of these bytes is a behaviour change, not an optimisation.
//
// Floating-point values are folded as hexfloats, so a pinned hash moves
// on any bit-level change, not just on a printed-digit change.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/anomaly/root_cause.h"
#include "src/chaos/sweep.h"
#include "src/fleet/fleet.h"
#include "src/host/host_network.h"
#include "src/sim/random.h"

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

struct FleetGolden {
  uint64_t digest = 0;
  uint64_t report = 0;
  uint64_t root_cause = 0;
  uint64_t snapshots = 0;
};

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
        fabric::PacketSpec pkt;
        pkt.path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
        pkt.bytes = 256 + 64 * t;
        pkt.tenant = 40;
        host.fabric().SendPacket(std::move(pkt));
      }
    }
    f.Tick();
  }

  FleetGolden out;
  out.digest = f.TelemetryDigest();
  Fnv report;
  report.Add(f.RenderReport());
  out.report = report.value();

  const fleet::FleetRootCause view = f.RootCauseView();
  EXPECT_FALSE(view.hosts.empty());
  EXPECT_FALSE(view.suspects.empty());
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
  out.root_cause = rc.value();

  Fnv snaps;
  for (int h = 0; h < kHosts; ++h) {
    for (const fabric::LinkSnapshot& snap : f.host(h).fabric().SnapshotAll()) {
      FoldSnapshot(snaps, snap);
    }
  }
  out.snapshots = snaps.value();
  return out;
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

// One host with the collector sampling every millisecond: several tenants
// sharing links, a zero-demand flow (its tenant series must exist at rate
// 0), packet traffic, a fault, and flows stopping mid-run. The hash covers
// every series key and every retained point.
TEST(GoldenTest, CollectorMetricStoreMatchesPinnedHash) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kCollectorOnly;
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
      fabric::PacketSpec pkt;
      pkt.path = *fabric.Route(server.gpus[0], server.sockets[0]);
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
  ASSERT_GT(collector.series_count(), 0u);
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
  EXPECT_EQ(Hex(fnv.value()), "0xd4d52908a689c6ca");
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
