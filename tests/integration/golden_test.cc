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
