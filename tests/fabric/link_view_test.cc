// The borrowed telemetry read path (Fabric::View / VisitLinks) against the
// exporters (Snapshot / SnapshotAll), and its zero-allocation steady state.
//
// Equivalence: on seeded random fabrics — several tenants per link,
// zero-demand flows, packet-only tenants, DDIO spill, faults, stopped
// flows — every directed link's view must agree with Snapshot() exactly:
// the scalars bit-for-bit, and the presence-filtered tenant entries as the
// very maps the snapshot exports. The rate map is also rebuilt from the
// flows themselves, so a tenant entry that is present when no flow of its
// tenant crosses the link (or absent when one does) fails even if view and
// export agree with each other.
//
// Allocation: this binary overrides global operator new/delete with a
// counting shim (which is why it is its own test target: the override is
// link-global), then asserts that a settled fabric's steady-state solve,
// byte accrual and full view pass allocate nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/topology/presets.h"

namespace {

// mihn-check: mutable-ok(operator-new shim state is necessarily link-global)
bool g_counting = false;
// mihn-check: mutable-ok(operator-new shim state is necessarily link-global)
size_t g_allocations = 0;

void* CountedAlloc(size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, std::align_val_t) { return CountedAlloc(size); }
void* operator new[](size_t size, std::align_val_t) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace mihn::fabric {
namespace {

using sim::Bandwidth;
using sim::Rng;
using sim::Simulation;
using sim::TimeNs;

// Packet-only tenants never start a flow.
constexpr TenantId kFirstPacketTenant = 100;

// What one view showed, copied out so the exporter can run afterwards.
struct ViewRecord {
  topology::DirectedLink dlink;
  double capacity_bps = 0.0;
  double rate_bps = 0.0;
  double utilization = 0.0;
  double bytes_total = 0.0;
  uint64_t packets = 0;
  std::map<TenantId, double> rate_by_tenant;
  std::map<TenantId, double> bytes_by_tenant;
  std::array<double, kNumTrafficClasses> rate_by_class{};
  std::array<double, kNumTrafficClasses> bytes_by_class{};
};

ViewRecord Record(const LinkView& view) {
  ViewRecord r;
  r.dlink = view.dlink();
  r.capacity_bps = view.capacity_bps();
  r.rate_bps = view.rate_bps();
  r.utilization = view.utilization();
  r.bytes_total = view.bytes_total();
  r.packets = view.packets();
  for (const TenantCounter& tc : view.tenants()) {
    if (tc.rate_present) {
      EXPECT_TRUE(r.rate_by_tenant.emplace(tc.tenant, tc.rate_bps).second) << "duplicate entry";
    }
    if (tc.bytes_present) {
      EXPECT_TRUE(r.bytes_by_tenant.emplace(tc.tenant, tc.bytes).second) << "duplicate entry";
    }
  }
  r.rate_by_class = view.rate_by_class_bps();
  r.bytes_by_class = view.bytes_by_class();
  return r;
}

// Which fabric features the random runs actually exercised.
struct Coverage {
  int multi_tenant_links = 0;
  int zero_rate_present = 0;
  int packet_only_entries = 0;
  int spill_links = 0;
  int faulted_links = 0;
  int stopped_flows = 0;
};

// Compares every directed link's view with Snapshot(), SnapshotAll() and
// the rate map rebuilt from the active flows.
void CheckViewsMatchSnapshots(Fabric& fabric, Coverage& cov, const char* when) {
  std::vector<ViewRecord> views;
  fabric.VisitLinks([&views](const LinkView& view) { views.push_back(Record(view)); });

  // Rate attribution straight from the flows, summed in id order exactly
  // as the fabric sums it.
  std::map<int32_t, std::map<TenantId, double>> from_flows;
  for (const FlowId id : fabric.ActiveFlows()) {
    const std::optional<FlowInfo> info = fabric.GetFlowInfo(id);
    EXPECT_TRUE(info.has_value());
    std::vector<int32_t> hops;
    for (const topology::DirectedLink& hop : info->path->hops) {
      hops.push_back(topology::DirectedIndex(hop));
    }
    std::sort(hops.begin(), hops.end());
    hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
    for (const int32_t li : hops) {
      from_flows[li][info->tenant] += info->rate.bytes_per_sec();
    }
  }

  const std::vector<LinkSnapshot> all = fabric.SnapshotAll();
  ASSERT_EQ(all.size(), views.size()) << when;
  for (size_t i = 0; i < views.size(); ++i) {
    const ViewRecord& v = views[i];
    const LinkSnapshot snap = fabric.Snapshot(v.dlink);
    for (const LinkSnapshot* s : {&snap, &all[i]}) {
      EXPECT_EQ(v.dlink.link, s->link) << when;
      EXPECT_EQ(v.dlink.forward, s->forward) << when;
      EXPECT_EQ(v.capacity_bps, s->capacity_bps) << when;
      EXPECT_EQ(v.rate_bps, s->rate_bps) << when;
      EXPECT_EQ(v.utilization, s->utilization) << when;
      EXPECT_EQ(v.bytes_total, s->bytes_total) << when;
      EXPECT_EQ(v.packets, s->packets) << when;
      EXPECT_EQ(v.rate_by_tenant, s->rate_by_tenant_bps) << when << " link " << v.dlink.link;
      EXPECT_EQ(v.bytes_by_tenant, s->bytes_by_tenant) << when << " link " << v.dlink.link;
      EXPECT_EQ(v.rate_by_class, s->rate_by_class_bps) << when;
      EXPECT_EQ(v.bytes_by_class, s->bytes_by_class) << when;
    }
    const LinkView single = fabric.View(v.dlink);
    EXPECT_EQ(single.rate_bps(), v.rate_bps) << when;
    EXPECT_EQ(single.bytes_total(), v.bytes_total) << when;

    const std::map<TenantId, double>& expected = from_flows[topology::DirectedIndex(v.dlink)];
    EXPECT_EQ(v.rate_by_tenant, expected) << when << " link " << v.dlink.link;

    cov.multi_tenant_links += v.rate_by_tenant.size() > 1 ? 1 : 0;
    for (const auto& [tenant, rate] : v.rate_by_tenant) {
      cov.zero_rate_present += rate == 0.0 ? 1 : 0;  // mihn-check: float-eq-ok(exact zero)
    }
    for (const auto& [tenant, bytes] : v.bytes_by_tenant) {
      cov.packet_only_entries +=
          tenant >= kFirstPacketTenant && !v.rate_by_tenant.contains(tenant) ? 1 : 0;
    }
    cov.spill_links +=
        v.rate_by_class[static_cast<size_t>(TrafficClass::kSpill)] > 0.0 ? 1 : 0;
    cov.faulted_links += fabric.GetLinkFault(v.dlink.link).has_value() ? 1 : 0;
  }
}

void RunRandomFabric(uint64_t seed, Coverage& cov) {
  Simulation sim(seed);
  Rng rng(seed * 7919);
  topology::ServerSpec spec;
  spec.sockets = static_cast<int>(rng.UniformInt(1, 2));
  spec.root_ports_per_socket = static_cast<int>(rng.UniformInt(1, 2));
  spec.switches_per_root_port = static_cast<int>(rng.UniformInt(0, 1));
  spec.gpus_per_leaf = static_cast<int>(rng.UniformInt(0, 2));
  const topology::Server server = topology::BuildServer(spec);
  ASSERT_EQ(server.topo.Validate(), "");

  FabricConfig config;
  config.ddio_enabled = rng.Bernoulli(0.7);
  config.way_bytes = rng.UniformInt(64, 2048) * 1024;
  Fabric fabric(sim, server.topo, config);

  std::vector<topology::ComponentId> endpoints;
  for (const topology::Component& c : server.topo.components()) {
    if (topology::IsEndpointKind(c.kind)) {
      endpoints.push_back(c.id);
    }
  }
  ASSERT_GE(endpoints.size(), 2u);
  const auto pick = [&] {
    return endpoints[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(endpoints.size()) - 1))];
  };
  const auto route = [&](topology::ComponentId src, topology::ComponentId dst) {
    return src == dst ? std::nullopt : fabric.Route(src, dst);
  };

  std::vector<FlowId> flows;
  const auto pick_flow = [&] {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(flows.size()) - 1));
  };
  for (int op = 0; op < 160; ++op) {
    const int64_t kind = rng.UniformInt(0, 11);
    if (kind <= 3 || flows.empty()) {
      // Start a flow: one of five tenants; some at zero demand, some DDIO
      // writes into a socket, some finite.
      const topology::ComponentId src = pick();
      const bool ddio = rng.Bernoulli(0.3) && !server.sockets.empty();
      const topology::ComponentId dst =
          ddio ? server.sockets[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(server.sockets.size()) - 1))]
               : pick();
      auto path = route(src, dst);
      if (!path) {
        continue;
      }
      FlowSpec fs;
      fs.path = std::move(*path);
      fs.tenant = static_cast<TenantId>(rng.UniformInt(0, 4));
      fs.ddio_write = ddio;
      fs.demand = rng.Bernoulli(0.15) ? Bandwidth::Zero()
                                      : Bandwidth::GBps(rng.Uniform(0.5, 30.0));
      if (rng.Bernoulli(0.2)) {
        TransferSpec ts;
        ts.flow = std::move(fs);
        ts.bytes = rng.UniformInt(1, 50) * 1'000'000;
        flows.push_back(fabric.StartTransfer(std::move(ts)));
      } else {
        flows.push_back(fabric.StartFlow(std::move(fs)));
      }
    } else if (kind == 4) {
      const size_t i = pick_flow();
      fabric.StopFlow(flows[i]);
      flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(i));
      ++cov.stopped_flows;
    } else if (kind == 5) {
      const size_t i = pick_flow();
      fabric.SetFlowDemand(flows[i], rng.Bernoulli(0.3) ? Bandwidth::Zero()
                                                        : Bandwidth::GBps(rng.Uniform(0.1, 40.0)));
    } else if (kind == 6) {
      const auto link = static_cast<topology::LinkId>(
          rng.UniformInt(0, static_cast<int64_t>(server.topo.link_count()) - 1));
      if (rng.Bernoulli(0.6)) {
        fabric.InjectLinkFault(link, LinkFault{rng.Uniform(0.1, 0.9), TimeNs::Micros(2)});
      } else {
        fabric.ClearLinkFault(link);
      }
    } else if (kind == 7) {
      // A packet from a packet-only tenant, or from a flow tenant.
      auto path = route(pick(), pick());
      if (!path) {
        continue;
      }
      PacketSpec pkt;
      pkt.path = std::move(*path);
      pkt.bytes = rng.UniformInt(0, 4096);
      pkt.tenant = rng.Bernoulli(0.7)
                       ? static_cast<TenantId>(kFirstPacketTenant + rng.UniformInt(0, 2))
                       : static_cast<TenantId>(rng.UniformInt(0, 4));
      fabric.SendPacket(std::move(pkt));
    } else {
      sim.RunFor(TimeNs::Micros(rng.UniformInt(50, 3000)));
    }
    if (op % 8 == 7) {
      CheckViewsMatchSnapshots(fabric, cov, "mid-run");
    }
  }
  sim.RunFor(TimeNs::Millis(5));
  CheckViewsMatchSnapshots(fabric, cov, "end");
}

TEST(LinkViewTest, ViewsMatchSnapshotsOnRandomFabrics) {
  Coverage cov;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomFabric(seed, cov);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The seeds must really exercise every case the presence rules cover.
  EXPECT_GT(cov.multi_tenant_links, 0);
  EXPECT_GT(cov.zero_rate_present, 0);
  EXPECT_GT(cov.packet_only_entries, 0);
  EXPECT_GT(cov.spill_links, 0);
  EXPECT_GT(cov.faulted_links, 0);
  EXPECT_GT(cov.stopped_flows, 0);
}

TEST(LinkViewTest, TenantEntriesAreFirstSeenAndExportsSortById) {
  Simulation sim;
  const topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);
  const topology::Path path = *fabric.Route(server.ssds[0], server.dimms[0]);
  for (const TenantId tenant : {9, 3, 6}) {
    FlowSpec fs;
    fs.path = path;
    fs.tenant = tenant;
    fs.demand = tenant == 6 ? Bandwidth::Zero() : Bandwidth::GBps(1);
    fabric.StartFlow(fs);
  }
  const topology::DirectedLink hop = path.hops.front();
  const LinkView view = fabric.View(hop);
  ASSERT_EQ(view.tenants().size(), 3u);
  EXPECT_EQ(view.tenants()[0].tenant, 9);
  EXPECT_EQ(view.tenants()[1].tenant, 3);
  EXPECT_EQ(view.tenants()[2].tenant, 6);
  EXPECT_TRUE(view.tenants()[2].rate_present);  // Present at rate 0.
  EXPECT_FALSE(view.tenants()[2].bytes_present);  // No time has passed.
  const LinkSnapshot snap = fabric.Snapshot(hop);
  const std::map<TenantId, double> expected{{3, 1e9}, {6, 0.0}, {9, 1e9}};
  EXPECT_EQ(snap.rate_by_tenant_bps, expected);
  EXPECT_TRUE(snap.bytes_by_tenant.empty());
}

TEST(LinkViewTest, StoppedTenantLeavesRateMapButKeepsBytes) {
  Simulation sim;
  const topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);
  FlowSpec fs;
  fs.path = *fabric.Route(server.ssds[0], server.dimms[0]);
  fs.tenant = 4;
  fs.demand = Bandwidth::GBps(2);
  const FlowId id = fabric.StartFlow(fs);
  sim.RunFor(TimeNs::Millis(1));
  fabric.StopFlow(id);
  // A flow started and stopped before any solve leaves an entry with
  // neither flag: it shows up in no map.
  fs.tenant = 5;
  fabric.StopFlow(fabric.StartFlow(fs));
  const LinkSnapshot snap = fabric.Snapshot(fs.path.hops.front());
  EXPECT_TRUE(snap.rate_by_tenant_bps.empty());
  ASSERT_EQ(snap.bytes_by_tenant.size(), 1u);
  EXPECT_NEAR(snap.bytes_by_tenant.at(4), 2e6, 1.0);
}

TEST(LinkViewTest, ZeroBytePacketMakesItsTenantBytesPresent) {
  Simulation sim;
  const topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);
  PacketSpec pkt;
  pkt.path = *fabric.Route(server.nics[0], server.sockets[0]);
  pkt.bytes = 0;
  pkt.tenant = kFirstPacketTenant;
  const topology::DirectedLink hop = pkt.path.hops.front();
  fabric.SendPacket(std::move(pkt));
  const LinkSnapshot snap = fabric.Snapshot(hop);
  const std::map<TenantId, double> expected{{kFirstPacketTenant, 0.0}};
  EXPECT_EQ(snap.bytes_by_tenant, expected);
  EXPECT_TRUE(snap.rate_by_tenant_bps.empty());
  EXPECT_EQ(snap.packets, 1u);
}

TEST(LinkViewTest, SteadyStateSolveAccrualAndViewPassAllocateNothing) {
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  GTEST_SKIP() << "invariant-check build: CheckInvariants() allocates after every solve";
#endif
  Simulation sim(3);
  const topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);
  std::vector<FlowId> flows;
  const auto start = [&](topology::ComponentId src, topology::ComponentId dst, TenantId tenant,
                         Bandwidth demand) {
    FlowSpec fs;
    fs.path = *fabric.Route(src, dst);
    fs.tenant = tenant;
    fs.demand = demand;
    flows.push_back(fabric.StartFlow(std::move(fs)));
  };
  for (size_t i = 0; i < server.ssds.size(); ++i) {
    start(server.ssds[i], server.dimms[i % server.dimms.size()], static_cast<TenantId>(1 + i % 3),
          Bandwidth::GBps(6));
    start(server.nics[i % server.nics.size()], server.dimms[(i + 1) % server.dimms.size()],
          static_cast<TenantId>(4 + i % 2), Bandwidth::GBps(9));
  }
  start(server.gpus[0], server.dimms[0], 7, Bandwidth::Zero());

  double sink = 0.0;
  const auto tick = [&](int i) {
    // One demand change, a clock advance (the pre-advance hook solves, the
    // next read accrues), then a full view pass.
    const Bandwidth demand = Bandwidth::GBps(i % 2 == 0 ? 3.0 : 11.0);
    fabric.SetFlowDemand(flows[static_cast<size_t>(i) % flows.size()], demand);
    sim.RunFor(TimeNs::Millis(1));
    fabric.VisitLinks([&sink](const LinkView& view) {
      sink += view.utilization() + view.bytes_total();
      for (const TenantCounter& tc : view.tenants()) {
        sink += tc.rate_bps + tc.bytes;
      }
    });
  };
  // Warm up until every workspace reaches its high-water mark.
  for (int i = 0; i < 200; ++i) {
    tick(i);
  }
  const uint64_t solves_before = fabric.recompute_count();
  g_allocations = 0;
  g_counting = true;
  for (int i = 200; i < 2200; ++i) {
    tick(i);
  }
  g_counting = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(fabric.recompute_count() - solves_before, 2000u);  // One solve per tick.
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace mihn::fabric
