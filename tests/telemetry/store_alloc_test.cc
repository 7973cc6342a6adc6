// The monitoring loop's zero-allocation steady state: once every ring of
// the metric store is full, a collector sample plus a detector-bank scan
// allocate nothing — series are resolved through the collector's handle
// table and the bank's cached pointers, and new points are visited in
// place — and a reporting collector's packet to the monitor store borrows
// its route rather than copying it.
//
// This binary overrides global operator new/delete with a counting shim
// (which is why it is its own test target: the override is link-global).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>

#include "src/anomaly/bank.h"
#include "src/host/host_network.h"

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

namespace mihn::telemetry {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

TEST(MetricStoreAllocTest, FullRingsSampleAndScanAllocateNothing) {
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  GTEST_SKIP() << "invariant-check builds run CheckInvariants() on the read path, which "
                  "allocates";
#endif
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim(5);
  HostNetwork host(sim, options);
  const topology::Server& server = host.server();
  fabric::Fabric& fabric = host.fabric();
  // Processed in place: shipping samples to a monitor store is fabric
  // traffic (a packet per sample), not the metric store under test.
  Collector::Config config;
  config.series_capacity = 8;
  Collector collector(fabric, config);

  // Several tenants sharing links, DDIO writes (cache series move), and a
  // packet stream (throughput differs from the fluid rate).
  for (int k = 0; k < 6; ++k) {
    fabric::FlowSpec spec;
    const topology::ComponentId src =
        k % 2 == 0 ? server.nics[static_cast<size_t>(k / 2) % server.nics.size()]
                   : server.ssds[static_cast<size_t>(k / 2) % server.ssds.size()];
    spec.path = *fabric.Route(src, server.dimms[static_cast<size_t>(k) % server.dimms.size()]);
    spec.tenant = static_cast<fabric::TenantId>(1 + k % 4);
    spec.demand = Bandwidth::GBps(2.0 + k);
    spec.ddio_write = k % 2 == 0;
    fabric.StartFlow(spec);
  }
  const topology::Path packet_path = *fabric.Route(server.gpus[0], server.sockets[0]);

  // A campaign-style bank: EWMA on every link-utilization series and every
  // socket cache-hit series.
  anomaly::DetectorBank bank;
  const topology::Topology& topo = host.topo();
  for (topology::LinkId link = 0; link < static_cast<topology::LinkId>(topo.link_count());
       ++link) {
    for (const bool forward : {true, false}) {
      bank.Attach(Collector::LinkUtilKey(link, forward),
                  std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
    }
  }
  for (const topology::ComponentId socket : server.sockets) {
    bank.Attach(Collector::CacheHitKey(socket),
                std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
  }

  size_t fired = 0;
  size_t allocations = 0;
  // One collector period: fabric traffic and the clock advance uncounted,
  // then the monitoring loop (sample + scan) runs under the counter.
  const auto tick = [&] {
    fabric::PacketSpec pkt;
    pkt.path = &packet_path;
    pkt.bytes = 1024;
    pkt.tenant = 9;
    fabric.SendPacket(std::move(pkt));
    sim.RunFor(TimeNs::Millis(1));
    g_allocations = 0;
    g_counting = true;
    collector.SampleOnce();
    fired += bank.Scan(collector).size();
    g_counting = false;
    allocations += g_allocations;
  };
  // Fill every ring (8 points) and let every detector leave warm-up.
  for (int i = 0; i < 32; ++i) {
    tick();
  }
  const size_t series = collector.series_count();
  const size_t fired_before = fired;
  allocations = 0;
  for (int i = 0; i < 200; ++i) {
    tick();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, fired_before);  // A firing detector would allocate its report.
  EXPECT_EQ(collector.series_count(), series);
  EXPECT_GT(collector.total_dropped_points(), 0u);
  const sim::TimeSeries* util = collector.Series(
      Collector::LinkUtilKey(packet_path.hops[0].link, packet_path.hops[0].forward));
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->size(), 8u);
  EXPECT_EQ(util->storage_points(), 8u);
}

// A host-owned collector reports every sample to the monitor store as a
// packet (report_to is set by default). The packet borrows the collector's
// resolved route, so a full-ring sample still allocates nothing.
TEST(MetricStoreAllocTest, ReportingHostCollectorSampleAllocatesNothing) {
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  GTEST_SKIP() << "invariant-check builds run CheckInvariants() on the read path, which "
                  "allocates";
#endif
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  options.telemetry.series_capacity = 8;
  sim::Simulation sim(9);
  HostNetwork host(sim, options);
  const topology::Server& server = host.server();
  fabric::Fabric& fabric = host.fabric();
  Collector& collector = host.collector();
  ASSERT_NE(collector.config().report_to, topology::kInvalidComponent);
  for (int k = 0; k < 4; ++k) {
    fabric::FlowSpec spec;
    spec.path = *fabric.Route(server.ssds[static_cast<size_t>(k) % server.ssds.size()],
                              server.dimms[static_cast<size_t>(k) % server.dimms.size()]);
    spec.tenant = static_cast<fabric::TenantId>(1 + k % 2);
    spec.demand = Bandwidth::GBps(3.0 + k);
    fabric.StartFlow(spec);
  }
  size_t allocations = 0;
  const auto tick = [&] {
    sim.RunFor(TimeNs::Millis(1));
    g_allocations = 0;
    g_counting = true;
    collector.SampleOnce();
    g_counting = false;
    allocations += g_allocations;
  };
  for (int i = 0; i < 32; ++i) {
    tick();
  }
  const int64_t reported = collector.bytes_reported();
  EXPECT_GT(reported, 0);
  allocations = 0;
  for (int i = 0; i < 200; ++i) {
    tick();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(collector.bytes_reported(), reported);  // Every sample shipped a packet.
  EXPECT_GT(collector.total_dropped_points(), 0u);
}

}  // namespace
}  // namespace mihn::telemetry
