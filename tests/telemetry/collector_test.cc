#include "src/telemetry/collector.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::telemetry {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options NoAutoStart() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(CollectorTest, SamplesPeriodically) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_EQ(collector.samples_taken(), 10u);
  collector.Stop();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_EQ(collector.samples_taken(), 10u);
}

TEST(CollectorTest, RecordsUtilizationOfActiveLink) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.demand = Bandwidth::GBps(5);
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();

  collector.Start();
  host.RunFor(TimeNs::Millis(5));

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  const sim::TimeSeries* util = collector.Series(Collector::LinkUtilKey(hop.link, hop.forward));
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->size(), 5u);
  EXPECT_GT(util->Latest().value, 0.1);
}

TEST(CollectorTest, ThroughputSeriesIncludesPacketTraffic) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();

  // Only packet traffic: 1000 x 1 KiB packets per ms on nic0 -> s0. The
  // fluid rate_bps stays 0, but the byte-delta throughput sees it.
  const auto path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  host.simulation().SchedulePeriodic(TimeNs::Micros(1), [&] {
    fabric::PacketSpec pkt;
    pkt.path = &path;
    pkt.bytes = 1024;
    host.fabric().SendPacket(std::move(pkt));
  });
  host.RunFor(TimeNs::Millis(10));

  const topology::DirectedLink hop = path.hops[0];
  const sim::TimeSeries* rate = collector.Series(Collector::LinkRateKey(hop.link, hop.forward));
  const sim::TimeSeries* thpt =
      collector.Series(Collector::LinkThroughputKey(hop.link, hop.forward));
  ASSERT_NE(rate, nullptr);
  ASSERT_NE(thpt, nullptr);
  EXPECT_DOUBLE_EQ(rate->Latest().value, 0.0);
  // ~1 KiB/us = ~1.024 GB/s.
  EXPECT_NEAR(thpt->Latest().value, 1.024e9, 0.05e9);
}

TEST(CollectorTest, ThroughputMatchesFluidRateForFlows) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();
  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.demand = Bandwidth::GBps(5);
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(5));
  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  const sim::TimeSeries* thpt =
      collector.Series(Collector::LinkThroughputKey(hop.link, hop.forward));
  ASSERT_NE(thpt, nullptr);
  EXPECT_NEAR(thpt->Latest().value, 5e9, 1e7);
}

TEST(CollectorTest, FineModeHasPerTenantSeries) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.granularity = Granularity::kFine;
  Collector collector(host.fabric(), config);

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 42;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  collector.SampleOnce();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  const sim::TimeSeries* tenant_rate =
      collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 42));
  ASSERT_NE(tenant_rate, nullptr);
  EXPECT_GT(tenant_rate->Latest().value, 0.0);
  // Cache series exist in fine mode.
  EXPECT_NE(collector.Series(Collector::CacheHitKey(server.sockets[0])), nullptr);
}

// A tenant that first crosses a link after several samples gets its own
// series from its first sample on, on every hop, without disturbing the
// series of the tenant already there.
TEST(CollectorTest, TenantFirstSeenAfterSeveralSamplesGetsItsOwnSeries) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 1;
  bulk.demand = Bandwidth::GBps(3);
  workload::StreamSource first(host.fabric(), bulk);
  first.Start();
  host.RunFor(TimeNs::Millis(5));

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  for (const topology::DirectedLink& hop : path.hops) {
    EXPECT_EQ(collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 2)), nullptr);
  }
  bulk.tenant = 2;
  bulk.demand = Bandwidth::GBps(6);
  workload::StreamSource second(host.fabric(), bulk);
  second.Start();
  host.RunFor(TimeNs::Millis(4));

  for (const topology::DirectedLink& hop : path.hops) {
    const sim::TimeSeries* t1 =
        collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 1));
    const sim::TimeSeries* t2 =
        collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 2));
    ASSERT_NE(t1, nullptr);
    ASSERT_NE(t2, nullptr);
    EXPECT_EQ(t1->size(), 9u);
    ASSERT_EQ(t2->size(), 4u);
    EXPECT_EQ(t2->Oldest().time, TimeNs::Millis(6));
    double rate1 = -1.0;
    double rate2 = -1.0;
    for (const fabric::TenantCounter& tc : host.fabric().View(hop).tenants()) {
      (tc.tenant == 1 ? rate1 : rate2) = tc.rate_bps;
    }
    EXPECT_EQ(t1->Latest().value, rate1);
    EXPECT_EQ(t2->Latest().value, rate2);
    EXPECT_GT(t2->Latest().value, 0.0);
  }
}

TEST(CollectorTest, CoarseModeOmitsTenantsAndClampsPeriod) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.granularity = Granularity::kCoarse;
  config.period = TimeNs::Micros(10);  // Far below the hardware floor.
  Collector collector(host.fabric(), config);
  EXPECT_EQ(collector.config().period, kCoarseMinPeriod);

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 42;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  collector.SampleOnce();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  EXPECT_EQ(collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 42)), nullptr);
  EXPECT_EQ(collector.Series(Collector::CacheHitKey(server.sockets[0])), nullptr);
  // Aggregate series still exist.
  EXPECT_NE(collector.Series(Collector::LinkUtilKey(hop.link, hop.forward)), nullptr);
}

TEST(CollectorTest, FineHasMoreSeriesThanCoarse) {
  auto series_count = [](Granularity g) {
    sim::Simulation sim;
    HostNetwork host(sim, NoAutoStart());
    workload::StreamSource::Config bulk;
    bulk.src = host.server().ssds[0];
    bulk.dst = host.server().dimms[0];
    bulk.tenant = 1;
    workload::StreamSource stream(host.fabric(), bulk);
    stream.Start();
    Collector::Config config;
    config.granularity = g;
    Collector collector(host.fabric(), config);
    collector.SampleOnce();
    return collector.series_count();
  };
  EXPECT_GT(series_count(Granularity::kFine), series_count(Granularity::kCoarse));
}

TEST(CollectorTest, ReportingInjectsMonitorTraffic) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  ASSERT_NE(server.monitor_store, topology::kInvalidComponent);
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  config.report_to = server.monitor_store;
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(collector.bytes_reported(), 0);
  // The monitor-store link carries kMonitor-class bytes.
  const auto path = *host.fabric().Route(server.sockets[0], server.monitor_store);
  const auto snap = host.fabric().Snapshot(path.hops[0]);
  EXPECT_GT(snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kMonitor)], 0.0);
  EXPECT_DOUBLE_EQ(
      snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kMonitor)],
      static_cast<double>(collector.bytes_reported()));
}

TEST(CollectorTest, NoReportingWhenUnset) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(5));
  EXPECT_EQ(collector.bytes_reported(), 0);
}

TEST(CollectorTest, StoragePressureDropsOldPoints) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  config.series_capacity = 4;
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(collector.total_dropped_points(), 0u);
  for (const auto& key : collector.Keys()) {
    EXPECT_LE(collector.Series(key)->size(), 4u);
  }
}

TEST(CollectorTest, KeysAreStableSchema) {
  EXPECT_EQ(Collector::LinkUtilKey(3, true), "link/3/fwd/util");
  EXPECT_EQ(Collector::LinkRateKey(3, false), "link/3/rev/rate");
  EXPECT_EQ(Collector::TenantRateKey(0, true, 7), "link/0/fwd/tenant/7/rate");
  EXPECT_EQ(Collector::CacheHitKey(2), "socket/2/cache_hit");
  EXPECT_EQ(Collector::ClassRateKey(1, true, fabric::TrafficClass::kSpill),
            "link/1/fwd/class/spill/rate");
}

TEST(CollectorTest, SeriesLookupMissReturnsNull) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector collector(host.fabric(), Collector::Config{});
  EXPECT_EQ(collector.Series("nope"), nullptr);
  EXPECT_TRUE(collector.Keys().empty());
}

}  // namespace
}  // namespace mihn::telemetry
