// Tests for the assembled anomaly platform: DetectorBank over Collector
// series, congestion root-cause analysis, and the misconfiguration checker.

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/anomaly/bank.h"
#include "src/anomaly/misconfig.h"
#include "src/anomaly/root_cause.h"
#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::anomaly {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(DetectorBankTest, FiresOnUtilizationStep) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  DetectorBank bank;
  bank.Attach(telemetry::Collector::LinkUtilKey(hop.link, hop.forward),
              std::make_unique<ThresholdDetector>(0.0, 0.8));
  EXPECT_EQ(bank.attachment_count(), 1u);

  host.RunFor(TimeNs::Millis(10));
  EXPECT_TRUE(bank.Scan(collector).empty());

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(10));
  const auto fired = bank.Scan(collector);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front().metric, telemetry::Collector::LinkUtilKey(hop.link, hop.forward));
  EXPECT_NE(fired.front().detail.find("threshold"), std::string::npos);
  EXPECT_EQ(bank.log().size(), fired.size());
}

TEST(DetectorBankTest, ScanDoesNotReprocessOldPoints) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  workload::StreamSource::Config bulk;
  bulk.src = host.server().ssds[0];
  bulk.dst = host.server().dimms[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();

  const auto path = *host.fabric().Route(host.server().ssds[0], host.server().dimms[0]);
  DetectorBank bank;
  bank.Attach(telemetry::Collector::LinkUtilKey(path.hops[0].link, path.hops[0].forward),
              std::make_unique<ThresholdDetector>(0.0, 0.5));
  host.RunFor(TimeNs::Millis(5));
  const size_t first = bank.Scan(collector).size();
  EXPECT_GT(first, 0u);
  // No new samples -> no new anomalies.
  EXPECT_TRUE(bank.Scan(collector).empty());
  host.RunFor(TimeNs::Millis(3));
  EXPECT_EQ(bank.Scan(collector).size(), 3u);
}

// Records every observation and never fires.
class Recorder : public Detector {
 public:
  explicit Recorder(std::vector<sim::TimePoint>* out) : out_(out) {}
  std::optional<Anomaly> Observe(TimeNs at, double value) override {
    out_->push_back(sim::TimePoint{at, value});
    return std::nullopt;
  }
  std::string name() const override { return "recorder"; }
  void Reset() override {}

 private:
  std::vector<sim::TimePoint>* out_;
};

void ExpectSamePoints(const std::vector<sim::TimePoint>& got,
                      const std::vector<sim::TimePoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].value, want[i].value) << i;
  }
}

TEST(DetectorBankTest, SeriesThatAppearsAfterSeveralScansIsPickedUp) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const std::string key =
      telemetry::Collector::TenantRateKey(path.hops[0].link, path.hops[0].forward, 7);
  std::vector<sim::TimePoint> seen;
  DetectorBank bank;
  bank.Attach(key, std::make_unique<Recorder>(&seen));
  for (int i = 0; i < 3; ++i) {
    host.RunFor(TimeNs::Millis(2));
    EXPECT_TRUE(bank.Scan(collector).empty());
    EXPECT_EQ(collector.Series(key), nullptr);
  }
  EXPECT_TRUE(seen.empty());

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 7;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(4));
  bank.Scan(collector);
  host.RunFor(TimeNs::Millis(3));
  bank.Scan(collector);
  const sim::TimeSeries* series = collector.Series(key);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 7u);
  ExpectSamePoints(seen, series->Window(TimeNs::Zero()));
}

// One bank scanning two collectors in turn must behave exactly like a
// per-scan key lookup: one last-seen time per attachment, shared across
// collectors, and every point after it consumed from whichever collector
// is scanned.
TEST(DetectorBankTest, AlternatingCollectorsMatchPerScanLookup) {
  sim::Simulation sim_a(1);
  sim::Simulation sim_b(2);
  HostNetwork a(sim_a, Quiet());
  HostNetwork b(sim_b, Quiet());
  telemetry::Collector::Config ca;
  ca.period = TimeNs::Millis(1);
  telemetry::Collector::Config cb;
  cb.period = TimeNs::Micros(700);
  telemetry::Collector collector_a(a.fabric(), ca);
  telemetry::Collector collector_b(b.fabric(), cb);
  collector_a.Start();
  collector_b.Start();

  const auto& server = a.server();
  const auto path = *a.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 3;
  bulk.demand = Bandwidth::GBps(4);
  workload::StreamSource stream_a(a.fabric(), bulk);
  stream_a.Start();
  bulk.tenant = 9;  // Only in b: its key exists in one collector.
  bulk.demand = Bandwidth::GBps(9);
  workload::StreamSource stream_b(b.fabric(), bulk);
  stream_b.Start();

  const std::vector<std::string> keys = {
      telemetry::Collector::LinkUtilKey(hop.link, hop.forward),
      telemetry::Collector::TenantRateKey(hop.link, hop.forward, 9),
      telemetry::Collector::TenantRateKey(hop.link, hop.forward, 3)};
  std::vector<std::vector<sim::TimePoint>> seen(keys.size());
  std::vector<std::vector<sim::TimePoint>> want(keys.size());
  std::vector<TimeNs> last_seen(keys.size(), TimeNs::Nanos(-1));
  DetectorBank bank;
  for (size_t k = 0; k < keys.size(); ++k) {
    bank.Attach(keys[k], std::make_unique<Recorder>(&seen[k]));
  }
  const auto reference_scan = [&](const telemetry::Collector& c) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const sim::TimeSeries* series = c.Series(keys[k]);
      if (series == nullptr) {
        continue;
      }
      for (const sim::TimePoint& p : series->Window(last_seen[k] + TimeNs::Nanos(1))) {
        last_seen[k] = p.time;
        want[k].push_back(p);
      }
    }
  };

  // Clocks advance unevenly, so each collector is sometimes ahead of the
  // other's last-seen time and sometimes behind it.
  const int64_t steps_a[] = {3, 0, 2, 5, 1, 0, 4};
  const int64_t steps_b[] = {1, 6, 0, 2, 3, 4, 1};
  for (size_t round = 0; round < std::size(steps_a); ++round) {
    sim_a.RunFor(TimeNs::Millis(steps_a[round]));
    bank.Scan(collector_a);
    reference_scan(collector_a);
    sim_b.RunFor(TimeNs::Millis(steps_b[round]));
    bank.Scan(collector_b);
    reference_scan(collector_b);
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    SCOPED_TRACE(keys[k]);
    EXPECT_FALSE(want[k].empty());
    ExpectSamePoints(seen[k], want[k]);
  }
}

TEST(RootCauseTest, QuietFabricHasNoCongestion) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  RootCauseAnalyzer analyzer(host.fabric());
  EXPECT_TRUE(analyzer.FindCongestedLinks().empty());
  EXPECT_EQ(analyzer.PrimarySuspect(), fabric::kNoTenant);
}

TEST(RootCauseTest, BlamesDominantTenant) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  workload::StreamSource::Config big;
  big.src = server.ssds[0];
  big.dst = server.dimms[0];
  big.tenant = 11;
  big.weight = 3.0;
  workload::StreamSource hog(host.fabric(), big);
  hog.Start();
  workload::StreamSource::Config small;
  small.src = server.gpus[0];
  small.dst = server.dimms[0];
  small.tenant = 22;
  workload::StreamSource minor(host.fabric(), small);
  minor.Start();

  RootCauseAnalyzer analyzer(host.fabric(), 0.9);
  const auto reports = analyzer.FindCongestedLinks();
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(analyzer.PrimarySuspect(), 11);
  // The report for the shared bottleneck names both tenants with 11 first.
  bool found_shared = false;
  for (const auto& report : reports) {
    if (report.tenants.size() >= 2) {
      found_shared = true;
      EXPECT_EQ(report.tenants[0].tenant, 11);
      EXPECT_GT(report.tenants[0].share, report.tenants[1].share);
      EXPECT_NEAR(report.tenants[0].share + report.tenants[1].share, 1.0, 1e-6);
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(RootCauseTest, DiagnoseVictimFindsSharedHop) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  // Aggressor saturates ssd0 -> dimm0.
  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 5;
  workload::StreamSource aggressor(host.fabric(), bulk);
  aggressor.Start();
  // Victim path shares the switch uplink.
  const auto victim_path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  RootCauseAnalyzer analyzer(host.fabric(), 0.9);
  const auto reports = analyzer.DiagnoseVictim(victim_path);
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.front().tenants.front().tenant, 5);
  const std::string rendered = analyzer.Render(reports.front());
  EXPECT_NE(rendered.find("congested"), std::string::npos);
  EXPECT_NE(rendered.find("tenant 5"), std::string::npos);
}

TEST(RootCauseTest, FlagsSpillAsUnintendedConsumption) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  // Tiny DDIO -> heavy spill onto the memory bus.
  fabric::FabricConfig config;
  config.way_bytes = 50 * 1024;
  config.ddio_ways = 1;
  host.fabric().SetConfig(config);

  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  write.tenant = 9;
  host.fabric().StartFlow(write);

  // Find the memory-bus hop carrying spill.
  RootCauseAnalyzer analyzer(host.fabric(), 0.0);  // Report every loaded link.
  bool saw_spill = false;
  for (const auto& report : analyzer.FindCongestedLinks()) {
    if (report.spill_fraction > 0.9) {
      saw_spill = true;
      EXPECT_EQ(report.dominant_class, fabric::TrafficClass::kSpill);
      // Attribution still points at the causing tenant.
      ASSERT_FALSE(report.tenants.empty());
      EXPECT_EQ(report.tenants.front().tenant, 9);
    }
  }
  EXPECT_TRUE(saw_spill);
}

TEST(MisconfigTest, CleanDefaultConfigIsQuiet) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  MisconfigChecker checker(host.fabric());
  EXPECT_TRUE(checker.Check().empty());
}

TEST(MisconfigTest, FlagsSmallPayloadSize) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  fabric::FabricConfig config;
  config.max_payload_bytes = 128;
  host.fabric().SetConfig(config);
  MisconfigChecker checker(host.fabric());
  const auto findings = checker.Check();
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().knob, "max_payload_bytes");
  EXPECT_EQ(findings.front().severity, Finding::Severity::kWarning);
  // 64 B is critical.
  config.max_payload_bytes = 64;
  host.fabric().SetConfig(config);
  EXPECT_EQ(checker.Check().front().severity, Finding::Severity::kCritical);
}

TEST(MisconfigTest, FlagsOrderingIommuAndModeration) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  fabric::FabricConfig config;
  config.relaxed_ordering = false;
  config.iommu_enabled = true;
  config.interrupt_moderation = sim::TimeNs::Micros(50);
  host.fabric().SetConfig(config);
  MisconfigChecker checker(host.fabric());
  const auto findings = checker.Check();
  std::set<std::string> knobs;
  for (const auto& f : findings) {
    knobs.insert(f.knob);
  }
  EXPECT_TRUE(knobs.contains("relaxed_ordering"));
  EXPECT_TRUE(knobs.contains("iommu_enabled"));
  EXPECT_TRUE(knobs.contains("interrupt_moderation"));
  // Warnings sort before infos.
  EXPECT_EQ(findings.front().severity, Finding::Severity::kWarning);
}

TEST(MisconfigTest, FlagsDdioThrashingFromObservedStats) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  fabric::FabricConfig config;
  config.way_bytes = 50 * 1024;
  config.ddio_ways = 1;
  host.fabric().SetConfig(config);
  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  host.fabric().StartFlow(write);

  MisconfigChecker checker(host.fabric());
  const auto findings = checker.Check();
  bool found = false;
  for (const auto& f : findings) {
    if (f.knob == "ddio_ways") {
      found = true;
      EXPECT_NE(f.message.find("thrashing"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(checker.Render().find("ddio_ways"), std::string::npos);
}

TEST(MisconfigTest, FlagsDdioDisabledUnderIoLoad) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  fabric::FabricConfig config;
  config.ddio_enabled = false;
  host.fabric().SetConfig(config);
  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  host.fabric().StartFlow(write);
  MisconfigChecker checker(host.fabric());
  bool found = false;
  for (const auto& f : checker.Check()) {
    if (f.knob == "ddio_enabled") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mihn::anomaly
