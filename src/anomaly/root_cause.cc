#include "src/anomaly/root_cause.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace mihn::anomaly {

RootCauseAnalyzer::RootCauseAnalyzer(fabric::Fabric& fabric, double utilization_threshold)
    : fabric_(fabric), threshold_(utilization_threshold) {}

CongestionReport RootCauseAnalyzer::BuildReport(const fabric::LinkView& link) const {
  CongestionReport report;
  report.link = link.dlink();
  report.utilization = link.utilization();
  const double link_rate = link.rate_bps();
  if (link_rate > 0.0) {
    // Tenants arrive in first-seen order; the sort below is a total order
    // (tenant ids are distinct), so the report never depends on it.
    for (const fabric::TenantCounter& tc : link.tenants()) {
      if (tc.rate_present && tc.rate_bps > 0.0) {
        report.tenants.push_back(TenantShare{tc.tenant, tc.rate_bps / link_rate});
      }
    }
    std::sort(report.tenants.begin(), report.tenants.end(),
              [](const TenantShare& a, const TenantShare& b) {
                if (a.share != b.share) {
                  return a.share > b.share;
                }
                return a.tenant < b.tenant;
              });
    double best = -1.0;
    const std::array<double, fabric::kNumTrafficClasses>& by_class = link.rate_by_class_bps();
    for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
      const double rate = by_class[static_cast<size_t>(k)];
      if (rate > best) {
        best = rate;
        report.dominant_class = static_cast<fabric::TrafficClass>(k);
      }
    }
    report.spill_fraction =
        by_class[static_cast<size_t>(fabric::TrafficClass::kSpill)] / link_rate;
    report.monitor_fraction =
        by_class[static_cast<size_t>(fabric::TrafficClass::kMonitor)] / link_rate;
  }
  return report;
}

std::vector<CongestionReport> RootCauseAnalyzer::FindCongestedLinks() {
  std::vector<CongestionReport> reports;
  fabric_.VisitLinks([this, &reports](const fabric::LinkView& link) {
    if (link.utilization() >= threshold_) {
      reports.push_back(BuildReport(link));
    }
  });
  std::sort(reports.begin(), reports.end(),
            [](const CongestionReport& a, const CongestionReport& b) {
              if (a.utilization != b.utilization) {
                return a.utilization > b.utilization;
              }
              if (a.link.link != b.link.link) {
                return a.link.link < b.link.link;
              }
              return a.link.forward && !b.link.forward;
            });
  return reports;
}

std::vector<CongestionReport> RootCauseAnalyzer::DiagnoseVictim(
    const topology::Path& victim_path) {
  std::vector<CongestionReport> reports;
  for (const topology::DirectedLink& hop : victim_path.hops) {
    const fabric::LinkView link = fabric_.View(hop);
    if (link.utilization() >= threshold_) {
      reports.push_back(BuildReport(link));
    }
  }
  std::sort(reports.begin(), reports.end(),
            [](const CongestionReport& a, const CongestionReport& b) {
              return a.utilization > b.utilization;
            });
  return reports;
}

fabric::TenantId RootCauseAnalyzer::PrimarySuspect() {
  const auto reports = FindCongestedLinks();
  if (reports.empty() || reports.front().tenants.empty()) {
    return fabric::kNoTenant;
  }
  return reports.front().tenants.front().tenant;
}

std::string RootCauseAnalyzer::Render(const CongestionReport& report) const {
  const topology::Link& link = fabric_.topo().link(report.link.link);
  const topology::ComponentId from = report.link.forward ? link.a : link.b;
  const topology::ComponentId to = report.link.forward ? link.b : link.a;
  std::ostringstream out;
  out << "congested: " << fabric_.topo().component(from).name << " -> "
      << fabric_.topo().component(to).name << " ("
      << topology::LinkKindName(link.spec.kind) << ") util="
      << static_cast<int>(report.utilization * 100) << "%\n";
  for (const TenantShare& t : report.tenants) {
    out << "  tenant " << t.tenant << ": " << static_cast<int>(t.share * 100) << "%\n";
  }
  out << "  dominant class: " << fabric::TrafficClassName(report.dominant_class);
  if (report.spill_fraction > 0.01) {
    out << " (spill " << static_cast<int>(report.spill_fraction * 100) << "% — DDIO thrashing)";
  }
  if (report.monitor_fraction > 0.01) {
    out << " (monitoring " << static_cast<int>(report.monitor_fraction * 100) << "%)";
  }
  out << "\n";
  return out.str();
}

}  // namespace mihn::anomaly
