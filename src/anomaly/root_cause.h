// Congestion root-cause analysis.
//
// Paper §2: "data center operators can use these counters to detect
// congestion, but identifying the root cause of the congestion ... remains
// challenging" — because today's counters have no per-tenant attribution.
// With the fabric's per-tenant/per-class accounting, root-causing becomes a
// query: find saturated links, rank the tenants driving them, and flag
// unintended consumption (DDIO spill, monitoring) separately.

#ifndef MIHN_SRC_ANOMALY_ROOT_CAUSE_H_
#define MIHN_SRC_ANOMALY_ROOT_CAUSE_H_

#include <string>
#include <vector>

#include "src/fabric/fabric.h"

namespace mihn::anomaly {

struct TenantShare {
  fabric::TenantId tenant = fabric::kNoTenant;
  double share = 0.0;  // Fraction of the link's allocated rate.
};

struct CongestionReport {
  topology::DirectedLink link;
  double utilization = 0.0;
  // Tenants ordered by descending share.
  std::vector<TenantShare> tenants;
  fabric::TrafficClass dominant_class = fabric::TrafficClass::kData;
  // Fraction of the link's rate that is cache-spill traffic — the paper's
  // "unintended resource consumption".
  double spill_fraction = 0.0;
  // Fraction that is monitoring traffic (§3.1 Q2 self-cost).
  double monitor_fraction = 0.0;
};

class RootCauseAnalyzer {
 public:
  // Links at or above |utilization_threshold| count as congested.
  explicit RootCauseAnalyzer(fabric::Fabric& fabric, double utilization_threshold = 0.9);

  // All congested directed links, most utilized first.
  std::vector<CongestionReport> FindCongestedLinks();

  // Congested links on a specific victim path — "why is my flow slow?".
  std::vector<CongestionReport> DiagnoseVictim(const topology::Path& victim_path);

  // The tenant with the largest share on the most utilized congested link,
  // or kNoTenant when nothing is congested. The one-line answer an on-call
  // operator wants.
  fabric::TenantId PrimarySuspect();

  // Human-readable multi-line rendering of a report.
  std::string Render(const CongestionReport& report) const;

 private:
  CongestionReport BuildReport(const fabric::LinkView& link) const;

  fabric::Fabric& fabric_;
  double threshold_;
};

}  // namespace mihn::anomaly

#endif  // MIHN_SRC_ANOMALY_ROOT_CAUSE_H_
