#include "src/anomaly/bank.h"

#include <utility>

namespace mihn::anomaly {

void DetectorBank::Attach(std::string metric_key, std::unique_ptr<Detector> detector) {
  Attachment a;
  a.metric = std::move(metric_key);
  a.detector = std::move(detector);
  attachments_.push_back(std::move(a));
}

std::vector<Anomaly> DetectorBank::Scan(const telemetry::Collector& collector) {
  if (resolved_for_ != &collector) {
    for (Attachment& a : attachments_) {
      a.series = nullptr;
    }
    resolved_for_ = &collector;
  }
  std::vector<Anomaly> fired;
  for (Attachment& a : attachments_) {
    if (a.series == nullptr) {
      a.series = collector.Series(a.metric);
      if (a.series == nullptr) {
        continue;
      }
    }
    const sim::TimeSeries& series = *a.series;
    for (size_t i = series.FirstIndexAtOrAfter(a.last_seen + sim::TimeNs::Nanos(1));
         i < series.size(); ++i) {
      const sim::TimePoint& p = series.At(i);
      a.last_seen = p.time;
      if (auto anomaly = a.detector->Observe(p.time, p.value)) {
        anomaly->metric = a.metric;
        anomaly->detail = a.detector->name() + ": " + anomaly->detail;
        fired.push_back(*anomaly);
        log_.push_back(*anomaly);
      }
    }
  }
  return fired;
}

void DetectorBank::Rebaseline() {
  for (Attachment& a : attachments_) {
    a.detector->Reset();
  }
}

}  // namespace mihn::anomaly
