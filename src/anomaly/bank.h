// DetectorBank: attaches online detectors to Collector metric series and
// scans new samples — the assembled "platform for anomaly detection" of
// §3.1 (collector feeds it, detectors fire, the log accumulates).

#ifndef MIHN_SRC_ANOMALY_BANK_H_
#define MIHN_SRC_ANOMALY_BANK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/anomaly/detectors.h"
#include "src/telemetry/collector.h"

namespace mihn::anomaly {

class DetectorBank {
 public:
  DetectorBank() = default;

  // Attaches |detector| to the metric series named |metric_key|. Multiple
  // detectors per metric are allowed.
  void Attach(std::string metric_key, std::unique_ptr<Detector> detector);

  // Feeds every not-yet-seen sample (time > the last point this attachment
  // consumed) of every attached series through its detectors, in place.
  // Returns the anomalies fired by this scan (also appended to log()). Call
  // after (or periodically alongside) collector sampling.
  //
  // Series are resolved once per attachment and cached: a key that does
  // not exist yet is looked up again on every scan until it appears, and
  // handing Scan a different collector than last time drops every cached
  // series. The cache relies on Collector::Series() pointers staying valid
  // for the collector's lifetime, so the collector a bank last scanned must
  // outlive any further scan of it.
  std::vector<Anomaly> Scan(const telemetry::Collector& collector);

  // Resets every attached detector's learned state without re-scanning old
  // samples: each detector re-learns from the next sample onward. This is
  // the operator's "acknowledge and rebaseline" after a recovery action —
  // EwmaDetector deliberately keeps firing on a sustained shift (it never
  // absorbs anomalous samples), so a repair that leaves metrics at a new
  // legitimate level needs a rebaseline for the bank to go quiet.
  void Rebaseline();

  const std::vector<Anomaly>& log() const { return log_; }
  size_t attachment_count() const { return attachments_.size(); }

 private:
  struct Attachment {
    std::string metric;
    std::unique_ptr<Detector> detector;
    sim::TimeNs last_seen = sim::TimeNs::Nanos(-1);
    const sim::TimeSeries* series = nullptr;  // Cached for resolved_for_.
  };

  std::vector<Attachment> attachments_;
  // The collector the cached series pointers belong to.
  const telemetry::Collector* resolved_for_ = nullptr;
  std::vector<Anomaly> log_;
};

}  // namespace mihn::anomaly

#endif  // MIHN_SRC_ANOMALY_BANK_H_
