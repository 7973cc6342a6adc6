// Heartbeat mesh: active probing between intra-host devices.
//
// Paper §3.1: "a hardware failure occurring on the PCIe switch may silently
// cause the connected PCIe device to suffer performance degradation ...
// This can be addressed by having devices on the intra-host network
// periodically send 'heartbeats' to each other, similar to works like
// Pingmesh." Every participant probes every other participant each period;
// a pair alarms when its latency rises above degradation_factor x its
// learned baseline. LocalizeFaults() then runs binary tomography over the
// alarmed/healthy pair paths to rank suspect links.

#ifndef MIHN_SRC_ANOMALY_HEARTBEAT_H_
#define MIHN_SRC_ANOMALY_HEARTBEAT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulation.h"

namespace mihn::anomaly {

class HeartbeatMesh {
 public:
  struct Config {
    std::vector<topology::ComponentId> participants;
    sim::TimeNs period = sim::TimeNs::Millis(1);
    int64_t probe_bytes = 64;
    // A pair alarms when its smoothed latency exceeds this multiple of its
    // baseline.
    double degradation_factor = 2.0;
    // Probes used to learn the per-pair baseline before arming.
    int baseline_samples = 8;
    // EWMA weight for the smoothed latency.
    double alpha = 0.3;
  };

  struct PairReport {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    sim::TimeNs baseline;
    sim::TimeNs smoothed;
    bool alarmed = false;
    sim::TimeNs alarmed_at;  // Valid when alarmed.
  };

  struct SuspectLink {
    topology::LinkId link = topology::kInvalidLink;
    // Fraction of the pairs crossing this link that are alarmed (1.0 = every
    // path over the link is degraded).
    double score = 0.0;
    int alarmed_pairs = 0;
    int total_pairs = 0;
  };

  // One raise→clear episode of a pair alarm. Recovery (latency back under
  // the threshold), a fault-driven re-route (baseline restarts on the new
  // path), and ResetBaselines() all close an open episode; cleared stays
  // false while the alarm is still raised. The scorer joins these against
  // injected ground truth.
  struct AlarmEvent {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    sim::TimeNs raised_at;
    sim::TimeNs cleared_at;  // Valid when cleared.
    bool cleared = false;
  };

  HeartbeatMesh(fabric::Fabric& fabric, Config config);

  // Starts periodic probing. Idempotent.
  void Start();
  void Stop();

  size_t pair_count() const { return pairs_.size(); }
  uint64_t probes_sent() const { return probes_sent_; }

  // All pairs, deterministic order.
  std::vector<PairReport> Pairs() const;
  // Only the alarmed pairs.
  std::vector<PairReport> Alarms() const;
  // Alarms().size() in O(1), without building any report.
  size_t alarmed_count() const { return alarmed_count_; }
  // Virtual time of the first alarm, if any (detection-latency metric).
  std::optional<sim::TimeNs> first_alarm_at() const { return first_alarm_at_; }

  // Append-only raise/clear history, in raise order (chaos campaigns score
  // detection and recovery from this).
  const std::vector<AlarmEvent>& alarm_log() const { return alarm_log_; }
  // Entries of alarm_log() with cleared set, in O(1). Only ever grows.
  size_t cleared_count() const { return cleared_count_; }

  // Ranks links by the fraction of their crossing pairs that alarm (score
  // descending, then link id). Links never crossed by an alarmed pair are
  // omitted.
  std::vector<SuspectLink> LocalizeFaults() const;

  // Clears alarms and relearns baselines from subsequent probes.
  void ResetBaselines();

 private:
  struct PairState {
    topology::Path path;
    int samples = 0;
    double baseline_ns = 0.0;
    double smoothed_ns = 0.0;
    bool alarmed = false;
    sim::TimeNs alarmed_at;
    int open_alarm = -1;  // Index into alarm_log_ while alarmed.
  };

  void Tick();

  // Re-resolves every pair's path after the fabric's route epoch moved.
  // A changed path restarts that pair's baseline learning (baselines are
  // keyed to the path); an unreachable pair keeps probing its old path so
  // the dead hop's latency inflation still raises the alarm.
  void ReresolvePaths(sim::TimeNs now);

  // Closes |state|'s open alarm episode, if any, at |now|.
  void CloseAlarm(PairState& state, sim::TimeNs now);

  fabric::Fabric& fabric_;
  Config config_;
  // Keyed (src, dst); std::map for deterministic iteration.
  std::map<std::pair<topology::ComponentId, topology::ComponentId>, PairState> pairs_;
  sim::EventHandle timer_;
  bool running_ = false;
  uint64_t probes_sent_ = 0;
  uint64_t last_route_epoch_ = 0;
  std::optional<sim::TimeNs> first_alarm_at_;
  std::vector<AlarmEvent> alarm_log_;
  // Pairs with alarmed set: raised in Tick(), lowered only in CloseAlarm().
  size_t alarmed_count_ = 0;
  // Log entries with cleared set: raised only in CloseAlarm().
  size_t cleared_count_ = 0;
};

}  // namespace mihn::anomaly

#endif  // MIHN_SRC_ANOMALY_HEARTBEAT_H_
