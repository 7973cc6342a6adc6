// Bounded time series (ring buffer of timestamped samples).
//
// The telemetry sampler appends one point per sampling tick per metric; the
// anomaly detectors consume the points that arrived since their last scan.
// A bounded ring keeps memory flat for arbitrarily long runs — the paper's
// §3.1 Q2 storage dilemma is modelled explicitly: capacity is a knob, and
// overflow drops the oldest data (recorded in dropped()).
//
// Storage grows on demand, geometrically, up to the capacity: a series
// costs memory for the points it actually retains, not for the points it
// could retain. Construction allocates nothing. Once the ring is full it
// never allocates again until Clear().
//
// Appends must be nondecreasing in time (MIHN_DCHECK-enforced). That makes
// every "points with time >= t" query a suffix of the ring, which
// FirstIndexAtOrAfter() finds by scanning back from the newest point: a
// reader that keeps up pays for the new points only.

#ifndef MIHN_SRC_SIM_TIME_SERIES_H_
#define MIHN_SRC_SIM_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace mihn::sim {

struct TimePoint {
  TimeNs time;
  double value;
};

class TimeSeries {
 public:
  // |capacity| is the maximum number of retained points (0 is clamped to 1).
  explicit TimeSeries(size_t capacity = 4096);

  // Precondition: |time| >= Latest().time when non-empty.
  void Append(TimeNs time, double value);

  size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }
  // The configured maximum, not the storage currently allocated.
  size_t capacity() const { return capacity_; }
  // Points of storage currently allocated: grows with size(), never past
  // capacity().
  size_t storage_points() const { return buffer_.capacity(); }

  // Number of points evicted due to capacity overflow.
  uint64_t dropped() const { return dropped_; }

  // i-th retained point, oldest first. Precondition: i < size().
  const TimePoint& At(size_t i) const {
    size_t slot = head_ + i;
    if (slot >= buffer_.size()) {
      slot -= buffer_.size();
    }
    return buffer_[slot];
  }

  const TimePoint& Latest() const { return At(size() - 1); }
  const TimePoint& Oldest() const { return At(0); }

  // Index of the first retained point with time >= |t|, or size() if there
  // is none. Scans back from the newest point, so it costs one step per
  // point in the answer's suffix.
  size_t FirstIndexAtOrAfter(TimeNs t) const;

  // Visits retained points oldest-first.
  void ForEach(const std::function<void(const TimePoint&)>& fn) const;

  // Statistics over points with time >= since.
  RunningStats StatsSince(TimeNs since) const;

  // Mean over the last |n| points (all points if fewer); 0 when the series
  // is empty or |n| is 0.
  double MeanOfLast(size_t n) const;

  // Copies points with time >= since, oldest first.
  std::vector<TimePoint> Window(TimeNs since) const;

  // Forgets every point and the dropped count; keeps the storage.
  void Clear();

 private:
  // Retained points. While filling, they sit oldest-first at [0, size())
  // and head_ is 0; once size() == capacity_ the vector stops growing and
  // becomes a ring whose oldest point is at head_.
  std::vector<TimePoint> buffer_;
  size_t capacity_;
  size_t head_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_TIME_SERIES_H_
