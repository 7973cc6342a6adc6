#include "src/sim/time_series.h"

#include <algorithm>

#include "src/core/check.h"

namespace mihn::sim {
namespace {

// First storage block: a handful of samples before the first doubling.
constexpr size_t kInitialStoragePoints = 16;

}  // namespace

TimeSeries::TimeSeries(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

void TimeSeries::Append(TimeNs time, double value) {
  MIHN_DCHECK(empty() || Latest().time <= time);
  if (buffer_.size() < capacity_) {
    if (buffer_.size() == buffer_.capacity()) {
      buffer_.reserve(
          std::min(capacity_, std::max(kInitialStoragePoints, 2 * buffer_.capacity())));
    }
    buffer_.push_back(TimePoint{time, value});
    return;
  }
  buffer_[head_] = TimePoint{time, value};
  head_ = head_ + 1 == buffer_.size() ? 0 : head_ + 1;
  ++dropped_;
}

size_t TimeSeries::FirstIndexAtOrAfter(TimeNs t) const {
  size_t i = size();
  while (i > 0 && At(i - 1).time >= t) {
    --i;
  }
  return i;
}

void TimeSeries::ForEach(const std::function<void(const TimePoint&)>& fn) const {
  for (size_t i = 0; i < size(); ++i) {
    fn(At(i));
  }
}

RunningStats TimeSeries::StatsSince(TimeNs since) const {
  RunningStats stats;
  for (size_t i = FirstIndexAtOrAfter(since); i < size(); ++i) {
    stats.Add(At(i).value);
  }
  return stats;
}

double TimeSeries::MeanOfLast(size_t n) const {
  if (empty() || n == 0) {
    return 0.0;
  }
  const size_t take = std::min(n, size());
  double sum = 0.0;
  for (size_t i = size() - take; i < size(); ++i) {
    sum += At(i).value;
  }
  return sum / static_cast<double>(take);
}

std::vector<TimePoint> TimeSeries::Window(TimeNs since) const {
  std::vector<TimePoint> out;
  for (size_t i = FirstIndexAtOrAfter(since); i < size(); ++i) {
    out.push_back(At(i));
  }
  return out;
}

void TimeSeries::Clear() {
  buffer_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace mihn::sim
