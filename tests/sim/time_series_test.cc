// TimeSeries unit tests, a reference-model equivalence sweep, and an
// allocation check. This binary overrides global operator new/delete with a
// counting shim (which is why it is its own test target: the override is
// link-global).

#include "src/sim/time_series.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <new>

#include "src/sim/random.h"

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

namespace mihn::sim {
namespace {

TEST(TimeSeriesTest, StartsEmpty) {
  TimeSeries ts(8);
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_EQ(ts.capacity(), 8u);
  EXPECT_EQ(ts.dropped(), 0u);
}

TEST(TimeSeriesTest, AppendAndAccess) {
  TimeSeries ts(8);
  ts.Append(TimeNs::Nanos(10), 1.0);
  ts.Append(TimeNs::Nanos(20), 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.Oldest().value, 1.0);
  EXPECT_EQ(ts.Latest().value, 2.0);
  EXPECT_EQ(ts.At(1).time, TimeNs::Nanos(20));
}

TEST(TimeSeriesTest, OverflowDropsOldest) {
  TimeSeries ts(3);
  for (int i = 0; i < 5; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.dropped(), 2u);
  EXPECT_EQ(ts.Oldest().value, 2.0);
  EXPECT_EQ(ts.Latest().value, 4.0);
}

TEST(TimeSeriesTest, CapacityOneKeepsLatest) {
  TimeSeries ts(1);
  ts.Append(TimeNs::Nanos(1), 1.0);
  ts.Append(TimeNs::Nanos(2), 2.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.Latest().value, 2.0);
}

TEST(TimeSeriesTest, ZeroCapacityClampedToOne) {
  TimeSeries ts(0);
  EXPECT_EQ(ts.capacity(), 1u);
  ts.Append(TimeNs::Nanos(1), 7.0);
  EXPECT_EQ(ts.Latest().value, 7.0);
}

TEST(TimeSeriesTest, ForEachVisitsOldestFirst) {
  TimeSeries ts(4);
  for (int i = 0; i < 6; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  std::vector<double> seen;
  ts.ForEach([&](const TimePoint& p) { seen.push_back(p.value); });
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));
}

TEST(TimeSeriesTest, StatsSinceFiltersOnTime) {
  TimeSeries ts(16);
  for (int i = 0; i < 10; ++i) {
    ts.Append(TimeNs::Micros(i), static_cast<double>(i));
  }
  const RunningStats s = ts.StatsSince(TimeNs::Micros(5));
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(TimeSeriesTest, MeanOfLast) {
  TimeSeries ts(16);
  for (int i = 1; i <= 5; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(ts.MeanOfLast(2), 4.5);
  EXPECT_DOUBLE_EQ(ts.MeanOfLast(100), 3.0);
  EXPECT_EQ(TimeSeries(4).MeanOfLast(3), 0.0);
  EXPECT_EQ(ts.MeanOfLast(0), 0.0);
}

TEST(TimeSeriesTest, WindowCopiesTail) {
  TimeSeries ts(16);
  for (int i = 0; i < 8; ++i) {
    ts.Append(TimeNs::Nanos(i * 10), static_cast<double>(i));
  }
  const auto window = ts.Window(TimeNs::Nanos(50));
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].value, 5.0);
  EXPECT_EQ(window[2].value, 7.0);
}

TEST(TimeSeriesTest, ClearResets) {
  TimeSeries ts(4);
  for (int i = 0; i < 10; ++i) {
    ts.Append(TimeNs::Nanos(i), 1.0);
  }
  ts.Clear();
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.dropped(), 0u);
  ts.Append(TimeNs::Nanos(99), 9.0);
  EXPECT_EQ(ts.Oldest().value, 9.0);
}

TEST(TimeSeriesTest, FirstIndexAtOrAfterFindsTheSuffix) {
  TimeSeries ts(4);
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(0)), 0u);
  for (int i = 0; i < 6; ++i) {
    ts.Append(TimeNs::Nanos(i * 10), static_cast<double>(i));  // Keeps 20..50.
  }
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(0)), 0u);
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(20)), 0u);
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(21)), 1u);
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(50)), 3u);
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(51)), 4u);
}

TEST(TimeSeriesTest, EqualTimesAreAllowedAndFoundTogether) {
  TimeSeries ts(8);
  ts.Append(TimeNs::Nanos(5), 1.0);
  ts.Append(TimeNs::Nanos(7), 2.0);
  ts.Append(TimeNs::Nanos(7), 3.0);
  EXPECT_EQ(ts.FirstIndexAtOrAfter(TimeNs::Nanos(7)), 1u);
  EXPECT_EQ(ts.Window(TimeNs::Nanos(6)).size(), 2u);
}

TEST(TimeSeriesTest, StorageGrowsOnDemandUpToCapacity) {
  TimeSeries ts(100);
  EXPECT_EQ(ts.storage_points(), 0u);
  ts.Append(TimeNs::Nanos(0), 0.0);
  EXPECT_GE(ts.storage_points(), 1u);
  EXPECT_LT(ts.storage_points(), 100u);
  for (int i = 1; i < 1000; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
    ASSERT_GE(ts.storage_points(), ts.size());
    ASSERT_LE(ts.storage_points(), ts.capacity());
  }
  EXPECT_EQ(ts.capacity(), 100u);
  EXPECT_EQ(ts.storage_points(), 100u);
  EXPECT_EQ(ts.dropped(), 900u);
  ts.Clear();
  EXPECT_EQ(ts.storage_points(), 100u);  // Clear keeps the storage.
}

// The reference model: an unbounded-storage deque with the ring's drop
// rule and linear-scan queries over every retained point.
struct ModelSeries {
  size_t capacity = 1;
  std::deque<TimePoint> points;
  uint64_t dropped = 0;

  void Append(TimeNs t, double v) {
    points.push_back(TimePoint{t, v});
    if (points.size() > capacity) {
      points.pop_front();
      ++dropped;
    }
  }
  void Clear() {
    points.clear();
    dropped = 0;
  }
  size_t FirstIndexAtOrAfter(TimeNs t) const {
    for (size_t i = 0; i < points.size(); ++i) {
      if (points[i].time >= t) {
        return i;
      }
    }
    return points.size();
  }
};

void ExpectSame(const TimeSeries& ts, const ModelSeries& model, Rng& rng) {
  ASSERT_EQ(ts.size(), model.points.size());
  ASSERT_EQ(ts.empty(), model.points.empty());
  ASSERT_EQ(ts.dropped(), model.dropped);
  ASSERT_EQ(ts.capacity(), model.capacity);
  ASSERT_LE(ts.size(), ts.storage_points());
  ASSERT_LE(ts.storage_points(), ts.capacity());
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_EQ(ts.At(i).time, model.points[i].time) << i;
    ASSERT_EQ(ts.At(i).value, model.points[i].value) << i;
  }
  if (!ts.empty()) {
    ASSERT_EQ(ts.Oldest().time, model.points.front().time);
    ASSERT_EQ(ts.Latest().value, model.points.back().value);
  }
  // Probe times below, inside, between and past the retained range.
  const int64_t hi = ts.empty() ? 10 : ts.Latest().time.nanos() + 3;
  for (int probe = 0; probe < 6; ++probe) {
    const TimeNs since = TimeNs::Nanos(rng.UniformInt(-2, hi));
    const size_t first = model.FirstIndexAtOrAfter(since);
    ASSERT_EQ(ts.FirstIndexAtOrAfter(since), first);
    const std::vector<TimePoint> window = ts.Window(since);
    ASSERT_EQ(window.size(), model.points.size() - first);
    RunningStats stats;
    for (size_t i = first; i < model.points.size(); ++i) {
      ASSERT_EQ(window[i - first].time, model.points[i].time);
      ASSERT_EQ(window[i - first].value, model.points[i].value);
      stats.Add(model.points[i].value);
    }
    const RunningStats got = ts.StatsSince(since);
    ASSERT_EQ(got.count(), stats.count());
    ASSERT_EQ(got.mean(), stats.mean());
  }
  const size_t n = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ts.size()) + 2));
  double sum = 0.0;
  const size_t take = std::min(n, model.points.size());
  for (size_t i = model.points.size() - take; i < model.points.size(); ++i) {
    sum += model.points[i].value;
  }
  ASSERT_EQ(ts.MeanOfLast(n), take == 0 ? 0.0 : sum / static_cast<double>(take));
}

TEST(TimeSeriesTest, MatchesReferenceModelAcrossFillWrapAndClear) {
  Rng rng(0x7153);
  for (int trial = 0; trial < 60; ++trial) {
    // Capacities 0 (clamped to 1), 1, small, around the first storage
    // block, and large enough to double several times before wrapping.
    const size_t requested =
        trial < 3 ? static_cast<size_t>(trial)
                  : static_cast<size_t>(rng.UniformInt(0, 1) == 0 ? rng.UniformInt(1, 20)
                                                                  : rng.UniformInt(15, 140));
    TimeSeries ts(requested);
    ModelSeries model;
    model.capacity = std::max<size_t>(requested, 1);
    const int appends =
        static_cast<int>(rng.UniformInt(0, 3 * static_cast<int64_t>(model.capacity) + 5));
    const int clear_at = rng.Bernoulli(0.4) ? static_cast<int>(rng.UniformInt(0, appends)) : -1;
    int64_t t = rng.UniformInt(0, 5);
    for (int i = 0; i < appends; ++i) {
      if (i == clear_at) {
        ts.Clear();
        model.Clear();
        ExpectSame(ts, model, rng);
        // After a Clear the next append may go back in time.
        t = rng.UniformInt(0, 5);
      }
      // Nondecreasing, with repeats.
      t += rng.UniformInt(0, 3);
      const double v = rng.Uniform(-1.0, 1.0);
      ts.Append(TimeNs::Nanos(t), v);
      model.Append(TimeNs::Nanos(t), v);
      ExpectSame(ts, model, rng);
      if (HasFatalFailure()) {
        FAIL() << "trial " << trial << " capacity " << requested << " append " << i;
      }
    }
  }
}

TEST(TimeSeriesTest, ConstructionAndFullRingAppendsAllocateNothing) {
  g_allocations = 0;
  g_counting = true;
  TimeSeries big(4096);
  g_counting = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(big.capacity(), 4096u);

  TimeSeries ring(8);
  for (int i = 0; i < 8; ++i) {
    ring.Append(TimeNs::Nanos(i), 1.0);
  }
  g_allocations = 0;
  g_counting = true;
  for (int i = 8; i < 1000; ++i) {
    ring.Append(TimeNs::Nanos(i), 1.0);
  }
  g_counting = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(ring.dropped(), 992u);
}

#ifdef MIHN_ENABLE_INVARIANT_CHECKS
TEST(TimeSeriesDeathTest, DecreasingAppendAborts) {
  TimeSeries ts(4);
  ts.Append(TimeNs::Nanos(10), 1.0);
  EXPECT_DEATH(ts.Append(TimeNs::Nanos(9), 2.0), "MIHN_CHECK failed");
}
#endif

}  // namespace
}  // namespace mihn::sim
