// Shared pieces of the repository benchmark: arguments, the seeded input
// generator, wall-clock timing, order statistics, and the in-memory span
// recorder the traced run uses.
//
// Everything here lives outside src/: the benchmark measures each layer
// from the outside, by spans around calls into that layer's public API.

#ifndef MIHN_PERFBENCH_COMMON_H_
#define MIHN_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Reduced inputs for the self-test: same code paths, a fraction of the
  // work.
  bool small = false;
  int threads = 1;  // min(nproc, 4), decided by main().
};

// One named number of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run hands back to main(): the metrics for the requested
// mode, the operation tally, and human-readable lines (including the
// workload-specific metric names, e.g. tick_ms_p50 for a fleet workload).
struct Outcome {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;       // Output-check failures, one per line.
  std::vector<std::string> info;        // Printed before the result line.
};

// splitmix64: the benchmark's own generator, so the generated inputs do
// not move when the simulator's sim::Rng changes.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform integer in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

inline double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

// printf-style formatting of one number.
inline std::string Fmt(const char* format, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// Peak resident set of this process, in MB.
double PeakRssMb();

// In-memory span and counter recorder for the traced run. Spans are
// recorded at layer boundaries by the benchmark's own code; nothing inside
// src/ is instrumented.
class Trace {
 public:
  struct Span {
    std::string name;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
  };

  void Add(std::string name, int64_t begin_ns, int64_t end_ns) {
    spans_.push_back({std::move(name), begin_ns, end_ns});
  }
  void Count(const std::string& name, double delta) { counters_[name] += delta; }

  // Durations of every span called |name|, in the given unit scale
  // (1e-3 for us, 1e-6 for ms).
  std::vector<double> Durations(const std::string& name, double scale) const;
  double Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// RAII span: records [construction, destruction) into |trace| when it is
// non-null, and nothing otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name) : trace_(trace), name_(name) {
    if (trace_ != nullptr) {
      begin_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->Add(name_, begin_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  int64_t begin_ns_ = 0;
};

// Workload entry points (fleet_workload.cc, chaos_workload.cc).
Outcome RunFleetWorkload(const Args& args, bool churn);
Outcome RunChaosWorkload(const Args& args);

}  // namespace perfbench

#endif  // MIHN_PERFBENCH_COMMON_H_
