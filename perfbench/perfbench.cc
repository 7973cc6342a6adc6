// The repository benchmark's driver.
//
//   perfbench --workload <fleet_reduce|fleet_churn|chaos_sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--small]
//
// Prints the environment, the workload's human-readable figures, and as
// its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (layers a workload leaves idle read 0). Exits 1 when any
// output check fails, 2 on bad arguments or an unfit build.
//
// All times are host wall-clock time. The simulator's model has not been
// checked against hardware, so no accuracy figure is reported.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::vector<double> Trace::Durations(const std::string& name, double scale) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.begin_ns) * scale);
    }
  }
  return out;
}

namespace {

// The metric sets the result line carries, in BENCHMARK.json order.
const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", 0, "s"},      {"step_ms_mean", 0, "ms"}, {"step_ms_p90", 0, "ms"},
      {"steps_per_s", 0, "1/s"}, {"report_s", 0, "s"},     {"peak_rss_mb", 0, "MB"},
  };
  return kMetrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"fabric.solve_us", 0, "us"},
      {"fabric.solves", 0, "count"},
      {"fabric.mutations", 0, "count"},
      {"fabric.coalesce_ratio", 0, "ratio"},
      {"fabric.snapshot_us", 0, "us"},
      {"fabric.snapshot_ns_per_link", 0, "ns"},
      {"fleet.tick_us", 0, "us"},
      {"fleet.inter_snapshot_us", 0, "us"},
      {"fleet.rootcause_ms", 0, "ms"},
      {"fleet.digest_ms", 0, "ms"},
      {"fleet.render_ms", 0, "ms"},
      {"fleet.pool_speedup", 0, "ratio"},
      {"sim.events_per_tick", 0, "count"},
      {"chaos.trial_ms", 0, "ms"},
      {"chaos.assemble_us", 0, "us"},
      {"chaos.rank_us", 0, "us"},
      {"chaos.report_ms", 0, "ms"},
      {"core.pool_busy_ratio", 0, "ratio"},
      {"anomaly.probes_per_trial", 0, "count"},
      {"anomaly.signals_per_trial", 0, "count"},
      {"anomaly.detections_per_trial", 0, "count"},
      {"manager.repairs_per_trial", 0, "count"},
      {"manager.slo_violations_per_trial", 0, "count"},
      {"chaos.stream_restarts_per_trial", 0, "count"},
      {"chaos.injector_ops_per_trial", 0, "count"},
      {"trace_overhead_ratio", 0, "ratio"},
  };
  return kMetrics;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fleet_reduce|fleet_churn|"
               "chaos_sweep> --seed <n> --seconds <s> --trace <0|1> [--small]\n",
               why);
  return 2;
}

template <typename T>
bool ParseNumber(const char* text, T* value) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *value);
  return ec == std::errc() && ptr == end;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--small") {
      args.small = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      if (!ParseNumber(argv[++i], &args.seed)) {
        return Usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds" && has_value) {
      if (!ParseNumber(argv[++i], &args.seconds) || !(args.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace" && has_value) {
      if (!ParseNumber(argv[++i], &trace_flag) || (trace_flag != 0 && trace_flag != 1)) {
        return Usage("--trace takes 0 or 1");
      }
    } else {
      return Usage(("unknown or incomplete argument " + flag).c_str());
    }
  }
  if (trace_flag < 0) {
    return Usage("--trace is required");
  }
  args.trace = trace_flag == 1;
  const bool fleet_reduce = args.workload == "fleet_reduce";
  const bool fleet_churn = args.workload == "fleet_churn";
  if (!fleet_reduce && !fleet_churn && args.workload != "chaos_sweep") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  const int nproc = Nproc();
  args.threads = std::min(nproc, 4);
#if defined(MIHN_ENABLE_INVARIANT_CHECKS)
  const bool invariant_checks = true;
#else
  const bool invariant_checks = false;
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("env: nproc=%d hardware_concurrency=%u threads=%d build_type=%s optimized=%s "
              "invariant_checks=%s\n",
              nproc, std::thread::hardware_concurrency(), args.threads, PERFBENCH_BUILD_TYPE,
              optimized ? "yes" : "no", invariant_checks ? "on" : "off");
  if (!optimized || invariant_checks) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build; build with "
                 "CMAKE_BUILD_TYPE=Release and MIHN_ENABLE_INVARIANT_CHECKS=OFF\n",
                 invariant_checks ? "MIHN_ENABLE_INVARIANT_CHECKS" : "non-optimized");
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              trace_flag, args.small ? "small" : "full");
  std::fflush(stdout);

  Outcome outcome = args.workload == "chaos_sweep" ? RunChaosWorkload(args)
                                                   : RunFleetWorkload(args, fleet_churn);

  for (const std::string& line : outcome.info) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& line : outcome.notes) {
    std::printf("CHECK FAILED: %s\n", line.c_str());
  }
  const double failed_ratio =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted)
          : 1.0;
  std::printf("failed_ratio = %.6f ratio (%lld of %lld)\n", failed_ratio,
              static_cast<long long>(outcome.failed), static_cast<long long>(outcome.attempted));

  // Emit exactly the requested set, in canonical order. A layer the
  // workload leaves idle reads 0; an end-to-end metric must always be
  // measured.
  bool correct = outcome.notes.empty() && outcome.failed == 0 && outcome.attempted > 0;
  const std::vector<Metric>& wanted = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const Metric& want : wanted) {
    double value = 0.0;
    bool found = false;
    for (const Metric& got : outcome.metrics) {
      if (got.name == want.name) {
        value = got.value;
        found = true;
      }
    }
    if (!std::isfinite(value) || (!args.trace && !(found && value > 0.0))) {
      std::printf("CHECK FAILED: metric %s not measured (%g)\n", want.name.c_str(), value);
      correct = false;
      value = 0.0;
    }
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", want.name.c_str(), value, want.unit.c_str());
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(std::max<int64_t>(
                                                  outcome.attempted, 1)),
              static_cast<long long>(outcome.failed), metrics.c_str());
  return correct ? 0 : 1;
}
