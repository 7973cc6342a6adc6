// chaos_sweep: the policy_grid sweep (demo campaign x 4 recovery policies
// x 2 fault scales) with trials raised to 13 per cell, so one sweep is 104
// trial runs fanned over a TrialExecutor of width min(nproc, 4).
//
// The sweep is flattened through the public chaos API — ExpandGrid,
// Campaign::RunTrial on the executor, Campaign::Assemble, RankCells,
// SweepReportJson — so every trial is timed and, in the traced run, every
// stage gets its own span. Each worker is a closed loop: it starts its next
// trial only when the previous one returns. A run repeats whole sweeps
// (episodes); each episode's set-up parses the grid file, builds the
// campaigns and the executor, and warms every worker with one trial.
//
// Output check: every episode's report bytes must equal the report of the
// library's own serial sweep (Sweep::Run on a width-0 executor) for the
// same seed, no trial may fail, and every demo cell must reach hard recall
// 1.0.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/chaos/sweep.h"

namespace perfbench {
namespace {

using namespace mihn;

constexpr const char* kGridPath = "tools/mihn_chaos/campaigns/policy_grid.chaos";

struct TimedRun {
  chaos::TrialRun run;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

// What the checks and metrics need from one trial. The TrialRun itself
// moves into Assemble, as in Sweep::Run.
struct TrialStat {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  bool failed = false;
};

// What the checks need from one assembled cell.
struct CellStat {
  int index = 0;
  bool ok = false;
  double hard_recall = 0.0;
  int trials = 0;
  std::string error;
};

struct Episode {
  double setup_s = 0.0;
  double map_s = 0.0;
  double report_s = 0.0;
  std::vector<TrialStat> trials;
  std::vector<CellStat> cells;
  bool report_matches = false;  // Report bytes equal the serial sweep's.
  int workers = 1;
};

bool LoadConfig(int trials, uint64_t campaign_seed, chaos::SweepConfig* config,
                std::string* error) {
  if (!chaos::LoadSweepFile(kGridPath, config, error)) {
    return false;
  }
  config->trials = trials;
  config->seed = campaign_seed;
  config->has_seed = true;
  return true;
}

bool RunEpisode(int trials, uint64_t campaign_seed, int width, const std::string& reference,
                Trace* trace, Episode* ep, std::string* error) {
  const int64_t setup_begin = NowNs();
  chaos::SweepConfig config;
  if (!LoadConfig(trials, campaign_seed, &config, error)) {
    return false;
  }
  const std::vector<chaos::SweepCell> cells = chaos::ExpandGrid(config);
  std::vector<chaos::Campaign> campaigns;
  campaigns.reserve(cells.size());
  std::vector<std::pair<size_t, int>> pairs;
  for (size_t c = 0; c < cells.size(); ++c) {
    campaigns.emplace_back(cells[c].config);
    for (int t = 0; t < cells[c].config.trials; ++t) {
      pairs.emplace_back(c, t);
    }
  }
  chaos::TrialExecutor executor(width);
  ep->workers = executor.workers();
  const auto run_pair = [&](size_t i) {
    TimedRun timed;
    timed.begin_ns = NowNs();
    timed.run = campaigns[pairs[i].first].RunTrial(pairs[i].second);
    timed.end_ns = NowNs();
    return timed;
  };
  // Warm-up: one trial per worker.
  executor.Map(std::min(pairs.size(), static_cast<size_t>(ep->workers)), run_pair);
  const int64_t map_begin = NowNs();
  ep->setup_s = Seconds(setup_begin, map_begin);

  std::vector<TimedRun> timed = executor.Map(pairs.size(), run_pair);
  const int64_t map_end = NowNs();
  ep->map_s = Seconds(map_begin, map_end);

  // Benchmark bookkeeping, outside every timed section.
  ep->trials.reserve(timed.size());
  double busy_ns = 0.0;
  for (const TimedRun& t : timed) {
    ep->trials.push_back({t.begin_ns, t.end_ns, !t.run.error.empty()});
    if (trace != nullptr) {
      trace->Add("chaos.trial", t.begin_ns, t.end_ns);
      busy_ns += static_cast<double>(t.end_ns - t.begin_ns);
      const chaos::TrialResult& r = t.run.result;
      trace->Count("trials", 1.0);
      trace->Count("anomaly.probes", static_cast<double>(r.probes_sent));
      trace->Count("anomaly.signals", static_cast<double>(r.signals.size()));
      trace->Count("anomaly.detections", static_cast<double>(r.anomalies));
      trace->Count("manager.repairs", static_cast<double>(r.repairs));
      trace->Count("manager.slo_violations", static_cast<double>(r.violations_total));
      trace->Count("chaos.stream_restarts", static_cast<double>(r.stream_restarts));
      trace->Count("chaos.injector_ops", static_cast<double>(r.injector_operations));
    }
  }
  if (trace != nullptr) {
    trace->Count("core.busy_ns", busy_ns);
    trace->Count("core.capacity_ns",
                 static_cast<double>(ep->workers) * static_cast<double>(map_end - map_begin));
  }

  // Per-cell merge in strict (cell, trial) order, as Sweep::Run does.
  const int64_t report_begin = NowNs();
  chaos::SweepResult result;
  result.cells.reserve(cells.size());
  size_t next = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<chaos::TrialRun> runs;
    runs.reserve(static_cast<size_t>(cells[c].config.trials));
    for (int t = 0; t < cells[c].config.trials; ++t) {
      runs.push_back(std::move(timed[next++].run));
    }
    chaos::SweepCellResult cell;
    cell.index = cells[c].index;
    cell.campaign = cells[c].campaign;
    cell.preset = cells[c].preset;
    cell.fault_scale = cells[c].fault_scale;
    cell.policy = cells[c].policy;
    {
      ScopedSpan span(trace, "chaos.assemble");
      cell.result = campaigns[c].Assemble(std::move(runs));
    }
    result.cells.push_back(std::move(cell));
  }
  {
    ScopedSpan span(trace, "chaos.rank");
    result.ranking = chaos::RankCells(result.cells);
  }
  std::string report;
  {
    ScopedSpan span(trace, "chaos.report");
    report = chaos::SweepReportJson(result);
  }
  ep->report_s = Seconds(report_begin, NowNs());

  ep->report_matches = report == reference;
  for (const chaos::SweepCellResult& cell : result.cells) {
    ep->cells.push_back({cell.index, cell.result.ok(), cell.result.hard_recall,
                         cell.result.trials, cell.result.error});
  }
  return true;
}

}  // namespace

Outcome RunChaosWorkload(const Args& args) {
  const int trials = args.small ? 1 : 13;
  // The campaign seed is the only generated input; every trial seed
  // forks from it inside the campaign.
  const uint64_t campaign_seed = InputRng(args.seed).Next();

  Outcome out;
  std::string error;
  chaos::SweepConfig config;
  if (!LoadConfig(trials, campaign_seed, &config, &error)) {
    out.notes.push_back("chaos_sweep: " + error);
    return out;
  }
  std::string reference_report;
  int serial_workers = 0;
  {
    chaos::TrialExecutor serial(0);
    serial_workers = serial.workers();
    const chaos::SweepResult reference = chaos::Sweep(config).Run(serial);
    reference_report = chaos::SweepReportJson(reference);
    if (!reference.ok() || !reference.all_cells_ok()) {
      out.notes.push_back("chaos_sweep: serial reference sweep failed: " + reference.error);
    }
  }

  std::vector<Episode> plain;
  std::vector<Episode> traced;
  Trace trace;
  double timed_s = 0.0;
  size_t trials_done = 0;
  double rss_mb = 0.0;
  while (timed_s < args.seconds || plain.size() < 3 || trials_done < 200) {
    plain.emplace_back();
    if (!RunEpisode(trials, campaign_seed, args.threads, reference_report, nullptr,
                    &plain.back(), &error)) {
      out.notes.push_back("chaos_sweep: " + error);
      return out;
    }
    timed_s += plain.back().map_s;
    trials_done += plain.back().trials.size();
    // Peak RSS as of the third sweep, so that the figure does not depend
    // on how many sweeps the time allows.
    if (plain.size() == 3) {
      rss_mb = PeakRssMb();
    }
    if (args.trace) {
      traced.emplace_back();
      if (!RunEpisode(trials, campaign_seed, args.threads, reference_report, &trace,
                      &traced.back(), &error)) {
        out.notes.push_back("chaos_sweep: " + error);
        return out;
      }
      timed_s += traced.back().map_s;
    }
  }

  const auto check = [&](const Episode& ep, const char* what) {
    const int64_t n = static_cast<int64_t>(ep.trials.size());
    out.attempted += n;
    int64_t failed = 0;
    for (const TrialStat& trial : ep.trials) {
      failed += trial.failed ? 1 : 0;
    }
    for (const CellStat& cell : ep.cells) {
      if (!cell.ok || cell.hard_recall < 1.0) {
        out.notes.push_back(std::string("chaos_sweep: ") + what + " cell " +
                            std::to_string(cell.index) + " hard_recall " +
                            Fmt("%.3f", cell.hard_recall) + " " + cell.error);
        failed += cell.trials;
      }
    }
    if (!ep.report_matches) {
      out.notes.push_back(std::string("chaos_sweep: ") + what +
                          " report differs from the serial sweep report");
      failed = n;
    }
    out.failed += std::min(failed, n);
  };
  for (const Episode& ep : plain) {
    check(ep, "pooled");
  }
  for (const Episode& ep : traced) {
    check(ep, "traced");
  }

  std::vector<double> setup_s;
  std::vector<double> trial_ms;
  std::vector<double> report_s;
  std::vector<double> plain_map_s;
  double map_total = 0.0;
  for (const Episode& ep : plain) {
    setup_s.push_back(ep.setup_s);
    for (const TrialStat& trial : ep.trials) {
      trial_ms.push_back(Seconds(trial.begin_ns, trial.end_ns) * 1e3);
    }
    report_s.push_back(ep.report_s);
    plain_map_s.push_back(ep.map_s);
    map_total += ep.map_s;
  }

  out.info.push_back("env: TrialExecutor.workers=" + std::to_string(plain.front().workers) +
                     " serial_reference_workers=" + std::to_string(serial_workers));
  out.info.push_back("chaos_sweep: grid=" + std::string(kGridPath) + " cells=" +
                     std::to_string(plain.front().cells.size()) + " trials_per_sweep=" +
                     std::to_string(plain.front().trials.size()) + " sweeps=" +
                     std::to_string(plain.size()) + " timed_trials=" +
                     std::to_string(trial_ms.size()));

  if (!args.trace) {
    const double trials_per_s = static_cast<double>(trial_ms.size()) / map_total;
    out.info.push_back(Fmt("trials_per_s = %.3f 1/s", trials_per_s));
    out.info.push_back(Fmt("trial_ms_p50 = %.4f ms", Median(trial_ms)));
    out.info.push_back(Fmt("trial_ms_p90 = %.4f ms", Quantile(trial_ms, 0.90)) + " (n=" +
                       std::to_string(trial_ms.size()) + ")");
    out.info.push_back(Fmt("report_s = %.6f s", Median(report_s)));
    out.info.push_back(Fmt("setup_s = %.4f s", Median(setup_s)));
    out.info.push_back(Fmt("peak_rss_mb = %.1f MB", rss_mb));
    out.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"step_ms_mean", Mean(trial_ms), "ms"},
        {"step_ms_p90", Quantile(trial_ms, 0.90), "ms"},
        {"steps_per_s", trials_per_s, "1/s"},
        {"report_s", Median(report_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return out;
  }

  std::vector<double> traced_map_s;
  for (const Episode& ep : traced) {
    traced_map_s.push_back(ep.map_s);
  }
  const double n = trace.Counter("trials");
  out.metrics = {
      {"chaos.trial_ms", Median(trace.Durations("chaos.trial", 1e-6)), "ms"},
      {"chaos.assemble_us", Median(trace.Durations("chaos.assemble", 1e-3)), "us"},
      {"chaos.rank_us", Median(trace.Durations("chaos.rank", 1e-3)), "us"},
      {"chaos.report_ms", Median(trace.Durations("chaos.report", 1e-6)), "ms"},
      {"core.pool_busy_ratio", trace.Counter("core.busy_ns") / trace.Counter("core.capacity_ns"),
       "ratio"},
      {"anomaly.probes_per_trial", trace.Counter("anomaly.probes") / n, "count"},
      {"anomaly.signals_per_trial", trace.Counter("anomaly.signals") / n, "count"},
      {"anomaly.detections_per_trial", trace.Counter("anomaly.detections") / n, "count"},
      {"manager.repairs_per_trial", trace.Counter("manager.repairs") / n, "count"},
      {"manager.slo_violations_per_trial", trace.Counter("manager.slo_violations") / n, "count"},
      {"chaos.stream_restarts_per_trial", trace.Counter("chaos.stream_restarts") / n, "count"},
      {"chaos.injector_ops_per_trial", trace.Counter("chaos.injector_ops") / n, "count"},
      {"trace_overhead_ratio", Median(traced_map_s) / Median(plain_map_s), "ratio"},
  };
  return out;
}

}  // namespace perfbench
