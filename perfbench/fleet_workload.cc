// fleet_reduce and fleet_churn: closed-loop Fleet::Tick() on 1024 hosts.
//
// One caller issues the next tick only after the previous one returns.
// A run is a series of episodes; each episode builds a fresh fleet from
// the generated inputs (set-up), runs a fixed number of timed ticks, and
// pulls the results out (TelemetryDigest + RenderReport). A fixed episode
// length keeps report_s and peak_rss_mb comparable across commits: a
// faster tick runs more episodes, not a longer sample history.
//
// Episodes alternate between a serial fleet (worker_threads = 0) and a
// pooled one (worker_threads = min(nproc, 4)). Output check: every
// episode's digest — pooled, serial and traced — must equal the first
// serial episode's, and every report must embed it.

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/fleet/fleet.h"

namespace perfbench {
namespace {

using namespace mihn;

constexpr int kWarmupTicks = 2;
// The traced run calls RootCauseView() every this many ticks.
constexpr int kRootCauseEvery = 10;

struct CrossPlacement {
  int src = 0;
  int dst = 0;
  int gbps = 0;
  fabric::TenantId tenant = fabric::kNoTenant;
};

struct IntraPlacement {
  bool nic_route = false;  // NIC -> DIMM; otherwise SSD -> DIMM.
  int gbps = 0;
  fabric::TenantId tenant = fabric::kNoTenant;
};

struct ChurnOp {
  int flow = 0;  // Index into the host's intra-host flows.
  int gbps = 0;
};

// Everything the fleet receives, generated from the seed up front.
struct FleetInputs {
  int hosts = 0;
  int ticks = 0;  // Timed ticks per episode.
  int intra_per_host = 0;
  std::vector<CrossPlacement> cross;
  std::vector<IntraPlacement> intra;  // Host-major, intra_per_host per host.
  std::vector<ChurnOp> churn;         // (warm-up + timed) rows x hosts; empty: none.
};

constexpr int kHostsPerRack = 32;

// A fixed spread of |n| integer levels over [lo, hi], shuffled by the seed:
// every seed offers the same total load; only where each level lands
// differs.
std::vector<int> ShuffledLevels(InputRng& rng, size_t n, int lo, int hi) {
  std::vector<int> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = lo + static_cast<int>(static_cast<size_t>(hi - lo + 1) * i / n);
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(levels[i - 1], levels[rng.Next() % i]);
  }
  return levels;
}

// bench_fleet's cross-host pattern — one intra-rack and one cross-rack flow
// per 16-host block (126 flows at 1024 hosts) — with endpoints and demands
// drawn from the seed. Near flows stay inside their block; far flows land
// in a different rack.
std::vector<CrossPlacement> GenerateCross(InputRng& rng, int hosts) {
  std::vector<CrossPlacement> near;
  std::vector<CrossPlacement> far;
  const int racks = hosts / kHostsPerRack;
  for (int base = 0; base + 5 < hosts; base += 16) {
    int offsets[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    for (int i = 0; i < 3; ++i) {
      std::swap(offsets[i], offsets[rng.Range(i, 7)]);
    }
    near.push_back({base + offsets[0], base + offsets[1], 0, 7});
    if (base + 40 < hosts) {
      const int src_rack = base / kHostsPerRack;
      const int dst_rack = (src_rack + rng.Range(1, racks - 1)) % racks;
      const int dst = dst_rack * kHostsPerRack + 16 * rng.Range(0, 1) + rng.Range(8, 15);
      far.push_back({base + offsets[2], dst, 0, 9});
    }
  }
  const std::vector<int> near_gbps = ShuffledLevels(rng, near.size(), 20, 60);
  const std::vector<int> far_gbps = ShuffledLevels(rng, far.size(), 40, 100);
  std::vector<CrossPlacement> cross;
  for (size_t i = 0; i < near.size(); ++i) {
    near[i].gbps = near_gbps[i];
    cross.push_back(near[i]);
    if (i < far.size()) {
      far[i].gbps = far_gbps[i];
      cross.push_back(far[i]);
    }
  }
  return cross;
}

FleetInputs Generate(uint64_t seed, int hosts, int ticks, int intra_per_host) {
  InputRng rng(seed);
  FleetInputs in;
  in.hosts = hosts;
  in.ticks = ticks;
  in.intra_per_host = intra_per_host;
  in.cross = GenerateCross(rng, hosts);
  if (intra_per_host > 0) {
    const size_t flows = static_cast<size_t>(hosts) * static_cast<size_t>(intra_per_host);
    const std::vector<int> routes = ShuffledLevels(rng, flows, 0, 1);
    const std::vector<int> gbps = ShuffledLevels(rng, flows, 1, 16);
    const std::vector<int> tenants = ShuffledLevels(rng, flows, 11, 13);
    for (size_t i = 0; i < flows; ++i) {
      in.intra.push_back({routes[i] == 1, gbps[i], static_cast<fabric::TenantId>(tenants[i])});
    }
    const size_t ops = static_cast<size_t>(kWarmupTicks + ticks) * static_cast<size_t>(hosts);
    const std::vector<int> churn_gbps = ShuffledLevels(rng, ops, 1, 16);
    for (size_t i = 0; i < ops; ++i) {
      in.churn.push_back({rng.Range(0, intra_per_host - 1), churn_gbps[i]});
    }
  }
  return in;
}

struct Episode {
  double setup_s = 0.0;
  double loop_s = 0.0;
  double digest_s = 0.0;
  double render_s = 0.0;
  std::vector<double> tick_ms;
  uint64_t digest = 0;
  bool report_ok = false;
  int workers = 1;
};

double TotalCounter(fleet::Fleet& f, bool solves) {
  double total = 0.0;
  for (int h = 0; h < f.host_count(); ++h) {
    const fabric::Fabric& fabric = f.host(h).fabric();
    total += static_cast<double>(solves ? fabric.recompute_count() : fabric.mutation_count());
  }
  return total;
}

// One fleet lifetime. With |trace| set, every tick is wrapped in the
// per-layer probes: the pending per-host solves are forced (FlowRate)
// before Tick so the solve cost shows as its own span, and SnapshotAll,
// the inter-host snapshot and (every kRootCauseEvery ticks) RootCauseView
// are called after it. All probes read state at the tick's virtual time,
// so they leave the telemetry digest unchanged.
Episode RunEpisode(const FleetInputs& in, int worker_threads, Trace* trace) {
  Episode ep;
  const int64_t setup_begin = NowNs();
  fleet::Fleet::Options options;
  options.worker_threads = worker_threads;
  fleet::Fleet f(in.hosts, options);
  ep.workers = f.worker_parallelism();
  for (const CrossPlacement& c : in.cross) {
    fleet::CrossHostFlowSpec spec;
    spec.tenant = c.tenant;
    spec.src_host = c.src;
    spec.dst_host = c.dst;
    spec.demand = sim::Bandwidth::Gbps(c.gbps);
    f.StartCrossHostFlow(spec);
  }
  std::vector<fabric::FlowId> intra_ids(in.intra.size(), fabric::kInvalidFlow);
  if (in.intra_per_host > 0) {
    for (int h = 0; h < in.hosts; ++h) {
      fabric::Fabric& fabric = f.host(h).fabric();
      const topology::Server& server = f.host(h).server();
      const topology::Path ssd_route = *fabric.Route(server.ssds[0], server.dimms[0]);
      const topology::Path nic_route = *fabric.Route(server.nics[0], server.dimms[0]);
      for (int i = 0; i < in.intra_per_host; ++i) {
        const size_t k = static_cast<size_t>(h * in.intra_per_host + i);
        fabric::FlowSpec spec;
        spec.path = in.intra[k].nic_route ? nic_route : ssd_route;
        spec.tenant = in.intra[k].tenant;
        spec.demand = sim::Bandwidth::Gbps(in.intra[k].gbps);
        intra_ids[k] = fabric.StartFlow(spec);
      }
    }
  }
  const auto apply_churn = [&](int row) {
    if (in.churn.empty()) {
      return;
    }
    for (int h = 0; h < in.hosts; ++h) {
      const ChurnOp& op = in.churn[static_cast<size_t>(row * in.hosts + h)];
      f.host(h).fabric().SetFlowDemand(
          intra_ids[static_cast<size_t>(h * in.intra_per_host + op.flow)],
          sim::Bandwidth::Gbps(op.gbps));
    }
  };
  for (int w = 0; w < kWarmupTicks; ++w) {
    apply_churn(w);
    f.Tick();
  }
  const int64_t loop_begin = NowNs();
  ep.setup_s = Seconds(setup_begin, loop_begin);

  ep.tick_ms.reserve(static_cast<size_t>(in.ticks));
  for (int t = 0; t < in.ticks; ++t) {
    const int64_t tick_begin = NowNs();
    if (trace == nullptr) {
      apply_churn(kWarmupTicks + t);
      f.Tick();
    } else {
      const double solves_before = TotalCounter(f, true);
      const double mutations_before = TotalCounter(f, false);
      apply_churn(kWarmupTicks + t);
      {
        ScopedSpan span(trace, "fabric.solve");
        for (int h = 0; h < in.hosts; ++h) {
          f.host(h).fabric().FlowRate(fabric::kInvalidFlow);
        }
      }
      const uint64_t events_before = f.simulation().events_executed();
      {
        ScopedSpan span(trace, "fleet.tick");
        f.Tick();
      }
      trace->Count("sim.events", static_cast<double>(f.simulation().events_executed() -
                                                      events_before));
      trace->Count("fabric.solves", TotalCounter(f, true) - solves_before);
      trace->Count("fabric.mutations", TotalCounter(f, false) - mutations_before);
      {
        ScopedSpan span(trace, "fabric.snapshot");
        size_t links = 0;
        for (int h = 0; h < in.hosts; ++h) {
          links += f.host(h).fabric().SnapshotAll().size();
        }
        trace->Count("fabric.snapshot_links", static_cast<double>(links));
      }
      {
        ScopedSpan span(trace, "fleet.inter_snapshot");
        f.inter_host().SnapshotLinks();
      }
      if ((t + 1) % kRootCauseEvery == 0) {
        ScopedSpan span(trace, "fleet.rootcause");
        f.RootCauseView();
      }
      trace->Count("ticks", 1.0);
    }
    ep.tick_ms.push_back(Seconds(tick_begin, NowNs()) * 1e3);
  }
  const int64_t report_begin = NowNs();
  ep.loop_s = Seconds(loop_begin, report_begin);

  {
    ScopedSpan span(trace, "fleet.digest");
    ep.digest = f.TelemetryDigest();
  }
  const int64_t render_begin = NowNs();
  ep.digest_s = Seconds(report_begin, render_begin);
  std::string report;
  {
    ScopedSpan span(trace, "fleet.render");
    report = f.RenderReport();
  }
  ep.render_s = Seconds(render_begin, NowNs());
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"%016llx\"", static_cast<unsigned long long>(ep.digest));
  ep.report_ok = report.find(hex) != std::string::npos &&
                 f.samples().size() == static_cast<size_t>(kWarmupTicks + in.ticks);
  return ep;
}

}  // namespace

Outcome RunFleetWorkload(const Args& args, bool churn) {
  const char* name = churn ? "fleet_churn" : "fleet_reduce";
  const int hosts = args.small ? 64 : 1024;
  const int intra_per_host = churn ? (args.small ? 16 : 128) : 0;
  const int ticks = args.small ? 20 : (churn ? 70 : 300);
  const FleetInputs in = Generate(args.seed, hosts, ticks, intra_per_host);

  // Serial and pooled episodes alternate until the time is spent, with at
  // least three serial episodes (a set-up median) and 200 serial ticks
  // (ten ticks beyond p95). The end-to-end figures come from the serial
  // fleet: a pooled tick parks and wakes its workers at four barriers, and
  // on a shared virtual machine that wake-up latency swings its wall time
  // by tens of percent from run to run. The pooled figures are printed,
  // and the traced run reports the pool's speed-up as fleet.pool_speedup.
  std::vector<Episode> serial;
  std::vector<Episode> pooled;
  std::vector<Episode> traced;
  Trace trace;
  double timed_s = 0.0;
  double rss_mb = 0.0;
  while (timed_s < args.seconds || serial.size() < 3 ||
         static_cast<int64_t>(serial.size()) * in.ticks < 200) {
    serial.push_back(RunEpisode(in, 0, nullptr));
    pooled.push_back(RunEpisode(in, args.threads, nullptr));
    timed_s += serial.back().loop_s + pooled.back().loop_s;
    // Peak RSS as of the third episode pair, so that the figure does not
    // depend on how many episodes the time allows.
    if (serial.size() == 3) {
      rss_mb = PeakRssMb();
    }
    if (args.trace) {
      traced.push_back(RunEpisode(in, 0, &trace));
      timed_s += traced.back().loop_s;
    }
  }

  Outcome out;
  const uint64_t expected = serial.front().digest;
  const auto check = [&](const std::vector<Episode>& episodes, const char* what) {
    for (const Episode& ep : episodes) {
      out.attempted += in.ticks;
      if (ep.digest != expected || !ep.report_ok) {
        out.failed += in.ticks;
        char line[160];
        std::snprintf(line, sizeof(line), "%s: %s episode digest %016llx != serial %016llx%s",
                      name, what, static_cast<unsigned long long>(ep.digest),
                      static_cast<unsigned long long>(expected),
                      ep.report_ok ? "" : " (report incomplete)");
        out.notes.push_back(line);
      }
    }
  };
  check(serial, "serial");
  check(pooled, "pooled");
  check(traced, "traced");

  const auto ticks_of = [](const std::vector<Episode>& episodes) {
    std::vector<double> all;
    for (const Episode& ep : episodes) {
      all.insert(all.end(), ep.tick_ms.begin(), ep.tick_ms.end());
    }
    return all;
  };
  const auto loop_of = [](const std::vector<Episode>& episodes) {
    double total = 0.0;
    for (const Episode& ep : episodes) {
      total += ep.loop_s;
    }
    return total;
  };
  const std::vector<double> tick_ms = ticks_of(serial);
  const std::vector<double> pooled_tick_ms = ticks_of(pooled);
  const double serial_loop_s = loop_of(serial);
  const double pooled_loop_s = loop_of(pooled);
  const double n_ticks = static_cast<double>(tick_ms.size());
  const double pool_speedup = serial_loop_s / pooled_loop_s;

  out.info.push_back("env: fleet.worker_parallelism=" + std::to_string(pooled.front().workers) +
                     " (pooled episodes), 1 (serial episodes)");
  out.info.push_back(std::string(name) + ": hosts=" + std::to_string(hosts) + " racks=" +
                     std::to_string(hosts / kHostsPerRack) + " cross_flows=" +
                     std::to_string(in.cross.size()) + " intra_flows=" +
                     std::to_string(static_cast<long long>(hosts) * intra_per_host) +
                     " episodes=" + std::to_string(serial.size()) + "+" +
                     std::to_string(pooled.size()) + " (serial+pooled) ticks_per_episode=" +
                     std::to_string(in.ticks));

  if (!args.trace) {
    // Reporting is single-threaded and the same work in both kinds of
    // episode, so both contribute report_s samples; set-up differs (the
    // pooled one starts worker threads), so only the serial one counts.
    // report_s is a mean, not a median: a report spans about a second, and
    // on a host whose speed switches between two levels for seconds at a
    // time the per-episode figures form two clusters that a median jumps
    // between from run to run.
    std::vector<double> setup_s;
    std::vector<double> report_s;
    for (const Episode& ep : serial) {
      setup_s.push_back(ep.setup_s);
      report_s.push_back(ep.digest_s + ep.render_s);
    }
    for (const Episode& ep : pooled) {
      report_s.push_back(ep.digest_s + ep.render_s);
    }
    const double p95 = Quantile(tick_ms, 0.95);
    out.info.push_back(Fmt("tick_ms_p50 = %.4f ms", Median(tick_ms)));
    out.info.push_back(Fmt("tick_ms_p90 = %.4f ms", Quantile(tick_ms, 0.90)));
    out.info.push_back(Fmt("tick_ms_p95 = %.4f ms", p95) + " (n=" +
                       std::to_string(tick_ms.size()) + ")");
    out.info.push_back(Fmt("ns_per_host_tick = %.1f ns", serial_loop_s * 1e9 / (n_ticks * hosts)));
    out.info.push_back(Fmt("report_s = %.4f s", Mean(report_s)));
    out.info.push_back(Fmt("setup_s = %.4f s", Median(setup_s)));
    out.info.push_back(Fmt("peak_rss_mb = %.1f MB", rss_mb));
    out.info.push_back(Fmt("pooled.tick_ms_p50 = %.4f ms", Median(pooled_tick_ms)));
    out.info.push_back(Fmt("pooled.tick_ms_p95 = %.4f ms", Quantile(pooled_tick_ms, 0.95)) +
                       " (n=" + std::to_string(pooled_tick_ms.size()) + ")");
    out.info.push_back(Fmt("pooled.ns_per_host_tick = %.1f ns",
                           pooled_loop_s * 1e9 /
                               (static_cast<double>(pooled_tick_ms.size()) * hosts)));
    out.info.push_back(Fmt("pooled.speedup = %.3f ratio", pool_speedup));
    out.metrics = {
        {"setup_s", Median(setup_s), "s"},
        // The ticks fill the loop, so steps_per_s is ~1000 / step_ms_mean
        // here: one measurement, not two.
        {"step_ms_mean", Mean(tick_ms), "ms"},
        {"step_ms_p90", Quantile(tick_ms, 0.90), "ms"},
        {"steps_per_s", n_ticks / serial_loop_s, "1/s"},
        {"report_s", Mean(report_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return out;
  }

  const double solves = trace.Counter("fabric.solves");
  const double mutations = trace.Counter("fabric.mutations");
  const double traced_ticks = trace.Counter("ticks");
  out.metrics = {
      {"fabric.solve_us", Median(trace.Durations("fabric.solve", 1e-3)), "us"},
      {"fabric.solves", solves / traced_ticks, "count"},
      {"fabric.mutations", mutations / traced_ticks, "count"},
      {"fabric.coalesce_ratio", solves > 0.0 ? mutations / solves : 0.0, "ratio"},
      {"fabric.snapshot_us", Median(trace.Durations("fabric.snapshot", 1e-3)), "us"},
      {"fabric.snapshot_ns_per_link",
       Sum(trace.Durations("fabric.snapshot", 1.0)) / trace.Counter("fabric.snapshot_links"),
       "ns"},
      {"fleet.tick_us", Median(trace.Durations("fleet.tick", 1e-3)), "us"},
      {"fleet.inter_snapshot_us", Median(trace.Durations("fleet.inter_snapshot", 1e-3)), "us"},
      {"fleet.rootcause_ms", Median(trace.Durations("fleet.rootcause", 1e-6)), "ms"},
      {"fleet.digest_ms", Median(trace.Durations("fleet.digest", 1e-6)), "ms"},
      {"fleet.render_ms", Median(trace.Durations("fleet.render", 1e-6)), "ms"},
      {"fleet.pool_speedup", pool_speedup, "ratio"},
      {"sim.events_per_tick", trace.Counter("sim.events") / traced_ticks, "count"},
      // Traced and untraced serial episodes come in pairs of equal length.
      {"trace_overhead_ratio", loop_of(traced) / serial_loop_s, "ratio"},
  };
  return out;
}

}  // namespace perfbench
