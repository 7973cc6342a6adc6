// Fleet scaling bench: per-tick cost of a Fleet as host count grows.
//
// A fleet tick is (a) settling pending mutations across the worker pool,
// (b) advancing every host's events on the one shared clock, (c) the
// cross-host coupling pass, (d) settling every fabric again (parallel,
// staged, applied in host order), and (e) the per-host telemetry
// reduction. Every per-host stage fans out over the persistent
// core::WorkerPool (Fleet::Options::worker_threads), so the bench measures
// each configuration serial and pooled, and verifies that serial, pooled,
// and an oversubscribed 4-worker run all produce the same telemetry digest
// — the fleet's determinism contract, enforced here exactly as in
// tests/fleet/fleet_test.cc but at bench scale.
//
// Each row also counts fabric solves per tick (summed recompute_count()
// over hosts): on the cross-host-only rows nothing but the coupling can
// solve, and it solves only on hosts that changed, so those rows read 0.
//
// Two grids: host-count scaling (16 -> 4096 hosts, cross-host flows only)
// and a high-flow grid where every host also runs hundreds of intra-host
// flows with per-tick demand churn — the top row is 4096 hosts x 256 flows
// = 1,048,576 aggregate flows solved per tick.
//
// A third table prices the fabric's own bookkeeping on fleet-shaped hosts
// (N fabrics x 128 flows on one clock, each host cold again by the time
// its turn comes), through the public API: counter accrual per flow-hop,
// and one recompute after a one-flow demand change.
//
// Emits machine-readable BENCH_fleet.json in the working directory so the
// scaling trajectory is tracked across PRs.
//
// Exits non-zero if
//  * any digest diverges (serial vs pooled vs oversubscribed),
//  * per-tick cost grows super-linearly across a 4x host-count step
//    (allow 8x per 4x hosts over a 200 us noise floor),
//  * the pooled path is slower than serial at >= 64 hosts (allow 1.1x plus
//    a 200 us floor — the pool must never lose to no pool; it clamps to
//    the machine, so this holds even on one core), or
//  * on machines with >= 6 cores, the pooled tick is not >= 3x faster than
//    serial at >= 1024 hosts (the PR's perf acceptance gate).
//
// Flags: --smoke       (reduced grid + tick count for CI smoke jobs)
//        --label NAME  (tags the fabric host-cost rows; default "current")

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/fleet/fleet.h"

namespace mihn {
namespace {

using fleet::CrossHostFlowSpec;
using fleet::Fleet;

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cross-host traffic proportional to fleet size: one intra-rack and one
// cross-rack flow per 16 hosts, disjoint pairs, two tenants.
int PlaceFlows(Fleet& f) {
  int placed = 0;
  for (int src = 0; src + 5 < f.host_count(); src += 16) {
    CrossHostFlowSpec near;
    near.tenant = 7;
    near.src_host = src;
    near.dst_host = src + 5;
    f.StartCrossHostFlow(near);
    ++placed;
    if (src + 40 < f.host_count()) {
      CrossHostFlowSpec far;
      far.tenant = 9;
      far.src_host = src + 2;
      far.dst_host = src + 40;
      far.demand = sim::Bandwidth::Gbps(80);
      f.StartCrossHostFlow(far);
      ++placed;
    }
  }
  return placed;
}

// Starts |per_host| continuous intra-host flows on every host, spread over
// two storage-ish routes and 16 demand levels, and returns one churnable
// flow id per host.
std::vector<fabric::FlowId> PlaceIntraFlows(Fleet& f, int per_host) {
  std::vector<fabric::FlowId> churn;
  churn.reserve(static_cast<size_t>(f.host_count()));
  for (int h = 0; h < f.host_count(); ++h) {
    fabric::Fabric& fabric = f.host(h).fabric();
    const topology::Server& server = f.host(h).server();
    const auto route_a = *fabric.Route(server.ssds[0], server.dimms[0]);
    const auto route_b = *fabric.Route(server.nics[0], server.dimms[0]);
    fabric::FlowId first = fabric::kInvalidFlow;
    for (int i = 0; i < per_host; ++i) {
      fabric::FlowSpec spec;
      spec.path = (i % 2 == 0) ? route_a : route_b;
      spec.tenant = 11 + i % 3;
      spec.demand = sim::Bandwidth::Gbps(1 + i % 16);
      const fabric::FlowId id = fabric.StartFlow(spec);
      if (first == fabric::kInvalidFlow) {
        first = id;
      }
    }
    churn.push_back(first);
  }
  return churn;
}

struct Result {
  int hosts = 0;
  int racks = 0;
  int cross_flows = 0;
  int intra_per_host = 0;
  long long aggregate_flows = 0;
  int ticks = 0;
  int workers = 0;  // Pooled run's actual pool width after the clamp.
  double serial_ns_per_tick = 0.0;
  double pooled_ns_per_tick = 0.0;
  double solves_per_tick = 0.0;  // Summed recompute_count() delta over hosts.
  uint64_t digest = 0;
  bool identical = false;
};

// One measured configuration, run three times: serial (timed), pooled at
// the machine's width (timed), and pooled at 4 workers with the hardware
// clamp off (digest only — proves real cross-thread settle stays
// byte-identical even when threads outnumber cores).
Result RunConfig(int hosts, int ticks, int intra_per_host) {
  Result r;
  r.hosts = hosts;
  r.ticks = ticks;
  r.intra_per_host = intra_per_host;

  const auto run = [&](Fleet::Options options, double* ns_per_tick) {
    Fleet f(hosts, options);
    r.racks = f.inter_host().racks();
    r.cross_flows = PlaceFlows(f);
    std::vector<fabric::FlowId> churn;
    if (intra_per_host > 0) {
      churn = PlaceIntraFlows(f, intra_per_host);
    }
    r.aggregate_flows =
        r.cross_flows * 2LL + static_cast<long long>(intra_per_host) * hosts;
    if (options.worker_threads > 0 && ns_per_tick != nullptr) {
      r.workers = f.worker_parallelism();  // The timed pooled run's width.
    }
    // Per-tick demand churn dirties every host, so each measured tick pays
    // a real (delta) solve per host, not just the telemetry reduction.
    const auto churn_tick = [&](int tick) {
      for (int h = 0; h < f.host_count(); ++h) {
        if (!churn.empty()) {
          f.host(h).fabric().SetFlowDemand(
              churn[static_cast<size_t>(h)],
              sim::Bandwidth::Gbps(2 + (tick + h) % 7));
        }
      }
      f.Tick();
    };
    const auto solves = [&f] {
      uint64_t n = 0;
      for (int h = 0; h < f.host_count(); ++h) {
        n += f.host(h).fabric().recompute_count();
      }
      return n;
    };
    churn_tick(-2);  // Warm-up: events scheduled, coupling at its fixed
    churn_tick(-1);  // point, pool spun up, solver workspaces primed.
    const uint64_t solves_before = solves();
    const double t0 = NowSec();
    for (int t = 0; t < ticks; ++t) {
      churn_tick(t);
    }
    const double t1 = NowSec();
    if (ns_per_tick != nullptr) {
      *ns_per_tick = (t1 - t0) * 1e9 / ticks;
    }
    if (options.worker_threads == 0) {
      r.solves_per_tick = static_cast<double>(solves() - solves_before) / ticks;
    }
    return f.TelemetryDigest();
  };

  Fleet::Options serial;
  serial.worker_threads = 0;
  Fleet::Options pooled;
  pooled.worker_threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  Fleet::Options oversubscribed;
  oversubscribed.worker_threads = 4;
  oversubscribed.clamp_workers_to_hardware = false;

  const uint64_t serial_digest = run(serial, &r.serial_ns_per_tick);
  const uint64_t pooled_digest = run(pooled, &r.pooled_ns_per_tick);
  const uint64_t oversub_digest = run(oversubscribed, nullptr);
  r.digest = serial_digest;
  r.identical = serial_digest == pooled_digest && serial_digest == oversub_digest;
  return r;
}

// Per-tick cost must scale ~linearly in host count: across each 4x
// host-count step (at equal per-host flow load) allow at most 8x over a
// 200 us floor.
bool CheckScalingSane(const std::vector<Result>& results) {
  bool ok = true;
  for (const Result& big : results) {
    for (const Result& small : results) {
      if (big.hosts != 4 * small.hosts || big.intra_per_host != small.intra_per_host) {
        continue;
      }
      const double allowed = 8.0 * std::max(small.serial_ns_per_tick, 2e5);
      if (big.serial_ns_per_tick > allowed) {
        std::fprintf(stderr,
                     "SCALING VIOLATION: %d hosts -> %.0f ns/tick but %d hosts -> "
                     "%.0f ns/tick (allowed <= %.0f)\n",
                     small.hosts, small.serial_ns_per_tick, big.hosts,
                     big.serial_ns_per_tick, allowed);
        ok = false;
      }
    }
  }
  return ok;
}

// The pool must never lose to no pool. It clamps to the machine (one core
// -> runs inline), so pooled <= 1.1x serial + 200 us noise floor holds on
// any hardware. This is the gate on the PR 8 regression, where per-tick
// thread spawns made the threaded path 2.3x slower at 16 hosts.
bool CheckPooledNotSlower(const std::vector<Result>& results) {
  bool ok = true;
  for (const Result& r : results) {
    if (r.hosts < 64) {
      continue;
    }
    const double allowed = 1.1 * r.serial_ns_per_tick + 2e5;
    if (r.pooled_ns_per_tick > allowed) {
      std::fprintf(stderr,
                   "POOLED REGRESSION: %d hosts serial %.0f ns/tick but pooled %.0f "
                   "ns/tick (allowed <= %.0f)\n",
                   r.hosts, r.serial_ns_per_tick, r.pooled_ns_per_tick, allowed);
      ok = false;
    }
  }
  return ok;
}

// The perf acceptance gate: >= 3x at >= 1024 hosts, on machines with the
// cores to show it (>= 6; below that the serial fraction caps the ceiling
// and the ctest gate in fleet_test.cc applies a scaled threshold).
bool CheckSpeedupGate(const std::vector<Result>& results) {
  if (std::thread::hardware_concurrency() < 6) {
    return true;
  }
  bool ok = true;
  for (const Result& r : results) {
    if (r.hosts < 1024 || r.pooled_ns_per_tick <= 0.0) {
      continue;
    }
    const double speedup = r.serial_ns_per_tick / r.pooled_ns_per_tick;
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "SPEEDUP GATE: %d hosts x %d flows/host: pooled only %.2fx serial "
                   "(need >= 3x on %u cores)\n",
                   r.hosts, r.intra_per_host, speedup,
                   std::thread::hardware_concurrency());
      ok = false;
    }
  }
  return ok;
}

// Fabric host cost at fleet shape: |hosts| fabrics with |flows_per_host|
// continuous flows each (PlaceIntraFlows' pattern, no cross-host flows),
// sharing one clock. Each round advances the clock, then visits every host
// twice: a View() read on a settled fabric, which accrues every flow's
// bytes over each of its hops, and a one-flow SetFlowDemand() followed by
// a FlowRate() read, which runs one recompute (delta solve plus aggregate
// rebuild). A host's state has gone cold by the time its turn comes again,
// as between fleet ticks.
struct HostCost {
  int hosts = 0;
  int flows_per_host = 0;
  long long flow_hops = 0;  // Over all hosts.
  int rounds = 0;
  double accrue_ns_per_flow_hop = 0.0;
  double recompute_ns = 0.0;  // Per host, per one-flow change.
};

HostCost MeasureHostCost(int hosts, int flows_per_host, int rounds) {
  Fleet::Options options;
  options.worker_threads = 0;
  Fleet f(hosts, options);
  const std::vector<fabric::FlowId> churn = PlaceIntraFlows(f, flows_per_host);
  f.Tick();  // First solves: every solver primed and retained.
  HostCost cost;
  cost.hosts = hosts;
  cost.flows_per_host = flows_per_host;
  cost.rounds = rounds;
  std::vector<topology::DirectedLink> probe(static_cast<size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    fabric::Fabric& fabric = f.host(h).fabric();
    for (const fabric::FlowId id : fabric.ActiveFlows()) {
      cost.flow_hops += static_cast<long long>(fabric.GetFlowInfo(id)->path->hops.size());
    }
    probe[static_cast<size_t>(h)] =
        fabric.GetFlowInfo(churn[static_cast<size_t>(h)])->path->hops.front();
  }
  double accrue_s = 0.0;
  double recompute_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    f.simulation().RunFor(sim::TimeNs::Millis(1));
    const double t0 = NowSec();
    for (int h = 0; h < hosts; ++h) {
      f.host(h).fabric().View(probe[static_cast<size_t>(h)]);
    }
    const double t1 = NowSec();
    for (int h = 0; h < hosts; ++h) {
      fabric::Fabric& fabric = f.host(h).fabric();
      const fabric::FlowId id = churn[static_cast<size_t>(h)];
      fabric.SetFlowDemand(id, sim::Bandwidth::Gbps(2 + (r + h) % 7));
      fabric.FlowRate(id);
    }
    const double t2 = NowSec();
    accrue_s += t1 - t0;
    recompute_s += t2 - t1;
  }
  cost.accrue_ns_per_flow_hop =
      accrue_s * 1e9 / (static_cast<double>(cost.flow_hops) * rounds);
  cost.recompute_ns = recompute_s * 1e9 / (static_cast<double>(hosts) * rounds);
  return cost;
}

}  // namespace
}  // namespace mihn

int main(int argc, char** argv) {
  using namespace mihn;

  bool smoke = false;
  std::string label = "current";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--label NAME]\n", argv[0]);
      return 2;
    }
  }

  bench::Banner("fleet_scaling",
                "Per-tick cost of a shared-clock fleet vs host count and flow load; "
                "serial vs pooled (worker_threads) with digests compared across "
                "serial/pooled/oversubscribed runs");
  bench::Table table({{"hosts", 8},
                      {"flows", 10},
                      {"ticks", 8},
                      {"workers", 9},
                      {"serial us/tick", 16},
                      {"pooled us/tick", 16},
                      {"speedup", 9},
                      {"per-host us", 13},
                      {"solves/tick", 13},
                      {"identical", 10}});

  // Host-count scaling grid (cross-host flows only), then the high-flow
  // grid: every host runs intra-host flows with per-tick demand churn; the
  // top row solves >= 10^6 aggregate flows per tick.
  struct Config {
    int hosts;
    int intra_per_host;
  };
  std::vector<Config> grid;
  if (smoke) {
    grid = {{16, 0}, {64, 0}, {64, 32}};
  } else {
    grid = {{16, 0},   {64, 0},    {256, 0},    {1024, 0},  {4096, 0},
            {1024, 128}, {4096, 256}};
  }
  const int ticks = smoke ? 5 : 10;

  std::vector<Result> results;
  for (const Config& config : grid) {
    results.push_back(RunConfig(config.hosts, ticks, config.intra_per_host));
  }

  for (const Result& r : results) {
    const double speedup =
        r.pooled_ns_per_tick > 0.0 ? r.serial_ns_per_tick / r.pooled_ns_per_tick : 0.0;
    table.Row({std::to_string(r.hosts), std::to_string(r.aggregate_flows),
               std::to_string(r.ticks), std::to_string(r.workers),
               bench::Fmt("%.1f", r.serial_ns_per_tick / 1e3),
               bench::Fmt("%.1f", r.pooled_ns_per_tick / 1e3), bench::Fmt("%.2fx", speedup),
               bench::Fmt("%.2f", r.serial_ns_per_tick / 1e3 / r.hosts),
               bench::Fmt("%.1f", r.solves_per_tick), r.identical ? "yes" : "NO"});
  }

  bench::Banner("fabric_host_cost",
                "Fabric bookkeeping on fleet-shaped hosts (128 flows each, one clock, cold "
                "between visits): accrual per flow-hop and one recompute per one-flow change");
  bench::Table cost_table({{"hosts", 8},
                           {"flows/host", 12},
                           {"flow-hops", 11},
                           {"rounds", 8},
                           {"accrue ns/flow-hop", 20},
                           {"recompute us", 14}});
  const HostCost cost = MeasureHostCost(smoke ? 64 : 1024, 128, smoke ? 3 : 10);
  cost_table.Row({std::to_string(cost.hosts), std::to_string(cost.flows_per_host),
                  std::to_string(cost.flow_hops), std::to_string(cost.rounds),
                  bench::Fmt("%.2f", cost.accrue_ns_per_flow_hop),
                  bench::Fmt("%.2f", cost.recompute_ns / 1e3)});

  std::FILE* json = std::fopen("BENCH_fleet.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"fleet_scaling\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n  \"unit\": \"ns_per_tick\",\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n  \"results\": [\n",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      const double speedup =
          r.pooled_ns_per_tick > 0.0 ? r.serial_ns_per_tick / r.pooled_ns_per_tick : 0.0;
      std::fprintf(json,
                   "    {\"hosts\": %d, \"racks\": %d, \"cross_host_flows\": %d, "
                   "\"intra_flows_per_host\": %d, \"aggregate_flows\": %lld, "
                   "\"ticks\": %d, \"workers\": %d, \"serial_ns_per_tick\": %.0f, "
                   "\"pooled_ns_per_tick\": %.0f, \"speedup\": %.2f, "
                   "\"ns_per_tick_per_host\": %.0f, \"solves_per_tick\": %.1f, "
                   "\"digest\": \"%016llx\", \"identical\": %s}%s\n",
                   r.hosts, r.racks, r.cross_flows, r.intra_per_host, r.aggregate_flows,
                   r.ticks, r.workers, r.serial_ns_per_tick, r.pooled_ns_per_tick, speedup,
                   r.serial_ns_per_tick / r.hosts, r.solves_per_tick,
                   static_cast<unsigned long long>(r.digest), r.identical ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"fabric_host_cost\": [\n");
    std::fprintf(json,
                 "    {\"label\": \"%s\", \"hosts\": %d, \"flows_per_host\": %d, "
                 "\"flow_hops\": %lld, \"rounds\": %d, \"accrue_ns_per_flow_hop\": %.2f, "
                 "\"recompute_ns\": %.0f}\n",
                 label.c_str(), cost.hosts, cost.flows_per_host, cost.flow_hops, cost.rounds,
                 cost.accrue_ns_per_flow_hop, cost.recompute_ns);
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_fleet.json\n");
  }

  bool all_identical = true;
  for (const Result& r : results) {
    all_identical = all_identical && r.identical;
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: digest mismatch across serial/pooled/oversubscribed\n");
  }
  bool ok = all_identical && CheckScalingSane(results);
  if (!smoke) {
    // Timing gates only on the full grid: smoke runs are too short to
    // separate signal from scheduler noise.
    ok = CheckPooledNotSlower(results) && ok;
    ok = CheckSpeedupGate(results) && ok;
  }
  return ok ? 0 : 1;
}
