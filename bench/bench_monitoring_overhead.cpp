// E5 — The monitoring storage/processing dilemma (paper §3.1 Q2): sampling
// faster gives fresher data but the collected samples must cross the very
// fabric being monitored. Sweeps the sampling period and reports fidelity
// (samples/s) against self-imposed cost (monitor traffic, share of the
// fabric, impact on a latency-sensitive tenant).
//
// A second table measures the host-side cost of the same monitoring loop:
// wall-clock ns per Collector::SampleOnce() and per DetectorBank::Scan()
// (a campaign-style bank: EWMA on every link-utilization and socket
// cache-hit series), the number of series, the points retained, and the
// heap the metric store holds (glibc mallinfo2 delta across collector +
// bank construction and the sampling loop, taken after the fabric has
// warmed up). Rows: one chaos trial's worth of samples, a long run, and a
// long run whose rings wrap.
//
// Emits machine-readable BENCH_monitoring.json (host-cost rows) in the
// working directory.
//
// Flags: --smoke        (shorter E5 window, fewer samples and repeats)
//        --label NAME   (tags the JSON rows; default "current")

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/anomaly/bank.h"
#include "src/host/host_network.h"
#include "src/workload/kv_client.h"

namespace {

using namespace mihn;

void RunE5(bool smoke) {
  bench::Banner("E5: monitoring fidelity vs self-imposed overhead",
                "fine-grained collector shipping samples to the monitor store across "
                "the fabric; co-located remote KV service as the bystander");

  bench::Table table({{"period", 10},
                      {"samples/s", 11},
                      {"monitor MB/s", 14},
                      {"store-link share", 18},
                      {"kv p99 us", 11},
                      {"points dropped", 16}});

  for (const int64_t period_us : {100'000LL, 10'000LL, 1'000LL, 100LL, 10LL}) {
    HostNetwork::Options options;
    options.autostart = HostNetwork::Autostart::kCollectorOnly;
    options.telemetry.period = sim::TimeNs::Micros(period_us);
    options.telemetry.series_capacity = 1024;
    sim::Simulation sim;
    HostNetwork host(sim, options);  // Collector auto-starts, reporting to the store.
    const auto& server = host.server();

    workload::KvClient::Config kv_config;
    kv_config.client = server.external_hosts[0];
    kv_config.server = server.sockets[0];
    kv_config.tenant = 1;
    workload::KvClient kv(host.fabric(), kv_config);
    kv.Start();

    const sim::TimeNs window = sim::TimeNs::Millis(smoke ? 20 : 200);
    host.RunFor(window);

    const double monitor_mbps =
        static_cast<double>(host.collector().bytes_reported()) / window.ToSecondsF() / 1e6;
    // Share of the socket->monitor-store link consumed by monitor bytes.
    const auto store_path = *host.fabric().Route(server.sockets[0], server.monitor_store);
    const auto snap = host.fabric().Snapshot(store_path.hops[0]);
    const double share =
        snap.bytes_total > 0
            ? snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kMonitor)] /
                  (snap.capacity_bps * window.ToSecondsF())
            : 0.0;

    table.Row({sim::TimeNs::Micros(period_us).ToString(),
               bench::Fmt("%.0f", static_cast<double>(host.collector().samples_taken()) /
                                      window.ToSecondsF()),
               bench::Fmt("%.2f", monitor_mbps), bench::Fmt("%.3f%%", share * 100.0),
               bench::Fmt("%.1f", kv.latency_us().Percentile(0.99)),
               bench::Fmt("%llu",
                          static_cast<unsigned long long>(
                              host.collector().total_dropped_points()))});
  }
  std::printf("\nexpected shape: monitor traffic grows linearly as the period shrinks; at\n"
              "microsecond periods the collection stream becomes a tenant-scale consumer\n"
              "of the fabric it observes, and bounded storage starts dropping history —\n"
              "the Q2 dilemma made concrete.\n");
}

struct StoreCase {
  const char* name;
  size_t capacity;
  int samples;
};

struct StoreCost {
  double sample_ns = 0.0;
  double scan_ns = 0.0;
  size_t series = 0;
  size_t points = 0;
  double store_kb = 0.0;
  size_t anomalies = 0;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One fresh host per repeat: the commodity preset with six tenant flows
// (half DDIO writes), a 1 ms sampling cadence driven by hand so only the
// monitoring calls are timed, and the bank scanned after every sample.
StoreCost MeasureStore(const StoreCase& c) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim(11);
  HostNetwork host(sim, options);
  const topology::Server& server = host.server();
  fabric::Fabric& fabric = host.fabric();
  for (int k = 0; k < 6; ++k) {
    fabric::FlowSpec spec;
    const topology::ComponentId src =
        k % 2 == 0 ? server.nics[static_cast<size_t>(k / 2) % server.nics.size()]
                   : server.ssds[static_cast<size_t>(k / 2) % server.ssds.size()];
    spec.path = *fabric.Route(src, server.dimms[static_cast<size_t>(k) % server.dimms.size()]);
    spec.tenant = static_cast<fabric::TenantId>(1 + k % 4);
    spec.demand = sim::Bandwidth::GBps(2.0 + k);
    spec.ddio_write = k % 2 == 0;
    fabric.StartFlow(spec);
  }
  host.RunFor(sim::TimeNs::Millis(5));  // Fabric workspaces reach their high-water marks.

  const size_t heap_before = mallinfo2().uordblks;
  telemetry::Collector::Config config;
  config.series_capacity = c.capacity;
  telemetry::Collector collector(fabric, config);
  anomaly::DetectorBank bank;
  const topology::Topology& topo = host.topo();
  for (topology::LinkId link = 0; link < static_cast<topology::LinkId>(topo.link_count());
       ++link) {
    for (const bool forward : {true, false}) {
      bank.Attach(telemetry::Collector::LinkUtilKey(link, forward),
                  std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
    }
  }
  for (const topology::ComponentId socket : server.sockets) {
    bank.Attach(telemetry::Collector::CacheHitKey(socket),
                std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
  }

  StoreCost cost;
  int64_t sample_ns = 0;
  int64_t scan_ns = 0;
  for (int i = 0; i < c.samples; ++i) {
    host.RunFor(sim::TimeNs::Millis(1));
    const int64_t t0 = NowNs();
    collector.SampleOnce();
    const int64_t t1 = NowNs();
    cost.anomalies += bank.Scan(collector).size();
    const int64_t t2 = NowNs();
    sample_ns += t1 - t0;
    scan_ns += t2 - t1;
  }
  const size_t heap_after = mallinfo2().uordblks;
  cost.sample_ns = static_cast<double>(sample_ns) / c.samples;
  cost.scan_ns = static_cast<double>(scan_ns) / c.samples;
  cost.series = collector.series_count();
  for (const std::string& key : collector.Keys()) {
    cost.points += collector.Series(key)->size();
  }
  cost.store_kb =
      heap_after > heap_before ? static_cast<double>(heap_after - heap_before) / 1024.0 : 0.0;
  return cost;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
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

  RunE5(smoke);

  bench::Banner("E5 host cost: the monitoring loop's metric store",
                "wall-clock ns per Collector::SampleOnce() and per DetectorBank::Scan() "
                "(EWMA on every link-util and socket cache-hit series), 1 ms cadence; "
                "median of repeats");
  const std::vector<StoreCase> cases = {
      {"trial", 4096, 120},
      {"long", 4096, smoke ? 300 : 2000},
      {"wrapped", 256, smoke ? 300 : 2000},
  };
  const int repeats = smoke ? 1 : 5;
  bench::Table table({{"case", 9},
                      {"capacity", 10},
                      {"samples", 9},
                      {"series", 8},
                      {"ns/sample", 11},
                      {"ns/scan", 10},
                      {"points", 9},
                      {"store KB", 10}});
  std::vector<std::pair<StoreCase, StoreCost>> rows;
  for (const StoreCase& c : cases) {
    std::vector<double> sample_ns;
    std::vector<double> scan_ns;
    StoreCost last;
    for (int r = 0; r < repeats; ++r) {
      last = MeasureStore(c);
      sample_ns.push_back(last.sample_ns);
      scan_ns.push_back(last.scan_ns);
    }
    last.sample_ns = Median(sample_ns);
    last.scan_ns = Median(scan_ns);
    table.Row({c.name, bench::Fmt("%zu", c.capacity), bench::Fmt("%d", c.samples),
               bench::Fmt("%zu", last.series), bench::Fmt("%.0f", last.sample_ns),
               bench::Fmt("%.0f", last.scan_ns), bench::Fmt("%zu", last.points),
               bench::Fmt("%.0f", last.store_kb)});
    rows.emplace_back(c, last);
  }

  std::FILE* json = std::fopen("BENCH_monitoring.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_monitoring.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"monitoring_store\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n  \"unit\": \"ns_per_call\",\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n  \"results\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& [c, cost] = rows[i];
    std::fprintf(json,
                 "    {\"label\": \"%s\", \"case\": \"%s\", \"series_capacity\": %zu, "
                 "\"samples\": %d, \"repeats\": %d, \"series\": %zu, "
                 "\"collector_ns_per_sample\": %.0f, \"bank_ns_per_scan\": %.0f, "
                 "\"retained_points\": %zu, \"store_heap_kb\": %.0f, \"anomalies\": %zu}%s\n",
                 label.c_str(), c.name, c.capacity, c.samples, repeats, cost.series,
                 cost.sample_ns, cost.scan_ns, cost.points, cost.store_kb, cost.anomalies,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_monitoring.json\n");
  return 0;
}
