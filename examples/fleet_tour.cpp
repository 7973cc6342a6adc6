// Fleet tour: many hosts on one shared clock (the operator's view the
// paper's manageability argument scales up to).
//
// Builds a 64-host fleet, places intra-rack and cross-rack tenant flows,
// saturates one host from the inside, and walks through what the fleet
// layer gives you over 64 independent HostNetworks:
//
//   * lock-step ticks on one sim::Simulation (clock injection),
//   * cross-host flows coupled through the rack/ToR max-min model,
//   * fleet-wide telemetry rollups and the determinism digest,
//   * the fleet-level root-cause view naming the culprit tenant.
//
//   $ ./fleet_tour

#include <cstdio>

#include "src/fleet/fleet.h"

int main() {
  using namespace mihn;

  fleet::Fleet::Options options;
  options.worker_threads = 4;
  fleet::Fleet fleet(64, options);
  std::printf("fleet: %d hosts in %d racks, one shared clock\n", fleet.host_count(),
              fleet.inter_host().racks());

  // Tenant 7: storage reads within rack 0. Tenant 9: a cross-rack stream
  // that has to win rack uplink capacity too.
  fleet::CrossHostFlowSpec near;
  near.tenant = 7;
  near.src_host = 0;
  near.dst_host = 5;
  const fleet::CrossFlowId near_id = fleet.StartCrossHostFlow(near);

  fleet::CrossHostFlowSpec far;
  far.tenant = 9;
  far.src_host = 2;
  far.dst_host = 40;
  far.demand = sim::Bandwidth::Gbps(80);
  const fleet::CrossFlowId far_id = fleet.StartCrossHostFlow(far);

  // Tenant 12 saturates host 33 from the inside: a GPU ingest that fills
  // an intra-host link. No cross-host traffic, so only the fleet's
  // per-host telemetry can see it.
  HostNetwork& noisy = fleet.host(33);
  fabric::FlowSpec hog;
  hog.path = *noisy.fabric().Route(noisy.server().gpus[0], noisy.server().dimms[0]);
  hog.tenant = 12;
  noisy.fabric().StartFlow(hog);

  fleet.Run(5);

  std::printf("\nafter %zu ticks (t = %s):\n", fleet.samples().size(),
              fleet.Now().ToString().c_str());
  std::printf("  tenant 7  intra-rack  %5.1f Gbps end-to-end\n",
              fleet.CrossHostRate(near_id).ToGbps());
  std::printf("  tenant 9  cross-rack  %5.1f Gbps end-to-end\n",
              fleet.CrossHostRate(far_id).ToGbps());

  const fleet::FleetSample& sample = fleet.samples().back();
  std::printf("\nfleet telemetry (tick %zu):\n", fleet.samples().size());
  std::printf("  total rate        %.1f GB/s across %d active flows\n",
              sample.total_rate_bps / 1e9, sample.total_active_flows);
  std::printf("  max host util     %.0f%%\n", sample.max_host_utilization * 100.0);
  std::printf("  inter-host rate   %.1f GB/s over %d cross-host flows\n",
              sample.inter_rate_bps / 1e9, sample.cross_host_flows);
  std::printf("  digest            %016llx  (byte-identical on every rerun)\n",
              static_cast<unsigned long long>(fleet.TelemetryDigest()));

  const fleet::FleetRootCause view = fleet.RootCauseView();
  std::printf("\nroot cause across the fleet:\n");
  for (const fleet::HostCongestion& host : view.hosts) {
    std::printf("  host %-3d %zu congested link(s), worst at %.0f%%\n", host.host,
                host.reports.size(), host.reports.front().utilization * 100.0);
  }
  for (const fleet::FleetSuspect& suspect : view.suspects) {
    std::printf("  suspect tenant %-3lld share %.2f on %d host(s)\n",
                static_cast<long long>(suspect.tenant), suspect.share_sum,
                suspect.hosts_implicated);
  }
  return 0;
}
