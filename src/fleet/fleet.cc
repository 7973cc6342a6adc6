#include "src/fleet/fleet.h"

#include <algorithm>

#include "src/core/check.h"

namespace mihn::fleet {

HostNetwork::Options DefaultHostOptions() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

Fleet::Fleet(int num_hosts) : Fleet(num_hosts, Options{}) {}

Fleet::Fleet(int num_hosts, Options options)
    : options_(std::move(options)),
      sim_(options_.seed),
      inter_([&] {
        InterHostNetwork::Config config = options_.inter;
        config.hosts = num_hosts;
        return config;
      }()) {
  MIHN_CHECK(num_hosts >= 1);
  // One observer slot per Simulation: a traced host template would install
  // num_hosts observers onto one clock.
  MIHN_CHECK(!options_.host.trace.enabled);
  hosts_.reserve(static_cast<size_t>(num_hosts));
  for (int i = 0; i < num_hosts; ++i) {
    hosts_.push_back(std::make_unique<HostNetwork>(sim_, options_.host));
  }
  stagings_.resize(hosts_.size());
  lifts_.resize(hosts_.size());
  caps_.resize(hosts_.size());
  capped_mutations_.resize(hosts_.size());
  if (options_.worker_threads > 1) {
    pool_ = std::make_unique<core::WorkerPool>(options_.worker_threads,
                                               options_.clamp_workers_to_hardware);
  }
}

Fleet::~Fleet() = default;

CrossFlowId Fleet::StartCrossHostFlow(const CrossHostFlowSpec& spec) {
  MIHN_CHECK(spec.src_host >= 0 && spec.src_host < host_count());
  MIHN_CHECK(spec.dst_host >= 0 && spec.dst_host < host_count());
  MIHN_CHECK(spec.src_host != spec.dst_host);
  HostNetwork& src = host(spec.src_host);
  HostNetwork& dst = host(spec.dst_host);

  CrossFlow flow;
  flow.spec = spec;
  if (flow.spec.src_device == topology::kInvalidComponent) {
    MIHN_CHECK(!src.server().ssds.empty());
    flow.spec.src_device = src.server().ssds.front();
  }
  if (flow.spec.dst_device == topology::kInvalidComponent) {
    MIHN_CHECK(!dst.server().dimms.empty());
    flow.spec.dst_device = dst.server().dimms.front();
  }
  // Spread flows across each host's NICs deterministically by host pair —
  // not by flow id, which would make the chosen NIC (and hence telemetry)
  // depend on placement order.
  const auto pick_nic = [&flow](const topology::Server& server) {
    MIHN_CHECK(!server.nics.empty());
    const size_t mix = static_cast<size_t>(flow.spec.src_host) * 131u +
                       static_cast<size_t>(flow.spec.dst_host);
    return server.nics[mix % server.nics.size()];
  };

  fabric::FlowSpec src_stage;
  const auto src_path = src.fabric().Route(flow.spec.src_device, pick_nic(src.server()));
  MIHN_CHECK(src_path.has_value());
  src_stage.path = *src_path;
  src_stage.tenant = flow.spec.tenant;
  src_stage.demand = flow.spec.demand;
  src_stage.weight = flow.spec.weight;
  flow.src_flow = src.fabric().StartFlow(src_stage);

  fabric::FlowSpec dst_stage;
  const auto dst_path = dst.fabric().Route(pick_nic(dst.server()), flow.spec.dst_device);
  MIHN_CHECK(dst_path.has_value());
  dst_stage.path = *dst_path;
  dst_stage.tenant = flow.spec.tenant;
  dst_stage.demand = flow.spec.demand;
  dst_stage.weight = flow.spec.weight;
  flow.dst_flow = dst.fabric().StartFlow(dst_stage);

  flow.inter_slot = inter_.AddFlow(flow.spec.src_host, flow.spec.dst_host, flow.spec.demand,
                                   flow.spec.weight);

  const CrossFlowId id = next_cross_id_++;
  cross_flows_.emplace(id, std::move(flow));
  return id;
}

void Fleet::StopCrossHostFlow(CrossFlowId id) {
  const auto it = cross_flows_.find(id);
  if (it == cross_flows_.end()) {
    return;
  }
  host(it->second.spec.src_host).fabric().StopFlow(it->second.src_flow);
  host(it->second.spec.dst_host).fabric().StopFlow(it->second.dst_flow);
  inter_.RemoveFlow(it->second.inter_slot);
  cross_flows_.erase(it);
}

sim::Bandwidth Fleet::CrossHostRate(CrossFlowId id) const {
  const auto it = cross_flows_.find(id);
  if (it == cross_flows_.end()) {
    return sim::Bandwidth::Zero();
  }
  return sim::Bandwidth::BytesPerSec(it->second.coupled_rate_bps);
}

bool Fleet::IsStale(int host) const {
  const fabric::Fabric& fabric = hosts_[static_cast<size_t>(host)]->fabric();
  return fabric.mutation_count() != capped_mutations_[static_cast<size_t>(host)] ||
         !fabric.resolve_is_noop();
}

void Fleet::CoupleCrossHostFlows() {
  if (cross_flows_.empty()) {
    return;
  }
  // Lift the caps on stale hosts only, so each of their stages re-competes
  // at its full demand; batched per host so every host pays one recompute.
  // A clean host keeps the lifted rates cached at its last lift: every
  // input to its solve but the fleet's own caps has stayed put since, and
  // its fabric re-solves to the state it holds (resolve_is_noop). The lift
  // moves mutation_count(), so a stale host stays stale for the whole pass.
  for (LimitBatch& batch : lifts_) {
    batch.clear();
  }
  for (const auto& [id, flow] : cross_flows_) {
    if (IsStale(flow.spec.src_host)) {
      lifts_[static_cast<size_t>(flow.spec.src_host)].emplace_back(flow.src_flow,
                                                                   flow.spec.demand);
    }
    if (IsStale(flow.spec.dst_host)) {
      lifts_[static_cast<size_t>(flow.spec.dst_host)].emplace_back(flow.dst_flow,
                                                                   flow.spec.demand);
    }
  }
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (!lifts_[h].empty()) {
      hosts_[h]->fabric().SetFlowLimitsBatch(lifts_[h]);
    }
  }
  // Settle the lifted fabrics across the pool before reading rates — a
  // FlowRate() read on a dirty fabric would otherwise solve serially on
  // this thread, one host at a time. With nothing lifted (and nothing left
  // dirty by the event window) this opens no pool round.
  SettleHosts();
  // Each stage's achievable intra-host rate bounds the inter-host demand;
  // the shared inter-host solve then yields the end-to-end rate.
  for (auto& [id, flow] : cross_flows_) {
    if (IsStale(flow.spec.src_host)) {
      flow.src_lifted_bps =
          host(flow.spec.src_host).fabric().FlowRate(flow.src_flow).bytes_per_sec();
    }
    if (IsStale(flow.spec.dst_host)) {
      flow.dst_lifted_bps =
          host(flow.spec.dst_host).fabric().FlowRate(flow.dst_flow).bytes_per_sec();
    }
    const double bound =
        std::min({flow.spec.demand.bytes_per_sec(), flow.src_lifted_bps, flow.dst_lifted_bps});
    inter_.SetFlowDemand(flow.inter_slot, sim::Bandwidth::BytesPerSec(bound));
  }
  inter_.Solve();
  // Cap both intra-host stages at the end-to-end rate: every stage on a
  // stale host (its lift must be undone), and elsewhere only the stages
  // whose coupled rate moved. Re-capping an unmoved stage on a clean host
  // would re-solve to the state it already holds.
  for (LimitBatch& batch : caps_) {
    batch.clear();
  }
  for (auto& [id, flow] : cross_flows_) {
    const double rate = inter_.FlowRate(flow.inter_slot).bytes_per_sec();
    const bool moved = rate != flow.coupled_rate_bps;
    flow.coupled_rate_bps = rate;
    const sim::Bandwidth cap = sim::Bandwidth::BytesPerSec(rate);
    if (moved || IsStale(flow.spec.src_host)) {
      caps_[static_cast<size_t>(flow.spec.src_host)].emplace_back(flow.src_flow, cap);
    }
    if (moved || IsStale(flow.spec.dst_host)) {
      caps_[static_cast<size_t>(flow.spec.dst_host)].emplace_back(flow.dst_flow, cap);
    }
  }
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (!caps_[h].empty()) {
      fabric::Fabric& fabric = hosts_[h]->fabric();
      fabric.SetFlowLimitsBatch(caps_[h]);
      capped_mutations_[h] = fabric.mutation_count();
    }
  }
}

void Fleet::ForEachHost(const std::function<void(size_t, size_t)>& body) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(hosts_.size(), body);
  } else {
    body(0, hosts_.size());
  }
}

void Fleet::SettleHosts() {
  // A pass with nothing to solve opens no pool round: it would only wake
  // and park the workers.
  if (std::none_of(hosts_.begin(), hosts_.end(), [](const std::unique_ptr<HostNetwork>& h) {
        return h->fabric().dirty();
      })) {
    return;
  }
  // Fan the solves out: each fabric settles into its own staging buffer, so
  // no worker ever touches the shared calendar queue. The solve reads the
  // clock but never advances it.
  ForEachHost([this](size_t begin, size_t end) {
    for (size_t h = begin; h < end; ++h) {
      hosts_[h]->fabric().SettleStaged(stagings_[h]);
    }
  });
  ApplyStagings();
}

void Fleet::ApplyStagings() {
  // Replay the buffered queue operations serially in strict host order:
  // cancel-then-schedule per host is the exact interleaving the serial
  // direct path produces, so event sequence numbers — and event-pool slot
  // reuse — are byte-identical to a serial run.
  for (sim::StagedEvents& staging : stagings_) {
    staging.ApplyTo(sim_);
  }
}

HostSample Fleet::ReduceHost(int i) {
  fabric::Fabric& fabric = hosts_[static_cast<size_t>(i)]->fabric();
  HostSample sample;
  sample.host = i;
  double util_sum = 0.0;
  int util_count = 0;
  // Borrowed views: the reduction reads three scalars per link and copies
  // nothing, so it allocates nothing.
  fabric.VisitLinks([&](const fabric::LinkView& link) {
    sample.bytes_total += link.bytes_total();
    sample.rate_total_bps += link.rate_bps();
    if (link.capacity_bps() <= 0.0) {
      return;
    }
    const double utilization = link.utilization();
    util_sum += utilization;
    ++util_count;
    sample.max_utilization = std::max(sample.max_utilization, utilization);
    if (utilization >= options_.congestion_threshold) {
      ++sample.congested_links;
    }
  });
  sample.mean_utilization = util_count > 0 ? util_sum / util_count : 0.0;
  sample.active_flows = static_cast<int>(fabric.active_flow_count());
  return sample;
}

FleetSample Fleet::SettleAndSample() {
  FleetSample sample;
  sample.at = sim_.Now();
  sample.hosts.resize(hosts_.size());
  // One pass per host: settle into the host's staging buffer, then reduce.
  // The reduction is pure host-local reads + counter accrual against the
  // clock — it never touches the event queue — so it runs before the
  // replay, on the same pool round, with each worker writing a disjoint
  // slice of sample.hosts.
  ForEachHost([this, &sample](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hosts_[i]->fabric().SettleStaged(stagings_[i]);
      sample.hosts[i] = ReduceHost(static_cast<int>(i));
    }
  });
  ApplyStagings();
  // Merge strictly in host order: the fleet totals (and the digest built
  // over them) never depend on which worker finished first.
  for (const HostSample& h : sample.hosts) {
    sample.total_bytes += h.bytes_total;
    sample.total_rate_bps += h.rate_total_bps;
    sample.total_active_flows += h.active_flows;
    sample.max_host_utilization = std::max(sample.max_host_utilization, h.max_utilization);
  }
  double inter_rate = 0.0;
  for (const InterHostLinkUse& use : inter_.SnapshotLinks()) {
    if (use.host >= 0 && use.up) {
      inter_rate += use.rate_bps;  // Count each flow once, at its uplink.
    }
    sample.inter_max_utilization = std::max(sample.inter_max_utilization, use.utilization);
  }
  sample.inter_rate_bps = inter_rate;
  sample.cross_host_flows = static_cast<int>(cross_flows_.size());
  return sample;
}

const FleetSample& Fleet::Tick() {
  // Settle mutations made since the last tick (placements, demand changes)
  // in parallel *before* entering the event loop — otherwise the engine's
  // pre-advance hook would flush each dirty fabric serially, one at a time,
  // on this thread.
  SettleHosts();
  sim_.RunFor(options_.tick_period);
  CoupleCrossHostFlows();
  samples_.push_back(SettleAndSample());
  return samples_.back();
}

void Fleet::Run(int ticks) {
  for (int i = 0; i < ticks; ++i) {
    Tick();
  }
}

uint64_t Fleet::TelemetryDigest() const {
  for (; digest_folded_ < samples_.size(); ++digest_folded_) {
    digest_.Fold(samples_[digest_folded_]);
  }
  return digest_.value();
}

std::string Fleet::RenderReport() const {
  return RenderFleetReport(host_count(), inter_.racks(), samples_, TelemetryDigest());
}

bool Fleet::WriteReportFile(const std::string& path) const {
  return WriteFleetReportFile(path, host_count(), inter_.racks(), samples_, TelemetryDigest());
}

void Fleet::EnableHeartbeats(anomaly::HeartbeatMesh::Config config) {
  if (!meshes_.empty()) {
    return;
  }
  meshes_.reserve(hosts_.size());
  for (const std::unique_ptr<HostNetwork>& h : hosts_) {
    anomaly::HeartbeatMesh::Config per_host = config;
    per_host.participants.clear();  // MakeHeartbeatMesh fills in Devices().
    meshes_.push_back(h->MakeHeartbeatMesh(std::move(per_host)));
    meshes_.back()->Start();
  }
}

FleetRootCause Fleet::RootCauseView() {
  // Settle first so the parallel analyzers below only read settled state —
  // an analyzer on a dirty fabric would trigger a solve, and a staged-free
  // solve schedules on the shared clock.
  SettleHosts();
  std::vector<std::vector<anomaly::CongestionReport>> per_host(hosts_.size());
  ForEachHost([this, &per_host](size_t begin, size_t end) {
    for (size_t h = begin; h < end; ++h) {
      anomaly::RootCauseAnalyzer analyzer(hosts_[h]->fabric(), options_.congestion_threshold);
      per_host[h] = analyzer.FindCongestedLinks();
    }
  });
  // Merge the root-cause inputs strictly in host order.
  FleetRootCause view;
  std::map<fabric::TenantId, FleetSuspect> suspects;
  for (int i = 0; i < host_count(); ++i) {
    std::vector<anomaly::CongestionReport>& reports = per_host[static_cast<size_t>(i)];
    if (reports.empty()) {
      continue;
    }
    for (const anomaly::CongestionReport& report : reports) {
      for (const anomaly::TenantShare& share : report.tenants) {
        FleetSuspect& suspect = suspects[share.tenant];
        suspect.tenant = share.tenant;
        suspect.share_sum += share.share;
      }
    }
    // Count each host once per implicated tenant.
    std::map<fabric::TenantId, bool> seen;
    for (const anomaly::CongestionReport& report : reports) {
      for (const anomaly::TenantShare& share : report.tenants) {
        if (!seen[share.tenant]) {
          seen[share.tenant] = true;
          ++suspects[share.tenant].hosts_implicated;
        }
      }
    }
    view.hosts.push_back({i, std::move(reports)});
  }
  for (const InterHostLinkUse& use : inter_.SnapshotLinks()) {
    if (use.utilization >= options_.congestion_threshold) {
      view.inter_links.push_back(use);
    }
  }
  for (size_t i = 0; i < meshes_.size(); ++i) {
    const auto alarm_at = meshes_[i]->first_alarm_at();
    if (!alarm_at.has_value()) {
      continue;
    }
    HostAlarm alarm;
    alarm.host = static_cast<int>(i);
    alarm.first_alarm_at = *alarm_at;
    const auto localized = meshes_[i]->LocalizeFaults();
    if (!localized.empty()) {
      alarm.top_suspect = localized.front().link;
      alarm.score = localized.front().score;
    }
    view.alarms.push_back(alarm);
  }
  view.suspects.reserve(suspects.size());
  for (const auto& [tenant, suspect] : suspects) {
    view.suspects.push_back(suspect);
  }
  std::sort(view.suspects.begin(), view.suspects.end(),
            [](const FleetSuspect& a, const FleetSuspect& b) {
              if (a.share_sum != b.share_sum) {
                return a.share_sum > b.share_sum;
              }
              return a.tenant < b.tenant;
            });
  return view;
}

}  // namespace mihn::fleet
