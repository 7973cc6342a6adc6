#include "src/fabric/fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "src/core/check.h"

namespace mihn::fabric {
namespace {

// A transfer is considered drained when less than half a byte remains
// (floating-point fluid accrual never lands exactly on zero).
constexpr double kDoneBytes = 0.5;
// Spill flows below 1 byte/s of demand are treated as absent.
constexpr double kSpillEpsBps = 1.0;

LinkSnapshot Export(const LinkView& view) {
  LinkSnapshot snap;
  snap.link = view.dlink().link;
  snap.forward = view.dlink().forward;
  snap.capacity_bps = view.capacity_bps();
  snap.rate_bps = view.rate_bps();
  snap.utilization = view.utilization();
  snap.bytes_total = view.bytes_total();
  snap.packets = view.packets();
  // The maps sort by TenantId; first-seen order never leaks into an export.
  for (const TenantCounter& tc : view.tenants()) {
    if (tc.rate_present) {
      snap.rate_by_tenant_bps.emplace(tc.tenant, tc.rate_bps);
    }
    if (tc.bytes_present) {
      snap.bytes_by_tenant.emplace(tc.tenant, tc.bytes);
    }
  }
  snap.rate_by_class_bps = view.rate_by_class_bps();
  snap.bytes_by_class = view.bytes_by_class();
  return snap;
}

}  // namespace

Fabric::Fabric(sim::Simulation& sim, const topology::Topology& topo, FabricConfig config)
    : sim_(sim), topo_(topo), router_(topo), config_(config), last_accrual_(sim.Now()) {
  links_.resize(topo.link_count() * 2);
  for (const topology::Link& link : topo.links()) {
    for (const bool forward : {true, false}) {
      DirectedLinkState& state =
          links_[static_cast<size_t>(DirectedIndex(topology::DirectedLink{link.id, forward}))];
      state.raw_capacity = link.spec.capacity.bytes_per_sec();
    }
  }
  for (const topology::Component& c : topo.components()) {
    if (c.kind == topology::ComponentKind::kDimm && c.socket != topology::kInvalidComponent) {
      socket_dimms_[c.socket].push_back(c.id);
    }
  }
  RefreshCapacities();
  // Coalescing flush point: settle all same-timestamp mutations in one solve
  // before the simulation clock moves on (see fabric.h).
  pre_advance_hook_ = sim_.AddPreAdvanceHook([this] { FlushIfDirty(); });
}

Fabric::~Fabric() {
  pre_advance_hook_.Cancel();
  completion_event_.Cancel();
}

std::optional<topology::Path> Fabric::Route(topology::ComponentId src,
                                            topology::ComponentId dst) const {
  // The router carries the fabric's fault table as health sets (see
  // SyncRouterHealth), so the memoized answer already avoids dead links and
  // prefers non-degraded paths.
  return router_.ShortestPath(src, dst);
}

FlowId Fabric::StartFlow(FlowSpec spec) {
  if (spec.path.empty()) {
    return kInvalidFlow;
  }
  auto detail = std::make_unique<FlowDetail>();
  detail->demand = std::min(spec.demand.bytes_per_sec(), kUnlimitedDemand);
  detail->start_time = sim_.Now();
  detail->spec = std::move(spec);
  const FlowId id = flows_[AppendFlow(std::move(detail))].id;
  MarkFlowDirty(id);
  return id;
}

FlowId Fabric::StartTransfer(TransferSpec spec) {
  if (spec.bytes <= 0) {
    if (spec.on_complete) {
      TransferResult result{0, sim_.Now(), sim_.Now(), 0};
      sim_.ScheduleAfter(sim::TimeNs::Zero(),
                         [cb = std::move(spec.on_complete), result] { cb(result); });
    }
    return kInvalidFlow;
  }
  const FlowId id = StartFlow(std::move(spec.flow));
  if (id == kInvalidFlow) {
    return kInvalidFlow;
  }
  FlowState& state = flows_.back();  // StartFlow just appended it.
  state.bytes_remaining = static_cast<double>(spec.bytes);
  state.detail->on_complete = std::move(spec.on_complete);
  // The completion event is scheduled by the deferred Recompute() (which
  // already pends from StartFlow) once the transfer's rate is known.
  return id;
}

void Fabric::StopFlow(FlowId id) {
  FlowState* f = FindFlow(id);
  if (f == nullptr) {
    return;
  }
  AccrueCounters();  // Moves bytes only; the row stays where it is.
  ReleaseFlow(*f);
  CompactFlows();
  MarkDirty();
}

void Fabric::SetFlowLimit(FlowId id, sim::Bandwidth limit) {
  FlowState* f = FindFlow(id);
  if (f == nullptr) {
    return;
  }
  f->detail->limit =
      limit.bytes_per_sec() < 0 ? 0.0 : std::min(limit.bytes_per_sec(), kUnlimitedDemand);
  MarkFlowDirty(id);
}

void Fabric::SetFlowLimitsBatch(const std::vector<std::pair<FlowId, sim::Bandwidth>>& limits) {
  uint64_t applied = 0;
  for (const auto& [id, limit] : limits) {
    FlowState* f = FindFlow(id);
    if (f == nullptr) {
      continue;
    }
    f->detail->limit =
        limit.bytes_per_sec() < 0 ? 0.0 : std::min(limit.bytes_per_sec(), kUnlimitedDemand);
    dirty_flows_.push_back(id);
    ++applied;
  }
  if (applied > 0) {
    MarkDirty(applied);
  }
}

void Fabric::SetFlowWeight(FlowId id, double weight) {
  FlowState* f = FindFlow(id);
  if (f == nullptr) {
    return;
  }
  f->detail->spec.weight = std::max(weight, 1e-9);
  MarkFlowDirty(id);
}

void Fabric::SetFlowDemand(FlowId id, sim::Bandwidth demand) {
  FlowState* f = FindFlow(id);
  if (f == nullptr) {
    return;
  }
  f->detail->demand = std::clamp(demand.bytes_per_sec(), 0.0, kUnlimitedDemand);
  f->detail->spec.demand = demand;
  MarkFlowDirty(id);
}

std::optional<FlowInfo> Fabric::GetFlowInfo(FlowId id) {
  FlushIfDirty();
  AccrueCounters();
  const FlowState* f = FindFlow(id);
  if (f == nullptr) {
    return std::nullopt;
  }
  const FlowDetail& d = *f->detail;
  FlowInfo info;
  info.id = f->id;
  info.tenant = d.spec.tenant;
  info.klass = f->klass;
  info.rate = sim::Bandwidth::BytesPerSec(f->rate);
  info.demand = sim::Bandwidth::BytesPerSec(d.demand);
  info.limit = sim::Bandwidth::BytesPerSec(d.limit);
  info.weight = d.spec.weight;
  info.bytes_moved = static_cast<int64_t>(f->bytes_moved);
  info.bytes_remaining =
      f->bytes_remaining < 0 ? -1 : static_cast<int64_t>(std::ceil(f->bytes_remaining));
  info.start_time = d.start_time;
  info.path = &d.spec.path;
  return info;
}

sim::Bandwidth Fabric::FlowRate(FlowId id) const {
  FlushIfDirty();
  const FlowState* f = FindFlow(id);
  return f == nullptr ? sim::Bandwidth::Zero() : sim::Bandwidth::BytesPerSec(f->rate);
}

std::vector<FlowId> Fabric::ActiveFlows() const {
  FlushIfDirty();  // Spill companions materialize at the solve.
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (const FlowState& f : flows_) {
    ids.push_back(f.id);
  }
  return ids;
}

size_t Fabric::active_flow_count() const {
  FlushIfDirty();  // As ActiveFlows().
  return flows_.size();
}

sim::TimeNs Fabric::SendPacket(PacketSpec spec) {
  MIHN_CHECK(spec.path != nullptr);
  FlushIfDirty();
  sim::TimeNs latency = ProbePathLatency(*spec.path);
  for (const topology::DirectedLink& hop : spec.path->hops) {
    const int32_t li = DirectedIndex(hop);
    DirectedLinkState& state = links_[static_cast<size_t>(li)];
    // Store-and-forward serialization on each hop.
    if (state.effective_capacity > 0) {
      latency += sim::TimeNs::FromSecondsF(static_cast<double>(spec.bytes) /
                                           state.effective_capacity);
    }
    state.bytes_total += static_cast<double>(spec.bytes);
    state.packets += 1;
    TenantCounter& tc = state.tenants[static_cast<size_t>(TenantSlot(li, spec.tenant))];
    tc.bytes += static_cast<double>(spec.bytes);
    tc.bytes_present = true;
    state.bytes_by_class[static_cast<size_t>(spec.klass)] += static_cast<double>(spec.bytes);
  }
  latency += config_.interrupt_moderation;
  if (spec.on_delivered) {
    sim_.ScheduleAfter(latency, [cb = std::move(spec.on_delivered), latency] { cb(latency); });
  }
  return latency;
}

sim::TimeNs Fabric::ProbePathLatency(const topology::Path& path) const {
  FlushIfDirty();
  sim::TimeNs total = sim::TimeNs::Zero();
  for (const topology::DirectedLink& hop : path.hops) {
    total += HopLatency(hop);
  }
  return total;
}

sim::TimeNs Fabric::HopLatency(topology::DirectedLink hop) const {
  FlushIfDirty();
  const DirectedLinkState& state = links_[static_cast<size_t>(DirectedIndex(hop))];
  const double rho =
      state.effective_capacity > 0 ? state.rate / state.effective_capacity : 1.0;
  return Scale(HopBaseLatency(hop), config_.LatencyInflation(rho));
}

void Fabric::InjectLinkFault(topology::LinkId link, LinkFault fault) {
  faults_[link] = fault;
  SyncRouterHealth();
  MarkDirty();
}

void Fabric::ClearLinkFault(topology::LinkId link) {
  if (faults_.erase(link) > 0) {
    SyncRouterHealth();
    MarkDirty();
  }
}

void Fabric::SyncRouterHealth() {
  std::vector<topology::LinkId> dead;
  std::vector<topology::LinkId> degraded;
  for (const auto& [link, fault] : faults_) {
    if (fault.capacity_factor <= 0.0) {
      dead.push_back(link);
    } else if (fault.capacity_factor < 1.0 ||
               fault.extra_latency > sim::TimeNs::Zero()) {
      degraded.push_back(link);
    }
  }
  if (router_.SetLinkHealth(std::move(dead), std::move(degraded))) {
    ++route_epoch_;
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.route_epoch", route_epoch_);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.active_faults", faults_.size());
  }
}

std::optional<LinkFault> Fabric::GetLinkFault(topology::LinkId link) const {
  const auto it = faults_.find(link);
  if (it == faults_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void Fabric::SetConfig(FabricConfig config) {
  config_ = config;
  MarkDirty();
}

void Fabric::PrepareRead() {
  FlushIfDirty();
  AccrueCounters();
}

LinkView Fabric::View(topology::DirectedLink dlink) {
  PrepareRead();
  return LinkView(dlink, links_[static_cast<size_t>(DirectedIndex(dlink))]);
}

LinkSnapshot Fabric::Snapshot(topology::DirectedLink dlink) { return Export(View(dlink)); }

std::vector<LinkSnapshot> Fabric::SnapshotAll() {
  std::vector<LinkSnapshot> all;
  all.reserve(links_.size());
  VisitLinks([&all](const LinkView& view) { all.push_back(Export(view)); });
  return all;
}

sim::Bandwidth Fabric::EffectiveCapacity(topology::DirectedLink dlink) const {
  FlushIfDirty();  // Config / fault changes apply at the solve.
  return sim::Bandwidth::BytesPerSec(
      links_[static_cast<size_t>(DirectedIndex(dlink))].effective_capacity);
}

double Fabric::Utilization(topology::DirectedLink dlink) const {
  FlushIfDirty();
  const DirectedLinkState& state = links_[static_cast<size_t>(DirectedIndex(dlink))];
  return state.effective_capacity > 0 ? state.rate / state.effective_capacity : 0.0;
}

SocketCacheStats Fabric::CacheStats(topology::ComponentId socket) const {
  FlushIfDirty();
  if (const SocketCacheStats* stats = FindCacheStats(socket)) {
    return *stats;
  }
  SocketCacheStats stats;
  stats.ddio_capacity_bytes = config_.DdioCapacityBytes();
  return stats;
}

// -- Internals ----------------------------------------------------------------

bool Fabric::IsPcieKind(topology::LinkKind kind) const {
  switch (kind) {
    case topology::LinkKind::kPcieSwitchUp:
    case topology::LinkKind::kPcieSwitchDown:
    case topology::LinkKind::kPcieRootLink:
      return true;
    default:
      return false;
  }
}

sim::TimeNs Fabric::HopBaseLatency(topology::DirectedLink hop) const {
  const topology::Link& link = topo_.link(hop.link);
  sim::TimeNs base = link.spec.base_latency;
  const auto fault = faults_.find(hop.link);
  if (fault != faults_.end()) {
    base += fault->second.extra_latency;
  }
  if (config_.iommu_enabled && IsPcieKind(link.spec.kind)) {
    base += config_.iommu_latency;
  }
  return base;
}

void Fabric::RefreshCapacities() {
  const double pcie_factor = config_.PcieCapacityFactor();
  for (const topology::Link& link : topo_.links()) {
    double factor = IsPcieKind(link.spec.kind) ? pcie_factor : 1.0;
    const auto fault = faults_.find(link.id);
    if (fault != faults_.end()) {
      factor *= std::clamp(fault->second.capacity_factor, 0.0, 1.0);
    }
    for (const bool forward : {true, false}) {
      DirectedLinkState& state =
          links_[static_cast<size_t>(DirectedIndex(topology::DirectedLink{link.id, forward}))];
      state.effective_capacity = state.raw_capacity * factor;
    }
  }
}

void Fabric::AccrueCounters() {
  const sim::TimeNs now = sim_.Now();
  const double dt = (now - last_accrual_).ToSecondsF();
  last_accrual_ = now;
  if (dt <= 0.0) {
    return;
  }
  for (FlowState& f : flows_) {
    double bytes = f.rate * dt;
    if (f.bytes_remaining >= 0.0) {
      // Finite transfers never move more than they have left (the
      // completion event carries +1ns of slack).
      bytes = std::min(bytes, f.bytes_remaining);
      f.bytes_remaining -= bytes;
    }
    if (bytes <= 0.0) {
      continue;
    }
    f.bytes_moved += bytes;
    const size_t klass = static_cast<size_t>(f.klass);
    for (uint32_t h = f.hop_begin; h < f.hop_begin + f.hop_count; ++h) {
      DirectedLinkState& state = links_[static_cast<size_t>(hop_links_[h])];
      state.bytes_total += bytes;
      TenantCounter& tc = state.tenants[static_cast<size_t>(hop_slots_[h])];
      tc.bytes += bytes;
      tc.bytes_present = true;
      state.bytes_by_class[klass] += bytes;
    }
  }
}

int32_t Fabric::TenantSlot(int32_t link_index, TenantId tenant) {
  std::vector<TenantCounter>& tenants = links_[static_cast<size_t>(link_index)].tenants;
  // Links carry a handful of tenants: a scan beats any index, and it runs
  // only when a flow is created or a packet is sent.
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].tenant == tenant) {
      return static_cast<int32_t>(i);
    }
  }
  tenants.push_back(TenantCounter{.tenant = tenant});
  return static_cast<int32_t>(tenants.size() - 1);
}

Fabric::FlowState* Fabric::FindFlow(FlowId id) {
  return const_cast<FlowState*>(std::as_const(*this).FindFlow(id));
}

const Fabric::FlowState* Fabric::FindFlow(FlowId id) const {
  const auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                                   [](const FlowState& f, FlowId v) { return f.id < v; });
  return it != flows_.end() && it->id == id ? &*it : nullptr;
}

size_t Fabric::AppendFlow(std::unique_ptr<FlowDetail> detail) {
  const size_t row = flows_.size();
  FlowState& f = flows_.emplace_back();
  f.id = next_flow_id_++;
  f.klass = detail->spec.klass;
  f.ddio_write = detail->spec.ddio_write;
  if (f.ddio_write) {
    ++ddio_flow_count_;
  }
  const auto begin = static_cast<std::ptrdiff_t>(hop_links_.size());
  for (const topology::DirectedLink& hop : detail->spec.path.hops) {
    hop_links_.push_back(DirectedIndex(hop));
  }
  std::sort(hop_links_.begin() + begin, hop_links_.end());
  hop_links_.erase(std::unique(hop_links_.begin() + begin, hop_links_.end()), hop_links_.end());
  f.hop_begin = static_cast<uint32_t>(begin);
  f.hop_count = static_cast<uint32_t>(hop_links_.size() - static_cast<size_t>(begin));
  for (size_t h = static_cast<size_t>(begin); h < hop_links_.size(); ++h) {
    hop_slots_.push_back(TenantSlot(hop_links_[h], detail->spec.tenant));
  }
  f.detail = std::move(detail);
  return row;
}

topology::ComponentId Fabric::PickSpillDimm(topology::ComponentId socket, FlowId flow) {
  const auto it = socket_dimms_.find(socket);
  if (it == socket_dimms_.end() || it->second.empty()) {
    return topology::kInvalidComponent;
  }
  return it->second[static_cast<size_t>(flow) % it->second.size()];
}

void Fabric::UpdateCacheCoupling() {
  // Group DDIO-eligible parents by destination socket: sorting (socket, row)
  // pairs puts sockets in order and, rows being in id order, each socket's
  // parents in id order.
  ddio_parents_.clear();
  for (size_t i = 0; i < flows_.size(); ++i) {
    const FlowState& f = flows_[i];
    if (!f.ddio_write || f.spill_parent != kInvalidFlow) {
      continue;
    }
    const topology::ComponentId dst = f.detail->spec.path.destination();
    if (topo_.component(dst).kind != topology::ComponentKind::kCpuSocket) {
      continue;
    }
    ddio_parents_.emplace_back(dst, i);
  }
  std::sort(ddio_parents_.begin(), ddio_parents_.end());

  cache_stats_.clear();
  for (size_t group = 0; group < ddio_parents_.size();) {
    const topology::ComponentId socket = ddio_parents_[group].first;
    size_t group_end = group;
    double io_rate = 0.0;
    for (; group_end < ddio_parents_.size() && ddio_parents_[group_end].first == socket;
         ++group_end) {
      io_rate += flows_[ddio_parents_[group_end].second].solved_rate;
    }
    const double hit =
        config_.ddio_enabled
            ? DdioHitRate(sim::Bandwidth::BytesPerSec(io_rate), config_.llc_drain_time,
                          config_.DdioCapacityBytes())
            : 0.0;
    const double miss = 1.0 - hit;

    SocketCacheStats stats;
    stats.io_write_rate_bps = io_rate;
    stats.hit_rate = hit;
    stats.working_set_bytes = io_rate * config_.llc_drain_time.ToSecondsF();
    stats.ddio_capacity_bytes = config_.DdioCapacityBytes();
    cache_stats_.emplace_back(socket, stats);

    for (; group < group_end; ++group) {
      // By index: appending a spill companion may move the rows.
      const size_t row = ddio_parents_[group].second;
      FlowState& f = flows_[row];
      f.detail->miss_fraction = miss;
      const double desired_spill = f.solved_rate * miss;
      if (desired_spill > kSpillEpsBps) {
        if (f.spill_child == kInvalidFlow) {
          const topology::ComponentId dimm = PickSpillDimm(socket, f.id);
          if (dimm == topology::kInvalidComponent) {
            continue;  // No memory behind this socket; spill unmodelled.
          }
          auto spill_path = router_.ShortestPath(socket, dimm);
          if (!spill_path) {
            continue;
          }
          auto child = std::make_unique<FlowDetail>();
          child->spec.path = std::move(*spill_path);
          child->spec.tenant = f.detail->spec.tenant;  // Attribution: the tenant "causes" the spill.
          child->spec.weight = f.detail->spec.weight;
          child->spec.klass = TrafficClass::kSpill;
          child->demand = desired_spill;
          child->start_time = sim_.Now();
          const FlowId parent_id = f.id;
          FlowState& spill = flows_[AppendFlow(std::move(child))];
          spill.spill_parent = parent_id;
          flows_[row].spill_child = spill.id;
          dirty_flows_.push_back(spill.id);
        } else {
          FlowDetail& spill = *FindFlow(f.spill_child)->detail;
          if (spill.demand != desired_spill) {  // mihn-check: float-eq-ok(pushed-state diff)
            spill.demand = desired_spill;
            dirty_flows_.push_back(f.spill_child);
          }
        }
      } else if (f.spill_child != kInvalidFlow) {
        FlowDetail& spill = *FindFlow(f.spill_child)->detail;
        if (spill.demand != 0.0) {  // mihn-check: float-eq-ok(pushed-state diff)
          spill.demand = 0.0;
          dirty_flows_.push_back(f.spill_child);
        }
      }
    }
  }
}

void Fabric::MarkDirty(uint64_t count) {
  mutation_count_ += count;
  dirty_ = true;
}

void Fabric::MarkFlowDirty(FlowId id) {
  dirty_flows_.push_back(id);
  MarkDirty();
}

void Fabric::FlushIfDirty() const {
  if (dirty_ && !in_recompute_) {
    // Logically const: the solve only materializes state that mutators
    // already committed to (rates, spill coupling, the completion schedule).
    const_cast<Fabric*>(this)->Recompute();
  }
}

void Fabric::SettleStaged(sim::StagedEvents& staging) {
  staging_ = &staging;
  FlushIfDirty();
  staging_ = nullptr;
}

void Fabric::SolveRates() {
  // Full re-prime: first solve ever, or enough tombstoned slots accumulated
  // that the retained problem is mostly dead weight. Re-priming compacts
  // slots back to id order — which is also the order the diff path appends
  // in (flow ids are monotonic), so allocations are identical either way.
  if (!solver_retained_ || tombstoned_slots_ > flows_.size() / 2 + 8) {
    solver_.Begin(links_.size());
    for (size_t i = 0; i < links_.size(); ++i) {
      solver_.SetCapacity(static_cast<int32_t>(i), links_[i].effective_capacity);
    }
    // The table is in id order, so AddFlow order (== rate vector order) is
    // the deterministic id order. Hop ranges are pre-sorted and deduped, so
    // the solver copies them without re-sorting; no allocation at steady
    // state.
    int32_t slot = 0;
    for (FlowState& f : flows_) {
      FlowDetail& d = *f.detail;
      const double eff = std::min({d.demand, d.limit, f.cache_cap});
      solver_.AddFlow(d.spec.weight, eff, hop_links_.data() + f.hop_begin, f.hop_count);
      f.solver_slot = slot++;
      d.pushed_weight = d.spec.weight;
      d.pushed_demand = eff;
    }
    const std::vector<double>& solved = solver_.Commit();
    for (FlowState& f : flows_) {
      f.solved_rate = solved[static_cast<size_t>(f.solver_slot)];
    }
    solver_retained_ = true;
    tombstoned_slots_ = 0;
    dirty_flows_.clear();
    return;
  }

  // Delta path: push only what moved since the last solve. The solver elides
  // writes that match its current value, so the O(links) capacity sweep and
  // duplicate worklist entries record nothing when nothing moved.
  for (size_t i = 0; i < links_.size(); ++i) {
    solver_.UpdateCapacity(static_cast<int32_t>(i), links_[i].effective_capacity);
  }
  for (const FlowId id : dirty_flows_) {
    FlowState* f = FindFlow(id);
    if (f == nullptr) {
      continue;  // Removed after being dirtied; the solver saw the removal.
    }
    FlowDetail& d = *f->detail;
    const double eff = std::min({d.demand, d.limit, f->cache_cap});
    if (f->solver_slot < 0) {
      f->solver_slot = solver_.AddFlowRetained(d.spec.weight, eff,
                                               hop_links_.data() + f->hop_begin, f->hop_count);
      d.pushed_weight = d.spec.weight;
      d.pushed_demand = eff;
      continue;
    }
    if (d.pushed_weight != d.spec.weight) {  // mihn-check: float-eq-ok(pushed-state diff)
      solver_.UpdateFlowWeight(f->solver_slot, d.spec.weight);
      d.pushed_weight = d.spec.weight;
    }
    if (d.pushed_demand != eff) {  // mihn-check: float-eq-ok(pushed-state diff)
      solver_.UpdateFlowDemand(f->solver_slot, eff);
      d.pushed_demand = eff;
    }
  }
  dirty_flows_.clear();
  const std::vector<double>& solved = solver_.SolveDelta();
  for (FlowState& f : flows_) {
    f.solved_rate = solved[static_cast<size_t>(f.solver_slot)];
  }
}

void Fabric::Recompute() {
  if (in_recompute_) {
    return;
  }
  MIHN_TRACE_SPAN(solve_span, tracer_, "fabric", "fabric.solve");
  in_recompute_ = true;
  dirty_ = false;
  AccrueCounters();
  RefreshCapacities();

  // Round 1 only matters for DDIO-eligible flows (it sets desired spills):
  // skip it — and the cache-cap bookkeeping — when none are active, the
  // common case for pure fabric workloads.
  const bool ddio_active = ddio_flow_count_ > 0;
  if (ddio_active) {
    // Round 1: potential rates with the cache throttle lifted. These set
    // each DDIO flow's desired spill (what it *would* push to memory). Only
    // flows actually capped last round change — and only they get dirtied.
    for (FlowState& f : flows_) {
      if (f.cache_cap != kUnlimitedDemand) {  // mihn-check: float-eq-ok(unlimited sentinel)
        f.cache_cap = kUnlimitedDemand;
        dirty_flows_.push_back(f.id);
      }
    }
    SolveRates();
    UpdateCacheCoupling();
  } else if (!cache_stats_.empty()) {
    cache_stats_.clear();  // The last DDIO flow just left.
  }

  // Round 2: spill companions active at their desired demand.
  SolveRates();

  if (ddio_active) {
    // If memory cannot absorb a flow's spill, the flow itself is throttled
    // to its miss-drain rate (writes stall behind evictions). One more solve
    // with those caps; computing caps from round-2 child rates (not a full
    // fixed point) keeps the result stable and deterministic. Skipped when
    // no spill child was capped.
    bool any_cap = false;
    for (FlowState& f : flows_) {
      if (f.spill_child == kInvalidFlow || f.detail->miss_fraction <= 1e-9) {
        continue;
      }
      const FlowState& child = *FindFlow(f.spill_child);
      const double achieved = child.solved_rate;
      if (achieved < child.detail->demand * (1.0 - 1e-6)) {
        f.cache_cap = achieved / f.detail->miss_fraction;
        dirty_flows_.push_back(f.id);
        any_cap = true;
      }
    }
    if (any_cap) {
      SolveRates();
    }
  }

  // Commit rates and rebuild per-link aggregates. Tenant rates reset to
  // absent: only tenants with a flow on the link in this solve reappear.
  for (auto& state : links_) {
    state.rate = 0.0;
    for (TenantCounter& tc : state.tenants) {
      tc.rate_bps = 0.0;
      tc.rate_present = false;
    }
    state.rate_by_class.fill(0.0);
  }
  for (FlowState& f : flows_) {
    f.rate = f.solved_rate;
    const size_t klass = static_cast<size_t>(f.klass);
    for (uint32_t h = f.hop_begin; h < f.hop_begin + f.hop_count; ++h) {
      DirectedLinkState& state = links_[static_cast<size_t>(hop_links_[h])];
      state.rate += f.rate;
      TenantCounter& tc = state.tenants[static_cast<size_t>(hop_slots_[h])];
      tc.rate_bps += f.rate;
      tc.rate_present = true;
      state.rate_by_class[klass] += f.rate;
    }
    // Record achieved spill in the socket stats.
    if (f.spill_parent != kInvalidFlow) {
      const topology::ComponentId socket =
          FindFlow(f.spill_parent)->detail->spec.path.destination();
      if (SocketCacheStats* stats = FindCacheStats(socket)) {
        stats->spill_rate_bps += f.rate;
      }
    }
  }
  ++recompute_count_;
  in_recompute_ = false;
  if (solve_span.active()) {
    double spill_bps = 0.0;
    for (const auto& [socket, stats] : cache_stats_) {
      spill_bps += stats.spill_rate_bps;
    }
    solve_span.Arg("flows", static_cast<double>(flows_.size()));
    solve_span.Arg("links", static_cast<double>(links_.size()));
    solve_span.Arg("rounds", static_cast<double>(solver_.last_rounds()));
    solve_span.Arg("coalesced_mutations",
                   static_cast<double>(mutation_count_ - mutations_at_last_solve_));
    const MaxMinSolver::DeltaStats& ds = solver_.last_delta_stats();
    solve_span.Arg("delta_dirty_links", static_cast<double>(ds.dirty_links));
    solve_span.Arg("delta_divergence_round", static_cast<double>(ds.divergence_round));
    solve_span.Arg("delta_resumed_rounds", static_cast<double>(ds.resumed_rounds));
    solve_span.Arg("delta_fallback", ds.fallback_full ? 1.0 : 0.0);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.delta_solves", solver_.delta_solves());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.delta_fallbacks", solver_.delta_fallbacks());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.delta_noop_splices",
                       solver_.delta_noop_splices());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.flows", flows_.size());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.recomputes", recompute_count_);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.ddio_spill_bps", spill_bps);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.route_cache_hits", router_.cache_stats().hits);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.route_cache_misses",
                       router_.cache_stats().misses);
  }
  mutations_at_last_solve_ = mutation_count_;
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  CheckInvariants();
#endif
  RescheduleCompletion();
}

void Fabric::CheckInvariants() const {
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  // Float tolerance: the solver distributes capacity through repeated
  // divisions, so allow a relative 1e-6 plus one byte/s of absolute slack.
  constexpr double kRelTol = 1e-6;
  constexpr double kAbsTolBps = 1.0;

  // A solve never runs without a preceding mutation (dirty_ is only raised
  // by MarkDirty, which counts), and this pass runs post-solve.
  MIHN_CHECK(recompute_count_ <= mutation_count_);
  MIHN_CHECK(!dirty_);
  MIHN_CHECK(!in_recompute_);

  // Table order: ids strictly ascending, hop ranges back to back in row
  // order and covering both hop arrays exactly.
  MIHN_CHECK(hop_links_.size() == hop_slots_.size());
  size_t next_hop = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    const FlowState& f = flows_[i];
    MIHN_CHECK(i == 0 || flows_[i - 1].id < f.id);
    MIHN_CHECK(f.id < next_flow_id_);
    MIHN_CHECK(!f.released);
    MIHN_CHECK(f.detail != nullptr);
    MIHN_CHECK(f.klass == f.detail->spec.klass);
    MIHN_CHECK(f.ddio_write == f.detail->spec.ddio_write);
    MIHN_CHECK(f.hop_begin == next_hop);
    MIHN_CHECK(f.hop_count > 0);
    for (uint32_t h = f.hop_begin + 1; h < f.hop_begin + f.hop_count; ++h) {
      MIHN_CHECK(hop_links_[h - 1] < hop_links_[h]);  // Sorted and deduped.
    }
    next_hop += f.hop_count;
  }
  MIHN_CHECK(next_hop == hop_links_.size());

  // Per-link conservation, recomputed independently from flow state.
  std::vector<double> link_sums(links_.size(), 0.0);
  for (const FlowState& f : flows_) {
    const FlowDetail& d = *f.detail;
    MIHN_CHECK(f.rate >= 0.0);
    MIHN_CHECK(f.bytes_moved >= 0.0);
    if (solver_retained_) {
      // The retained mirror must be exact: a drifted pushed value means a
      // mutation bypassed MarkFlowDirty and the solver solved stale inputs.
      MIHN_CHECK(f.solver_slot >= 0);
      MIHN_CHECK(d.pushed_weight == d.spec.weight);  // mihn-check: float-eq-ok(mirror exactness)
      MIHN_CHECK(d.pushed_demand ==  // mihn-check: float-eq-ok(mirror exactness)
                 std::min({d.demand, d.limit, f.cache_cap}));
    }
    if (f.spill_child != kInvalidFlow) {
      const FlowState* child = FindFlow(f.spill_child);
      MIHN_CHECK(child != nullptr);
      MIHN_CHECK(child->spill_parent == f.id);
    }
    for (uint32_t h = f.hop_begin; h < f.hop_begin + f.hop_count; ++h) {
      link_sums[static_cast<size_t>(hop_links_[h])] += f.rate;
    }
  }
  for (size_t i = 0; i < links_.size(); ++i) {
    const DirectedLinkState& state = links_[i];
    MIHN_CHECK(state.rate >= 0.0);
    MIHN_CHECK(state.effective_capacity >= 0.0);
    MIHN_CHECK(state.bytes_total >= 0.0);
    const double slack = state.rate * kRelTol + kAbsTolBps;
    MIHN_CHECK(std::abs(link_sums[i] - state.rate) <= slack);
    MIHN_CHECK(state.rate <= state.effective_capacity * (1.0 + kRelTol) + kAbsTolBps);
    double tenant_sum = 0.0;
    for (const TenantCounter& tc : state.tenants) {
      MIHN_CHECK(tc.rate_present || tc.rate_bps == 0.0);  // mihn-check: float-eq-ok(reset value)
      MIHN_CHECK(tc.rate_bps >= 0.0);
      tenant_sum += tc.rate_bps;
    }
    MIHN_CHECK(std::abs(tenant_sum - state.rate) <= slack);
  }
#endif
}

void Fabric::RescheduleCompletion() {
  // Under SettleStaged() the queue operations are recorded, not applied:
  // the cancel and the schedule land in the buffer in this exact order, so
  // a serial replay reproduces the direct path's event sequence (and pool
  // slot reuse) byte-for-byte.
  if (staging_ != nullptr) {
    staging_->StageCancel(completion_event_);
  } else {
    completion_event_.Cancel();
  }
  double min_secs = std::numeric_limits<double>::infinity();
  for (const FlowState& f : flows_) {
    if (f.bytes_remaining >= 0.0 && f.rate > 0.0) {
      min_secs = std::min(min_secs, f.bytes_remaining / f.rate);
    }
  }
  if (!std::isfinite(min_secs)) {
    return;
  }
  // +1ns so float accrual definitively crosses the completion threshold.
  const sim::TimeNs delay = sim::TimeNs::FromSecondsF(min_secs) + sim::TimeNs::Nanos(1);
  if (staging_ != nullptr) {
    staging_->StageScheduleAfter(
        delay, [this] { OnCompletionEvent(); }, "fabric.completion", &completion_event_);
  } else {
    completion_event_ =
        sim_.ScheduleAfter(delay, [this] { OnCompletionEvent(); }, "fabric.completion");
  }
}

void Fabric::OnCompletionEvent() {
  // Mutations from earlier events at this same timestamp may still be
  // pending (hooks only fire between timestamps): settle them so the done
  // check and delivery latencies see current rates.
  FlushIfDirty();
  AccrueCounters();
  // One pass in id order: deliver and release every drained transfer, then
  // compact the table once for the whole batch.
  uint64_t done = 0;
  for (FlowState& f : flows_) {
    if (f.released || f.bytes_remaining < 0.0 || f.bytes_remaining > kDoneBytes) {
      continue;
    }
    FlowDetail& d = *f.detail;
    if (d.on_complete) {
      TransferResult result;
      result.id = f.id;
      result.start = d.start_time;
      // Delivery: fluid drain time plus one traversal of (congested) path
      // latency and any interrupt-moderation delay.
      result.end = sim_.Now() + ProbePathLatency(d.spec.path) + config_.interrupt_moderation;
      result.bytes = static_cast<int64_t>(std::llround(f.bytes_moved));
      sim_.ScheduleAt(result.end, [cb = std::move(d.on_complete), result] { cb(result); });
    }
    ReleaseFlow(f);
    ++done;
  }
  if (done > 0) {
    CompactFlows();
    MarkDirty(done);
  } else {
    // Spurious wake (rates changed since this event was armed): re-arm from
    // the current — already settled — rates.
    RescheduleCompletion();
  }
}

void Fabric::ReleaseFlow(FlowState& f) {
  f.released = true;
  if (f.ddio_write && ddio_flow_count_ > 0) {
    --ddio_flow_count_;
  }
  if (solver_retained_ && f.solver_slot >= 0) {
    solver_.RemoveFlowRetained(f.solver_slot);
    ++tombstoned_slots_;
  }
  if (f.spill_child != kInvalidFlow) {
    FlowState* child = FindFlow(f.spill_child);
    if (child != nullptr && !child->released) {
      ReleaseFlow(*child);
    }
  }
  if (f.spill_parent != kInvalidFlow) {
    FlowState* parent = FindFlow(f.spill_parent);
    if (parent != nullptr && !parent->released) {
      parent->spill_child = kInvalidFlow;
      parent->cache_cap = kUnlimitedDemand;
      dirty_flows_.push_back(parent->id);  // Effective demand just changed.
    }
  }
}

void Fabric::CompactFlows() {
  // Stable: kept rows and their hop ranges slide down in order, so the
  // table stays in id order and the hop arrays stay in table order.
  size_t kept = 0;
  uint32_t next_hop = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    FlowState& f = flows_[i];
    if (f.released) {
      continue;
    }
    if (f.hop_begin != next_hop) {
      const auto from = static_cast<std::ptrdiff_t>(f.hop_begin);
      const auto count = static_cast<std::ptrdiff_t>(f.hop_count);
      std::copy(hop_links_.begin() + from, hop_links_.begin() + from + count,
                hop_links_.begin() + next_hop);
      std::copy(hop_slots_.begin() + from, hop_slots_.begin() + from + count,
                hop_slots_.begin() + next_hop);
      f.hop_begin = next_hop;
    }
    next_hop += f.hop_count;
    if (kept != i) {
      flows_[kept] = std::move(f);
    }
    ++kept;
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept), flows_.end());
  hop_links_.resize(next_hop);
  hop_slots_.resize(next_hop);
}

SocketCacheStats* Fabric::FindCacheStats(topology::ComponentId socket) {
  return const_cast<SocketCacheStats*>(std::as_const(*this).FindCacheStats(socket));
}

const SocketCacheStats* Fabric::FindCacheStats(topology::ComponentId socket) const {
  for (const auto& [id, stats] : cache_stats_) {
    if (id == socket) {
      return &stats;
    }
  }
  return nullptr;
}

}  // namespace mihn::fabric
