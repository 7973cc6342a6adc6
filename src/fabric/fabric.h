// The fluid flow-level simulator of the intra-host network.
//
// Fabric animates a Topology inside a Simulation:
//
//  * Continuous/finite *flows* share every directed link by weighted
//    max-min fairness (recomputed on each arrival, departure, limit change,
//    fault, or config change — the fluid equivalent of PCIe/memory-bus
//    arbitration).
//  * Per-hop latency inflates with utilization (M/M/1 shape), reproducing
//    "congestion in the intra-host network causes application-level
//    performance anomalies" (paper §2).
//  * Inbound I/O writes to a CPU socket pass through the DDIO/LLC model;
//    misses spawn companion TrafficClass::kSpill flows onto the memory bus
//    and throttle the parent to its miss-drain rate.
//  * Small *packets* (RPCs, heartbeats, probes) ride on top without
//    claiming fluid bandwidth; they observe congestion latency.
//  * Every byte is attributed to a (tenant, traffic class) per directed
//    link — the observability substrate the telemetry module samples.
//
// This class is the hardware-substitution boundary (see DESIGN.md §1): the
// manageability layers above talk only to this interface.

#ifndef MIHN_SRC_FABRIC_FABRIC_H_
#define MIHN_SRC_FABRIC_FABRIC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/fabric/cache_model.h"
#include "src/fabric/config.h"
#include "src/fabric/types.h"
#include "src/obs/tracer.h"
#include "src/sim/simulation.h"
#include "src/sim/staged_events.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace mihn::fabric {

// Exported telemetry of one direction of one link: an owning copy with
// the per-tenant counters as TenantId-ordered maps. Built from the same
// counters as LinkView; readers that only scan should borrow views instead.
struct LinkSnapshot {
  topology::LinkId link = topology::kInvalidLink;
  bool forward = true;
  double capacity_bps = 0.0;  // Effective (after config + faults).
  double rate_bps = 0.0;      // Currently allocated fluid rate.
  double utilization = 0.0;   // rate / capacity in [0, 1].
  double bytes_total = 0.0;   // Accrued since start (fluid + packets).
  uint64_t packets = 0;
  // Deterministically ordered per-tenant attribution.
  std::map<TenantId, double> rate_by_tenant_bps;
  std::map<TenantId, double> bytes_by_tenant;
  std::array<double, kNumTrafficClasses> rate_by_class_bps{};
  std::array<double, kNumTrafficClasses> bytes_by_class{};
};

// One tenant's counters on one directed link. A link keeps one entry per
// tenant it has ever seen, appended in first-seen order and never removed,
// so a flow can cache its entry's index for every hop when it is created.
// The presence flags say which exported map the tenant appears in:
struct TenantCounter {
  TenantId tenant = kNoTenant;
  // A flow of this tenant crosses the link in the current solve — even at
  // rate 0 (LinkSnapshot::rate_by_tenant_bps has the key).
  bool rate_present = false;
  // Bytes were ever accrued for this tenant here, or it sent a packet here
  // (LinkSnapshot::bytes_by_tenant has the key).
  bool bytes_present = false;
  double rate_bps = 0.0;
  double bytes = 0.0;
};

// The live counters of one directed link, as the fabric maintains them.
struct LinkCounters {
  double effective_capacity = 0.0;  // After config + faults.
  double rate = 0.0;
  double bytes_total = 0.0;
  uint64_t packets = 0;
  std::vector<TenantCounter> tenants;  // First-seen order (see TenantCounter).
  std::array<double, kNumTrafficClasses> rate_by_class{};
  std::array<double, kNumTrafficClasses> bytes_by_class{};
};

// Borrowed, zero-copy view of one directed link's counters: the
// telemetry read path. Valid until the next call on the fabric that can
// mutate or settle it (any mutator, any flushing read, or a clock advance);
// a reader must finish with the view before touching the fabric again.
class LinkView {
 public:
  LinkView(topology::DirectedLink dlink, const LinkCounters& counters)
      : dlink_(dlink), counters_(&counters) {}

  topology::DirectedLink dlink() const { return dlink_; }
  double capacity_bps() const { return counters_->effective_capacity; }
  double rate_bps() const { return counters_->rate; }
  // rate / capacity in [0, 1]; 0 on a zero-capacity (dead) link.
  double utilization() const {
    return counters_->effective_capacity > 0 ? counters_->rate / counters_->effective_capacity
                                             : 0.0;
  }
  double bytes_total() const { return counters_->bytes_total; }
  uint64_t packets() const { return counters_->packets; }
  // Every tenant entry, in first-seen order — not TenantId order. Consult
  // the presence flags: an entry may be present in neither map.
  const std::vector<TenantCounter>& tenants() const { return counters_->tenants; }
  const std::array<double, kNumTrafficClasses>& rate_by_class_bps() const {
    return counters_->rate_by_class;
  }
  const std::array<double, kNumTrafficClasses>& bytes_by_class() const {
    return counters_->bytes_by_class;
  }

 private:
  topology::DirectedLink dlink_;
  const LinkCounters* counters_;
};

class Fabric {
 public:
  // |topo| must outlive the Fabric and pass Validate().
  Fabric(sim::Simulation& sim, const topology::Topology& topo, FabricConfig config = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // -- Routing convenience ----------------------------------------------------
  // Shortest (base-latency) path, fault-aware: dead links (capacity factor
  // 0) are never routed through, degraded links only when no fully healthy
  // alternative exists. nullopt if every route crosses a dead link.
  std::optional<topology::Path> Route(topology::ComponentId src,
                                      topology::ComponentId dst) const;

  // Bumps whenever a fault injection/clear changes which paths Route()
  // prefers. Path-caching consumers (heartbeat mesh, workloads) compare it
  // to re-resolve; it never moves on no-op fault churn.
  uint64_t route_epoch() const { return route_epoch_; }

  // -- Flows -------------------------------------------------------------------
  // Starts a continuous flow. Returns kInvalidFlow for an empty path.
  FlowId StartFlow(FlowSpec spec);

  // Starts a finite transfer; spec.on_complete fires at delivery. Returns
  // the id of the underlying flow. Zero-byte transfers complete immediately.
  FlowId StartTransfer(TransferSpec spec);

  // Stops and removes a flow (its spill companion too). Finite transfers
  // stopped early never fire on_complete. No-op for unknown ids.
  void StopFlow(FlowId id);

  // Arbiter hooks: rate cap and fair-share weight.
  void SetFlowLimit(FlowId id, sim::Bandwidth limit);
  // Applies many limits with a single rate recomputation — what a real
  // arbiter's batched enforcement write-back would do. Unknown ids are
  // skipped.
  void SetFlowLimitsBatch(const std::vector<std::pair<FlowId, sim::Bandwidth>>& limits);
  void SetFlowWeight(FlowId id, double weight);
  // Application hook: change a continuous flow's offered demand.
  void SetFlowDemand(FlowId id, sim::Bandwidth demand);

  // Accrues pending fluid bytes before reporting.
  std::optional<FlowInfo> GetFlowInfo(FlowId id);
  sim::Bandwidth FlowRate(FlowId id) const;
  std::vector<FlowId> ActiveFlows() const;
  // ActiveFlows().size() without building the vector (flushes the same way:
  // spill companions materialize at the solve).
  size_t active_flow_count() const;

  // -- Packets -----------------------------------------------------------------
  // Sends a packetized message; on_delivered fires after per-hop congestion
  // latency + serialization (+ interrupt moderation). Returns the latency
  // it will experience (known immediately — the model is deterministic).
  sim::TimeNs SendPacket(PacketSpec spec);

  // Current end-to-end latency along |path| for a minimal probe (no
  // serialization): what a zero-byte ping would see right now.
  sim::TimeNs ProbePathLatency(const topology::Path& path) const;

  // Current one-hop latency (with congestion inflation and faults).
  sim::TimeNs HopLatency(topology::DirectedLink hop) const;

  // -- Faults ------------------------------------------------------------------
  // Injects/overwrites a silent fault on |link| (both directions).
  void InjectLinkFault(topology::LinkId link, LinkFault fault);
  void ClearLinkFault(topology::LinkId link);
  std::optional<LinkFault> GetLinkFault(topology::LinkId link) const;

  // The live fault table (deterministic key order). Routing-adjacent
  // consumers (the scheduler's private router) mirror this into their own
  // health sets.
  const std::map<topology::LinkId, LinkFault>& link_faults() const { return faults_; }

  // -- Configuration -------------------------------------------------------------
  const FabricConfig& config() const { return config_; }
  void SetConfig(FabricConfig config);

  // -- Telemetry access ----------------------------------------------------------
  // The read path. Every accessor settles pending mutations and accrues
  // pending fluid bytes first, so counters are exact as of Now().
  //
  // View() borrows one directed link's counters; VisitLinks() calls
  // fn(const LinkView&) for every directed link — topology link order,
  // forward direction first — after a single settle + accrual. Neither
  // copies or allocates. |fn| must not call back into the fabric.
  LinkView View(topology::DirectedLink dlink);
  template <typename Fn>
  void VisitLinks(Fn&& fn) {
    PrepareRead();
    for (const topology::Link& link : topo_.links()) {
      for (const bool forward : {true, false}) {
        const topology::DirectedLink dlink{link.id, forward};
        fn(LinkView(dlink, links_[static_cast<size_t>(DirectedIndex(dlink))]));
      }
    }
  }

  // Exporters: owning copies built from the same views, tenants sorted by
  // TenantId into maps. SnapshotAll() is one VisitLinks() pass, in its
  // order. For tests, tools and benchmarks; production readers under src/
  // borrow views (mihn-check D8 enforces it).
  LinkSnapshot Snapshot(topology::DirectedLink dlink);
  std::vector<LinkSnapshot> SnapshotAll();

  // Effective capacity of one direction (after config + faults).
  sim::Bandwidth EffectiveCapacity(topology::DirectedLink dlink) const;
  double Utilization(topology::DirectedLink dlink) const;

  // DDIO/LLC stats for a socket (zero-value stats if none tracked yet).
  SocketCacheStats CacheStats(topology::ComponentId socket) const;

  const topology::Topology& topo() const { return topo_; }
  sim::Simulation& simulation() { return sim_; }

  // -- Parallel settle -----------------------------------------------------------
  // Runs any pending deferred solve now — like the flush a read accessor
  // triggers — but records the completion-event cancel/(re)schedule in
  // |staging| instead of applying it to the shared Simulation. This is the
  // fleet's parallel-settle seam: the solve itself touches only host-local
  // state plus read-only clock queries, so fabrics sharing one clock may
  // settle concurrently as long as each gets its own buffer and the buffers
  // are replayed serially afterwards (strict host order reproduces the
  // serial pass's event sequence byte-for-byte; see sim/staged_events.h).
  // The caller must ApplyTo() the buffer before the next mutation or clock
  // advance touches this fabric. Reads of the settled state (views, rates,
  // flow counts) may come first: with nothing dirty they solve nothing and
  // never touch the queue. No-op when nothing is dirty.
  void SettleStaged(sim::StagedEvents& staging);

  // -- Tracing -------------------------------------------------------------------
  // Installs the tracer that receives "fabric.solve" spans (flow/link
  // counts, solver rounds, coalesced mutations, DDIO spill) and fabric
  // counters. |tracer| must not be null — pass obs::Tracer::Disabled() to
  // turn tracing off — and must outlive the fabric.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Rate mutations are *coalesced*: a mutator (StartFlow, StopFlow,
  // SetFlowLimit/Weight/Demand, faults, SetConfig) only marks the fabric
  // dirty, and the max-min solve runs lazily — on the first rate/latency/
  // snapshot read, or at the end of the current simulation timestamp (a
  // pre-advance hook fires before virtual time moves on, so rates are always
  // settled before any later-time event or byte accrual observes them). A
  // same-timestamp burst of N mutations therefore pays for one solve.
  //
  // Number of max-min recomputations performed (engine health metric).
  // Reading it does NOT force a pending solve.
  uint64_t recompute_count() const { return recompute_count_; }

  // Number of rate-affecting mutations accepted. mutation_count() /
  // recompute_count() is the observable coalescing ratio.
  uint64_t mutation_count() const { return mutation_count_; }

  // Debug invariant pass over the solved state: per-link conservation
  // (Σ flow rates on a link equals the link's aggregate and stays within
  // effective capacity, modulo float tolerance), non-negative rates and
  // counters, spill parent/child symmetry, flow-table order (ids strictly
  // ascending, hop ranges contiguous in table order), and dirty-flag/
  // recompute-count consistency. Aborts via MIHN_CHECK on the first
  // violation. A no-op unless built with -DMIHN_ENABLE_INVARIANT_CHECKS=ON,
  // in which case Recompute() runs it after every solve, so the existing
  // fabric/sim test suites exercise it end to end.
  void CheckInvariants() const;

 private:
  // The cold part of a flow, at an address that stays put for the flow's
  // lifetime (FlowInfo::path points into it). Only per-flow work reads it:
  // creation, a mutator or a dirty-flow solve diff, a full solver re-prime,
  // delivery, and DDIO parents in the cache-coupling rounds.
  struct FlowDetail {
    FlowSpec spec;
    std::function<void(const TransferResult&)> on_complete;
    sim::TimeNs start_time;
    double demand = 0.0;  // bytes/s (after spec.demand).
    double limit = kUnlimitedDemand;
    double miss_fraction = 0.0;  // 1 - hit rate of this flow's socket.
    // Retained-solver mirror: the weight/effective-demand values last
    // pushed to the flow's solver slot. The diff in SolveRates() compares
    // against these so an untouched flow costs nothing per solve.
    double pushed_weight = 0.0;
    double pushed_demand = -1.0;
  };

  // One row of the flow table: the fields every per-flow sweep reads
  // (accrual, the solved-rate copy, the aggregate rebuild, completion
  // rescheduling, the done scan, the DDIO rounds).
  struct FlowState {
    FlowId id = kInvalidFlow;
    double rate = 0.0;
    double solved_rate = 0.0;       // Scratch: last SolveRates() output.
    double bytes_remaining = -1.0;  // < 0: continuous.
    double bytes_moved = 0.0;
    double cache_cap = kUnlimitedDemand;  // Miss-drain throttle from the LLC model.
    FlowId spill_child = kInvalidFlow;
    FlowId spill_parent = kInvalidFlow;
    int32_t solver_slot = -1;  // This flow's slot in the retained solver.
    // This flow's hops: [hop_begin, hop_begin + hop_count) of hop_links_
    // and hop_slots_.
    uint32_t hop_begin = 0;
    uint32_t hop_count = 0;
    TrafficClass klass = TrafficClass::kData;  // == detail->spec.klass.
    bool ddio_write = false;                   // == detail->spec.ddio_write.
    bool released = false;  // Removed; CompactFlows() drops the row.
    std::unique_ptr<FlowDetail> detail;
  };

  struct DirectedLinkState : LinkCounters {
    double raw_capacity = 0.0;
  };

  // Settles pending mutations and accrues pending bytes: the common
  // prologue of every telemetry read.
  void PrepareRead();

  // |tenant|'s entry index in links_[link_index].tenants, appending a
  // fresh (flag-less) entry the first time the tenant shows up there.
  int32_t TenantSlot(int32_t link_index, TenantId tenant);

  // The row of |id| in flows_ (binary search), or null.
  FlowState* FindFlow(FlowId id);
  const FlowState* FindFlow(FlowId id) const;

  // Appends a row for a new flow with the next id, plus its hops: the
  // path's directed links sorted and deduped, each with this flow's tenant
  // entry on that link (created as needed). Counts a DDIO write in
  // ddio_flow_count_. Returns the row's index.
  size_t AppendFlow(std::unique_ptr<FlowDetail> detail);

  // Moves fluid bytes for the interval since the last accrual into the
  // per-link and per-flow counters. Must be called before any rate change.
  void AccrueCounters();

  // Records a rate-affecting mutation (|count| of them) and defers the solve
  // to the next FlushIfDirty() point.
  void MarkDirty(uint64_t count = 1);

  // MarkDirty(1) plus an entry in dirty_flows_, so the retained diff in
  // SolveRates() visits only this flow instead of scanning all of them.
  void MarkFlowDirty(FlowId id);

  // Runs the deferred Recompute() if any mutation is pending. const because
  // every read accessor is a flush point; the solve only touches state that
  // is logically derived (rates, cache coupling, completion schedule).
  void FlushIfDirty() const;

  // Re-solves max-min rates (with the cache fixed point) and reschedules
  // the next completion event.
  void Recompute();

  // One max-min pass; leaves each flow's result in FlowState::solved_rate.
  // Steady state pushes only the diff (changed capacities + dirty_flows_)
  // into the retained solver and lets SolveDelta() replay the previous
  // solve's trace; a full re-prime happens on the first solve and when
  // tombstoned slots pile up.
  void SolveRates();

  // Applies config + faults to every directed link's effective capacity.
  void RefreshCapacities();

  // Ensures/updates spill companions for DDIO flows, reading each parent's
  // FlowState::solved_rate (round-1 potential rates). Part of Recompute.
  void UpdateCacheCoupling();

  void RescheduleCompletion();
  void OnCompletionEvent();

  // Undoes AppendFlow's bookkeeping for |f| and its spill companion
  // (solver slot, DDIO count) and unlinks |f| from its spill parent,
  // marking the rows released. CompactFlows() then drops
  // every released row and its hops in one stable pass, so a batch of
  // removals costs one compaction.
  void ReleaseFlow(FlowState& f);
  void CompactFlows();

  // cache_stats_'s entry for |socket|, or null.
  SocketCacheStats* FindCacheStats(topology::ComponentId socket);
  const SocketCacheStats* FindCacheStats(topology::ComponentId socket) const;

  bool IsPcieKind(topology::LinkKind kind) const;
  sim::TimeNs HopBaseLatency(topology::DirectedLink hop) const;

  // Mirrors faults_ into the router's health sets (dead vs degraded) after
  // every inject/clear; bumps route_epoch_ when routing preferences moved.
  void SyncRouterHealth();

  // Chooses the spill destination DIMM for a socket (round-robin).
  topology::ComponentId PickSpillDimm(topology::ComponentId socket, FlowId flow);

  sim::Simulation& sim_;
  const topology::Topology& topo_;
  topology::Router router_;
  FabricConfig config_;

  std::vector<DirectedLinkState> links_;  // Indexed by DirectedIndex.
  // The flow table, in ascending FlowId order. Ids only grow (spill
  // companions draw from the same counter), so appending keeps the order
  // and lookups binary-search. Every per-flow sweep therefore runs in id
  // order: the order the solver adds flows in and every per-link sum is
  // taken in, which keeps rates and counters deterministic.
  std::vector<FlowState> flows_;
  // Every flow's hops, contiguous and in table order (CSR): a row's range
  // in hop_links_ holds its DirectedIndex values, sorted and deduped (the
  // solver reads them in place), and the same range in hop_slots_ its
  // tenant entry in each of those links' LinkCounters::tenants (entries
  // are append-only, so a cached index stays valid).
  std::vector<int32_t> hop_links_;
  std::vector<int32_t> hop_slots_;
  FlowId next_flow_id_ = 1;
  sim::TimeNs last_accrual_;
  sim::EventHandle completion_event_;
  // Non-null only inside SettleStaged(): RescheduleCompletion() then stages
  // its queue operations instead of applying them.
  sim::StagedEvents* staging_ = nullptr;
  // Ordered maps: fault and DIMM state feed snapshots, telemetry, and spill
  // placement, so iteration order must be the key order, never hash order.
  std::map<topology::LinkId, LinkFault> faults_;
  std::map<topology::ComponentId, std::vector<topology::ComponentId>> socket_dimms_;
  // Sockets with DDIO writers in the last solve, in socket order; cleared
  // and refilled per solve, so its capacity carries over.
  std::vector<std::pair<topology::ComponentId, SocketCacheStats>> cache_stats_;
  // UpdateCacheCoupling() scratch: (destination socket, row) per DDIO
  // parent, sorted so parents group by socket in id order.
  std::vector<std::pair<topology::ComponentId, size_t>> ddio_parents_;
  MaxMinSolver solver_;  // Persistent workspace: no allocation at steady state.
  // Retained-solver bookkeeping. dirty_flows_ is the worklist of flows whose
  // weight or effective demand may have moved since the last solve
  // (duplicates fine — the solver elides no-op writes). Tombstoned slots
  // accumulate until a full re-prime compacts them away.
  std::vector<FlowId> dirty_flows_;
  size_t tombstoned_slots_ = 0;
  bool solver_retained_ = false;
  sim::EventHandle pre_advance_hook_;
  obs::Tracer* tracer_ = obs::Tracer::Disabled();
  uint64_t route_epoch_ = 0;
  uint64_t recompute_count_ = 0;
  uint64_t mutation_count_ = 0;
  uint64_t mutations_at_last_solve_ = 0;  // For the per-solve coalescing arg.
  size_t ddio_flow_count_ = 0;  // Active flows with spec.ddio_write.
  bool dirty_ = false;
  bool in_recompute_ = false;
};

}  // namespace mihn::fabric

#endif  // MIHN_SRC_FABRIC_FABRIC_H_
