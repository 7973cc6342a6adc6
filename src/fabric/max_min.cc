// MaxMinSolver: the production progressive-filling engine with a retained
// delta path. The full solve (SetupFromInputs + RunRounds) reproduces
// SolveMaxMinReference bit-for-bit; the delta path (SolveDelta) replays the
// retained per-round trace against the mutated problem and only re-runs
// filling rounds from the first proven divergence. See DESIGN.md §5 for the
// propagation rule and the determinism argument.

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/fabric/max_min.h"

namespace mihn::fabric {

namespace {

constexpr double kEps = 1e-9;
constexpr double kMinWeight = 1e-12;
// Multiplicative slack when harvesting at-demand candidates from the fix
// heap. The heap key (demand - demand_tol)/weight is computed with two
// roundings (~2 ulp ≈ 4.4e-16 relative), so any flow the reference would fix
// at water level L has key <= L * (1 + kFixSlack). Over-harvested flows fail
// the exact re-check and are pushed back, so the slack only costs work,
// never correctness.
constexpr double kFixSlack = 1e-12;
constexpr size_t kMaxCheckpoints = 48;

constexpr int32_t kDeadRound = -1;
constexpr int32_t kNeverFixed = std::numeric_limits<int32_t>::max();
constexpr int32_t kNeverSat = std::numeric_limits<int32_t>::max();

using HeapEntry = std::pair<double, int32_t>;

struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const { return a.first > b.first; }
};

inline void HeapPush(std::vector<HeapEntry>& h, double key, int32_t flow) {
  h.emplace_back(key, flow);
  std::push_heap(h.begin(), h.end(), HeapGreater{});
}

inline void HeapPop(std::vector<HeapEntry>& h) {
  std::pop_heap(h.begin(), h.end(), HeapGreater{});
  h.pop_back();
}

inline double DemandTol(double demand) { return std::max(kEps, demand * 1e-9); }

}  // namespace

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void MaxMinSolver::BeginLocked(size_t num_links) {
  num_links_ = num_links;
  num_flows_ = 0;
  capacities_.assign(num_links, 0.0);
  flow_weight_.clear();
  flow_demand_.clear();
  flow_link_off_.assign(1, 0);
  flow_link_ids_.clear();
  primed_ = false;
  force_full_ = false;
  flow_muts_.clear();
  cap_muts_.clear();
}

void MaxMinSolver::SetCapacityLocked(int32_t link, double capacity) {
  if (link >= 0 && static_cast<size_t>(link) < num_links_) {
    capacities_[static_cast<size_t>(link)] = capacity;
  }
}

int32_t MaxMinSolver::AddFlowLocked(double weight, double demand, const int32_t* links,
                                    size_t count) {
  const int32_t slot = static_cast<int32_t>(num_flows_);
  flow_weight_.push_back(std::max(weight, kMinWeight));
  flow_demand_.push_back(demand);
  const size_t start = flow_link_ids_.size();
  flow_link_ids_.insert(flow_link_ids_.end(), links, links + count);
  // The reference dedups each flow's link list; replicate on ingest so the
  // per-flow CSR slice is always sorted + unique.
  bool sorted_unique = true;
  for (size_t i = start + 1; i < flow_link_ids_.size(); ++i) {
    if (flow_link_ids_[i - 1] >= flow_link_ids_[i]) {
      sorted_unique = false;
      break;
    }
  }
  if (!sorted_unique) {
    std::sort(flow_link_ids_.begin() + static_cast<ptrdiff_t>(start), flow_link_ids_.end());
    auto last = std::unique(flow_link_ids_.begin() + static_cast<ptrdiff_t>(start),
                            flow_link_ids_.end());
    flow_link_ids_.erase(last, flow_link_ids_.end());
  }
  flow_link_off_.push_back(static_cast<int32_t>(flow_link_ids_.size()));
  ++num_flows_;
  return slot;
}

const std::vector<double>& MaxMinSolver::CommitLocked() {
  SetupFromInputs();
  RunRounds(0.0, 0);
  primed_ = true;
  return rates_;
}

const std::vector<double>& MaxMinSolver::Solve(const std::vector<MaxMinFlow>& flows,
                                               const std::vector<double>& capacities) {
  core::MutexLock lock(&mu_);
  BeginLocked(capacities.size());
  for (size_t l = 0; l < capacities.size(); ++l) {
    capacities_[l] = capacities[l];
  }
  for (const MaxMinFlow& f : flows) {
    AddFlowLocked(f.weight, f.demand, f.links.data(), f.links.size());
  }
  return CommitLocked();
}

// ---------------------------------------------------------------------------
// Full-solve core
// ---------------------------------------------------------------------------

void MaxMinSolver::SetupFromInputs() {
  const size_t nf = num_flows_;
  const size_t nl = num_links_;

  rates_.assign(nf, 0.0);
  residual_ = capacities_;
  link_weight_.assign(nl, 0.0);
  fixed_.assign(nf, 0);
  dead_.assign(nf, 0);
  fix_round_.assign(nf, kNeverFixed);

  // Dead scan + per-link weight accumulation in flow order (the reference's
  // accumulation order; weight sums must match it bit-for-bit), counting
  // each link's live members for the member CSR on the way.
  link_flow_off_.assign(nl + 1, 0);
  for (size_t f = 0; f < nf; ++f) {
    if (flow_demand_[f] <= 0.0 || CrossesDeadLink(f)) {
      dead_[f] = 1;
      continue;
    }
    const double w = flow_weight_[f];
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
      link_weight_[l] += w;
      ++link_flow_off_[l + 1];
    }
  }

  // Link -> live member flows, CSR, members ascending (counting sort over
  // flows in ascending order).
  for (size_t l = 0; l < nl; ++l) {
    link_flow_off_[l + 1] += link_flow_off_[l];
  }
  link_flow_ids_.resize(static_cast<size_t>(link_flow_off_[nl]));
  replay_order_.assign(link_flow_off_.begin(), link_flow_off_.end() - 1);
  for (size_t f = 0; f < nf; ++f) {
    if (dead_[f]) {
      continue;
    }
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
      link_flow_ids_[static_cast<size_t>(replay_order_[l]++)] = static_cast<int32_t>(f);
    }
  }
  extra_members_.resize(nl);
  for (auto& v : extra_members_) {
    v.clear();
  }
  overlay_count_ = 0;

  sat_round_.assign(nl, kNeverSat);
  RebuildFillState(0);
  cur_round_ = 0;

  // Trace reset: this full solve becomes the delta engine's new baseline.
  trace_level_.clear();
  trace_forced_.clear();
  trace_fixed_.clear();
  lw_init_ = link_weight_;
  unfixed_init_ = unfixed_;
  ckpt_count_ = 0;
  ckpt_stride_ = 1;
  last_ckpt_round_ = 0;

  flow_muts_.clear();
  cap_muts_.clear();
  scan_links_.clear();
  dirty_pos_.assign(nl, -1);
  force_full_ = false;
}

bool MaxMinSolver::CrossesDeadLink(size_t flow) const {
  for (int32_t i = flow_link_off_[flow]; i < flow_link_off_[flow + 1]; ++i) {
    const int32_t l = flow_link_ids_[static_cast<size_t>(i)];
    if (l < 0 || static_cast<size_t>(l) >= num_links_ ||
        capacities_[static_cast<size_t>(l)] <= 0.0) {
      return true;
    }
  }
  return false;
}

// Derives the fill state at the entry of |round| from the canonical arrays
// (dead_, fix_round_, residual_, link_weight_, sat_round_): flows fixed in
// an earlier round stay fixed, dead flows settle at rate 0, and every other
// flow is unfixed. Rebuilds the fixed flags, the unfixed counts, the member
// cursors, the two demand heaps (entries pushed in ascending flow order)
// and the active link set with its dense SoA mirrors. A link is active
// while its unfixed-member weight is nonzero; links with weight in
// (0, kMinWeight] stay active (the reference still charges them) but never
// pin the level.
void MaxMinSolver::RebuildFillState(size_t round) {
  const size_t nl = num_links_;
  const int32_t r32 = static_cast<int32_t>(round);
  unfixed_ = 0;
  link_unfixed_.assign(nl, 0);
  link_cursor_.assign(link_flow_off_.begin(), link_flow_off_.end() - 1);
  heap_level_.clear();
  heap_fix_.clear();
  for (size_t f = 0; f < num_flows_; ++f) {
    if (dead_[f]) {
      fixed_[f] = 1;
      fix_round_[f] = kDeadRound;
      rates_[f] = 0.0;
      continue;
    }
    if (fix_round_[f] < r32) {
      fixed_[f] = 1;
      continue;
    }
    fixed_[f] = 0;
    fix_round_[f] = kNeverFixed;
    ++unfixed_;
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      ++link_unfixed_[static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)])];
    }
    const double w = flow_weight_[f];
    const double d = flow_demand_[f];
    heap_level_.emplace_back(d / w, static_cast<int32_t>(f));
    heap_fix_.emplace_back((d - DemandTol(d)) / w, static_cast<int32_t>(f));
  }
  std::make_heap(heap_level_.begin(), heap_level_.end(), HeapGreater{});
  std::make_heap(heap_fix_.begin(), heap_fix_.end(), HeapGreater{});

  active_links_.clear();
  active_pos_.assign(nl, -1);
  act_res_.clear();
  act_lw_.clear();
  act_thr_.clear();
  act_unfixed_.clear();
  act_satrec_.clear();
  for (size_t l = 0; l < nl; ++l) {
    if (link_weight_[l] > 0.0) {
      active_pos_[l] = static_cast<int32_t>(active_links_.size());
      active_links_.push_back(static_cast<int32_t>(l));
      act_res_.push_back(residual_[l]);
      act_lw_.push_back(link_weight_[l]);
      act_thr_.push_back(capacities_[l] * 1e-12 + kEps);
      act_unfixed_.push_back(link_unfixed_[l]);
      act_satrec_.push_back(sat_round_[l] != kNeverSat ? 1 : 0);
    }
  }

  candidates_.clear();
  candidate_epoch_.assign(num_flows_, 0);
  epoch_ = 0;
}

void MaxMinSolver::RemoveActiveLink(size_t pos) {
  const size_t l = static_cast<size_t>(active_links_[pos]);
  residual_[l] = act_res_[pos];
  link_weight_[l] = act_lw_[pos];
  active_pos_[l] = -1;
  const size_t last = active_links_.size() - 1;
  if (pos != last) {
    active_links_[pos] = active_links_[last];
    act_res_[pos] = act_res_[last];
    act_lw_[pos] = act_lw_[last];
    act_thr_[pos] = act_thr_[last];
    act_unfixed_[pos] = act_unfixed_[last];
    act_satrec_[pos] = act_satrec_[last];
    active_pos_[static_cast<size_t>(active_links_[pos])] = static_cast<int32_t>(pos);
  }
  active_links_.pop_back();
  act_res_.pop_back();
  act_lw_.pop_back();
  act_thr_.pop_back();
  act_unfixed_.pop_back();
  act_satrec_.pop_back();
}

double MaxMinSolver::ResidualOf(size_t link) const {
  const int32_t pos = active_pos_[link];
  return pos >= 0 ? act_res_[static_cast<size_t>(pos)] : residual_[link];
}

double MaxMinSolver::LinkWeightOf(size_t link) const {
  const int32_t pos = active_pos_[link];
  return pos >= 0 ? act_lw_[static_cast<size_t>(pos)] : link_weight_[link];
}

// Fixes |flow| in the current round at the reference's rate min(level*w, d)
// and drains its weight from every link it crosses.
void MaxMinSolver::FixFlow(int32_t flow, double level) {
  const size_t f = static_cast<size_t>(flow);
  const double w = flow_weight_[f];
  rates_[f] = std::min(level * w, flow_demand_[f]);
  fixed_[f] = 1;
  fix_round_[f] = static_cast<int32_t>(cur_round_);
  --unfixed_;
  ++fixed_this_round_;
  for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
    const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
    --link_unfixed_[l];  // Only live flows reach here, so every link is valid.
    const int32_t pos = active_pos_[l];
    if (pos >= 0) {
      --act_unfixed_[static_cast<size_t>(pos)];
      double& lw = act_lw_[static_cast<size_t>(pos)];
      lw -= w;
      if (lw < 0.0) {
        lw = 0.0;
      }
      // Exact-zero drain: subtracting back every double that was added
      // returns the sum to exactly 0.0; only then may the link leave the
      // active set, so rounding dust can never pin the water level on a
      // memberless link.
      if (lw == 0.0) {  // mihn-check: float-eq-ok(exact-zero drain rule, DESIGN.md §5)
        RemoveActiveLink(static_cast<size_t>(pos));
      }
    } else {
      link_weight_[l] -= w;
      if (link_weight_[l] < 0.0) {
        link_weight_[l] = 0.0;
      }
    }
  }
}

// Opens round cur_round_ at |level|: stores a checkpoint when one is due.
void MaxMinSolver::CheckpointRound(double level) {
  if (ckpt_count_ != 0 && cur_round_ - last_ckpt_round_ < ckpt_stride_) {
    return;
  }
  if (ckpt_count_ == ckpts_.size()) {
    ckpts_.emplace_back();
  }
  Checkpoint& c = ckpts_[ckpt_count_];
  c.round = cur_round_;
  c.level = level;
  c.res = residual_;
  c.lw = link_weight_;
  for (size_t i = 0; i < active_links_.size(); ++i) {
    const size_t l = static_cast<size_t>(active_links_[i]);
    c.res[l] = act_res_[i];
    c.lw[l] = act_lw_[i];
  }
  ++ckpt_count_;
  last_ckpt_round_ = cur_round_;
  if (ckpt_count_ > kMaxCheckpoints) {
    // Stride-doubling compaction: keep every second checkpoint (round 0
    // always survives) so the pool stays O(kMaxCheckpoints) regardless of
    // round count.
    const size_t kept = (ckpt_count_ + 1) / 2;
    for (size_t i = 1; i < kept; ++i) {
      std::swap(ckpts_[i], ckpts_[2 * i]);
    }
    ckpt_count_ = kept;
    ckpt_stride_ *= 2;
    last_ckpt_round_ = ckpts_[kept - 1].round;
  }
}

// Closes round cur_round_: appends it to the retained trace.
void MaxMinSolver::RecordRound(double level, bool forced) {
  trace_level_.push_back(level);
  trace_forced_.push_back(forced ? 1 : 0);
  trace_fixed_.push_back(static_cast<int32_t>(fixed_this_round_));
  ++cur_round_;
}

// The link-side half of the forced-fix bound: every active link that still
// bounds an unfixed flow (weight above kMinWeight, an unfixed member), with
// its term level + residual/weight.
void MaxMinSolver::GatherBoundLinks(double level) {
  bound_links_.clear();
  bound_terms_.clear();
  for (size_t i = 0; i < active_links_.size(); ++i) {
    if (act_lw_[i] > kMinWeight && act_unfixed_[i] > 0) {
      bound_links_.push_back(active_links_[i]);
      bound_terms_.push_back(level + act_res_[i] / act_lw_[i]);
    }
  }
}

// Lowest-index unfixed member of |link|, or -1. Its member CSR ascends with
// overlay slots above it, and fixing is monotone within a solve, so the
// cursor past the fixed prefix answers in amortized O(1).
int32_t MaxMinSolver::LowestUnfixedMember(size_t link) {
  int32_t& cur = link_cursor_[link];
  while (cur < link_flow_off_[link + 1] &&
         fixed_[static_cast<size_t>(link_flow_ids_[static_cast<size_t>(cur)])]) {
    ++cur;
  }
  if (cur < link_flow_off_[link + 1]) {
    return link_flow_ids_[static_cast<size_t>(cur)];
  }
  for (const int32_t f : extra_members_[link]) {
    if (!fixed_[static_cast<size_t>(f)]) {
      return f;
    }
  }
  return -1;
}

// The flow the reference's forced-fix guard would select: the lowest-index
// unfixed flow whose constraint bound min(d/w, min over its weighted links
// of level + residual/link_weight) is globally minimal.
//
// The reference recomputes that bound for every unfixed flow — O(F × L) per
// forced round, which degenerates badly in the stall regime (a drained
// link's weight dust pins the water level, so every remaining flow is
// force-fixed one per round). This computes the identical argmin from the
// link-side bound set (GatherBoundLinks, or the tail's incremental copy of
// it) plus the demand heap: every unfixed flow's link terms are drawn from
// that set, so the global bound minimum is
//
//   B = min( min over unfixed flows of d/w,        — heap_level_'s top
//            min over bound links of their term )
//
// and since no unfixed flow holds a term below B, a flow's bound equals B
// exactly when one of its terms equals B. The reference's strict-less scan
// returns the lowest index among those flows: the minimum of heap_level_'s
// key ties and each B-achieving link's lowest-index unfixed member.
int32_t MaxMinSolver::ForcedArgmin() {
  const double kInf = std::numeric_limits<double>::infinity();
  while (!heap_level_.empty() && fixed_[static_cast<size_t>(heap_level_.front().second)]) {
    HeapPop(heap_level_);
  }
  const double b_key = heap_level_.empty() ? kInf : heap_level_.front().first;
  double b_link = kInf;
  for (const double t : bound_terms_) {
    b_link = t < b_link ? t : b_link;
  }
  const double best = b_key < b_link ? b_key : b_link;
  if (!std::isfinite(best)) {
    return -1;  // Every remaining bound is infinite: the reference scan
                // selects nothing and the unconstrained-tail rule takes over.
  }
  int32_t argmin = -1;
  if (b_key == best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
    // Pop every key tie (lowest index may be any of them), then push the
    // entries back so each unfixed flow keeps its demand-ceiling entry.
    mut_fix_scratch_.clear();
    while (!heap_level_.empty()) {
      const HeapEntry top = heap_level_.front();
      if (fixed_[static_cast<size_t>(top.second)]) {
        HeapPop(heap_level_);
        continue;
      }
      if (top.first != best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
        break;
      }
      HeapPop(heap_level_);
      mut_fix_scratch_.push_back(top.second);
      if (argmin < 0 || top.second < argmin) {
        argmin = top.second;
      }
    }
    for (const int32_t f : mut_fix_scratch_) {
      HeapPush(heap_level_, best, f);
    }
    mut_fix_scratch_.clear();
  }
  if (b_link == best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
    for (size_t i = 0; i < bound_terms_.size(); ++i) {
      if (bound_terms_[i] != best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
        continue;
      }
      const int32_t cand = LowestUnfixedMember(static_cast<size_t>(bound_links_[i]));
      if (cand >= 0 && (argmin < 0 || cand < argmin)) {
        argmin = cand;
      }
    }
  }
  return argmin;
}

// Proves the water level can never move again, so every remaining round is a
// forced fix at exactly `level`. Called only after a forced round whose delta
// was exactly 0.0. The three conditions:
//
//  (1) A permanent pin exists: an active link with weight above kMinWeight,
//      residual exactly 0.0 and no unfixed members. Its saturation term is
//      level + 0.0/lw == level, it is never drained again (drains come from
//      fixing its members, all fixed) and never leaves the active set, so
//      next_level <= level forever. Every other link term is level + q with
//      q >= 0 (residuals are clamped nonnegative), hence >= level.
//  (2) No saturated active link carries an unfixed member, so the gather
//      never produces a candidate again: residuals are frozen by (1)+(3),
//      meaning no link ever newly saturates and member counts only fall.
//  (3) The cheapest unfixed demand key in heap_fix_, (d - tol)/w, exceeds
//      the frozen harvest bound level*(1+kFixSlack), so the harvest never
//      pops a candidate again — and it follows that d > level*w for every
//      unfixed flow, so heap_level_'s keys d/w all exceed level and can
//      never set a next_level below it.
//
// Together: next_level == level and zero natural fixes in every remaining
// round, i.e. each one takes the forced-fix guard at this exact level.
bool MaxMinSolver::TailPinned(double level) {
  if (!(level >= 0.0)) {
    return false;
  }
  bool pinned = false;
  const size_t na = active_links_.size();
  for (size_t i = 0; i < na; ++i) {
    if (act_res_[i] <= act_thr_[i] && act_unfixed_[i] > 0) {
      return false;  // A saturated link could still bottleneck-fix naturally.
    }
    if (act_lw_[i] > kMinWeight && act_res_[i] == 0.0 &&  // mihn-check: float-eq-ok(exact pin-term proof)
        act_unfixed_[i] == 0) {
      pinned = true;
    }
  }
  if (!pinned) {
    return false;
  }
  while (!heap_fix_.empty() && fixed_[static_cast<size_t>(heap_fix_.front().second)]) {
    HeapPop(heap_fix_);
  }
  return heap_fix_.empty() || heap_fix_.front().first > level * (1.0 + kFixSlack);
}

// The frozen-level tail: rounds degenerate to "forced-fix the reference's
// argmin, at rate min(level*w, d)". Skips the next-level scan (== level),
// the residual charge (delta is 0.0, bitwise a no-op), the harvest and the
// gather (both provably empty, see TailPinned) while emitting the identical
// trace rounds, fix rounds and checkpoints the general loop would. The
// link-side bound set is gathered once and then kept equal to what
// GatherBoundLinks would return, by refreshing only the links each fix
// drains, so the per-round sweep over fully-fixed and dust slots goes away.
void MaxMinSolver::RunTailRounds(double level) {
  GatherBoundLinks(level);
  tail_pos_.assign(num_links_, -1);
  for (size_t i = 0; i < bound_links_.size(); ++i) {
    tail_pos_[static_cast<size_t>(bound_links_[i])] = static_cast<int32_t>(i);
  }
  while (unfixed_ > 0) {
    CheckpointRound(level);
    fixed_this_round_ = 0;
    const int32_t argmin = ForcedArgmin();
    if (argmin < 0) {
      break;  // Same exit as the general loop: unconstrained-tail rule.
    }
    FixFlow(argmin, level);
    const size_t af = static_cast<size_t>(argmin);
    for (int32_t i = flow_link_off_[af]; i < flow_link_off_[af + 1]; ++i) {
      const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
      const int32_t tp = tail_pos_[l];
      if (tp < 0) {
        continue;
      }
      const int32_t pos = active_pos_[l];
      if (pos >= 0 && act_lw_[static_cast<size_t>(pos)] > kMinWeight &&
          act_unfixed_[static_cast<size_t>(pos)] > 0) {
        bound_terms_[static_cast<size_t>(tp)] =
            level + act_res_[static_cast<size_t>(pos)] / act_lw_[static_cast<size_t>(pos)];
        continue;
      }
      // Out of unfixed members or drained to dust: leave the bound set.
      const size_t tl = bound_links_.size() - 1;
      if (static_cast<size_t>(tp) != tl) {
        bound_links_[static_cast<size_t>(tp)] = bound_links_[tl];
        bound_terms_[static_cast<size_t>(tp)] = bound_terms_[tl];
        tail_pos_[static_cast<size_t>(bound_links_[tl])] = tp;
      }
      bound_links_.pop_back();
      bound_terms_.pop_back();
      tail_pos_[l] = -1;
    }
    RecordRound(level, /*forced=*/true);
  }
}

void MaxMinSolver::RunRounds(double level, size_t start_round) {
  cur_round_ = start_round;
  while (unfixed_ > 0) {
    CheckpointRound(level);

    // Next water level: min over active link saturation terms and the lazy
    // demand-ceiling heap. IEEE min over the same candidate set is
    // order-independent — associative and commutative with no NaNs in play —
    // so scanning the dense mirrors instead of all links (the reference's
    // loop), four independent accumulators wide, yields the identical
    // double while the divisions pipeline instead of serializing behind one
    // compare chain.
    const double kInf = std::numeric_limits<double>::infinity();
    const size_t na = act_lw_.size();
    const double* lw_v = act_lw_.data();
    const double* res_v = act_res_.data();
    double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
    size_t sp = 0;
    for (; sp + 4 <= na; sp += 4) {
      const double t0 = lw_v[sp] > kMinWeight ? level + res_v[sp] / lw_v[sp] : kInf;
      const double t1 = lw_v[sp + 1] > kMinWeight ? level + res_v[sp + 1] / lw_v[sp + 1] : kInf;
      const double t2 = lw_v[sp + 2] > kMinWeight ? level + res_v[sp + 2] / lw_v[sp + 2] : kInf;
      const double t3 = lw_v[sp + 3] > kMinWeight ? level + res_v[sp + 3] / lw_v[sp + 3] : kInf;
      m0 = t0 < m0 ? t0 : m0;
      m1 = t1 < m1 ? t1 : m1;
      m2 = t2 < m2 ? t2 : m2;
      m3 = t3 < m3 ? t3 : m3;
    }
    for (; sp < na; ++sp) {
      const double t = lw_v[sp] > kMinWeight ? level + res_v[sp] / lw_v[sp] : kInf;
      m0 = t < m0 ? t : m0;
    }
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    double next_level = m2 < m0 ? m2 : m0;
    while (!heap_level_.empty() && fixed_[static_cast<size_t>(heap_level_.front().second)]) {
      HeapPop(heap_level_);
    }
    if (!heap_level_.empty() && heap_level_.front().first < next_level) {
      next_level = heap_level_.front().first;
    }
    if (!std::isfinite(next_level)) {
      break;
    }

    // Charge every active link for the rate growth (plain vectorizable
    // loop; inactive links all carry exactly zero weight, so skipping them
    // is exact).
    const double delta = next_level - level;
    double* res_w = act_res_.data();
    for (size_t j = 0; j < na; ++j) {
      res_w[j] -= delta * lw_v[j];
      if (res_w[j] < 0.0) {
        res_w[j] = 0.0;
      }
    }
    level = next_level;

    ++epoch_;
    candidates_.clear();
    replay_order_.clear();  // Scratch here: flows harvested from heap_fix_.
    fixed_this_round_ = 0;

    // Harvest at-demand candidates. Keys are conservative lower bounds, so
    // every flow whose exact at-demand test passes is popped here.
    const double harvest_bound = level * (1.0 + kFixSlack);
    while (!heap_fix_.empty()) {
      const HeapEntry top = heap_fix_.front();
      if (fixed_[static_cast<size_t>(top.second)]) {
        HeapPop(heap_fix_);
        continue;
      }
      if (top.first > harvest_bound) {
        break;
      }
      HeapPop(heap_fix_);
      replay_order_.push_back(top.second);
      if (candidate_epoch_[static_cast<size_t>(top.second)] != epoch_) {
        candidate_epoch_[static_cast<size_t>(top.second)] = epoch_;
        candidates_.push_back(top.second);
      }
    }

    // Gather members of saturated links (first-saturation rounds are
    // recorded for the delta engine's clean-link bottleneck checks).
    for (size_t i = 0; i < act_res_.size(); ++i) {
      if (act_res_[i] > act_thr_[i]) {
        continue;
      }
      if (!act_satrec_[i]) {
        const size_t sl = static_cast<size_t>(active_links_[i]);
        if (sat_round_[sl] == kNeverSat) {
          sat_round_[sl] = static_cast<int32_t>(cur_round_);
        }
        act_satrec_[i] = 1;
      }
      if (act_unfixed_[i] == 0) {
        // Every member is already fixed; the scan below would reject each
        // one, so skipping it is exact. A drained link lingering in the
        // active set on weight dust otherwise rescans its full member list
        // every round for the rest of the solve.
        continue;
      }
      const size_t l = static_cast<size_t>(active_links_[i]);
      for (int32_t m = link_flow_off_[l]; m < link_flow_off_[l + 1]; ++m) {
        const int32_t f = link_flow_ids_[static_cast<size_t>(m)];
        if (!fixed_[static_cast<size_t>(f)] && candidate_epoch_[static_cast<size_t>(f)] != epoch_) {
          candidate_epoch_[static_cast<size_t>(f)] = epoch_;
          candidates_.push_back(f);
        }
      }
      for (const int32_t f : extra_members_[l]) {
        if (!fixed_[static_cast<size_t>(f)] && candidate_epoch_[static_cast<size_t>(f)] != epoch_) {
          candidate_epoch_[static_cast<size_t>(f)] = epoch_;
          candidates_.push_back(f);
        }
      }
    }

    // Fix in ascending flow order — the reference's iteration order, which
    // the weight-drain arithmetic must replicate exactly.
    std::sort(candidates_.begin(), candidates_.end());
    for (const int32_t fc : candidates_) {
      const size_t f = static_cast<size_t>(fc);
      if (fixed_[f]) {
        continue;
      }
      const double w = flow_weight_[f];
      const double d = flow_demand_[f];
      const bool at_demand = level * w >= d - DemandTol(d);
      bool bottlenecked = false;
      if (!at_demand) {
        for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
          const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
          if (ResidualOf(l) <= capacities_[l] * 1e-12 + kEps) {
            bottlenecked = true;
            break;
          }
        }
      }
      if (at_demand || bottlenecked) {
        FixFlow(fc, level);
      }
    }

    // Push over-harvested flows back (same key derivation; demands are
    // immutable during a solve).
    for (const int32_t f : replay_order_) {
      if (!fixed_[static_cast<size_t>(f)]) {
        const double d = flow_demand_[static_cast<size_t>(f)];
        HeapPush(heap_fix_, (d - DemandTol(d)) / flow_weight_[static_cast<size_t>(f)], f);
      }
    }

    // Termination guard, identical to the reference: if dust prevented any
    // fix, force-fix the flow whose constraint set the water level (see
    // ForcedArgmin for why the cheap selection is exact).
    const bool forced = fixed_this_round_ == 0;
    if (forced) {
      GatherBoundLinks(level);
      const int32_t argmin = ForcedArgmin();
      if (argmin < 0) {
        break;
      }
      FixFlow(argmin, level);
    }
    RecordRound(level, forced);

    // Stall-tail fast path: a forced round that did not move the water
    // level may prove the level frozen for the rest of the solve (see
    // TailPinned), after which every remaining round is a forced fix at
    // this exact level and the per-round scan/charge/harvest/gather sweeps
    // are provably no-ops.
    if (forced && delta == 0.0 &&  // mihn-check: float-eq-ok(frozen-level tail detection)
        unfixed_ > 0 && TailPinned(level)) {
      RunTailRounds(level);
      break;
    }
  }

  // Sync mirrors back so the sparse arrays are canonical between solves.
  for (size_t i = 0; i < active_links_.size(); ++i) {
    const size_t l = static_cast<size_t>(active_links_[i]);
    residual_[l] = act_res_[i];
    link_weight_[l] = act_lw_[i];
  }
  // Unconstrained-tail rule: a flow no finite bound ever fixed runs at its
  // demand.
  for (size_t f = 0; f < num_flows_; ++f) {
    if (!fixed_[f]) {
      rates_[f] = flow_demand_[f];
    }
  }
}

// ---------------------------------------------------------------------------
// Retained-problem mutators
// ---------------------------------------------------------------------------

MaxMinSolver::FlowMut* MaxMinSolver::FindMut(int32_t flow) {
  for (FlowMut& m : flow_muts_) {
    if (m.flow == flow) {
      return &m;
    }
  }
  return nullptr;
}

MaxMinSolver::FlowMut& MaxMinSolver::MutFor(int32_t flow) {
  if (FlowMut* m = FindMut(flow)) {
    return *m;
  }
  const size_t f = static_cast<size_t>(flow);
  return NewMut(flow, flow_demand_[f], !dead_[f]);
}

// Records |flow|'s pre-mutation image: its current weight, demand |d_old|
// and liveness |alive_old| in the retained solve.
MaxMinSolver::FlowMut& MaxMinSolver::NewMut(int32_t flow, double d_old, bool alive_old) {
  FlowMut m;
  m.flow = flow;
  m.w_old = flow_weight_[static_cast<size_t>(flow)];
  m.d_old = d_old;
  m.key_old = d_old / m.w_old;
  m.alive_old = alive_old;
  m.fix_round_new = kNeverFixed;
  flow_muts_.push_back(m);
  return flow_muts_.back();
}

void MaxMinSolver::UpdateCapacity(int32_t link, double capacity) {
  core::MutexLock lock(&mu_);
  if (link < 0 || static_cast<size_t>(link) >= num_links_) {
    return;
  }
  const size_t l = static_cast<size_t>(link);
  if (!primed_) {
    capacities_[l] = capacity;
    return;
  }
  const double old_cap = capacities_[l];
  if (old_cap == capacity) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  if (dirty_pos_[l] < 0) {
    dirty_pos_[l] = static_cast<int32_t>(cap_muts_.size());
    cap_muts_.emplace_back(link, old_cap);
  }
  // Crossing zero kills or revives every member flow (the dead-flow rule);
  // liveness flips restructure the problem, so take the full path.
  if ((old_cap <= 0.0) != (capacity <= 0.0)) {
    force_full_ = true;
  }
  capacities_[l] = capacity;
}

void MaxMinSolver::UpdateFlowDemand(int32_t flow, double demand) {
  core::MutexLock lock(&mu_);
  if (flow < 0 || static_cast<size_t>(flow) >= num_flows_) {
    return;
  }
  const size_t f = static_cast<size_t>(flow);
  if (!primed_) {
    flow_demand_[f] = demand;
    return;
  }
  if (flow_demand_[f] == demand) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  // A flow crossing an invalid or zero-capacity link is dead at ANY demand:
  // both worlds agree on that, so a demand write needs no mutation record.
  const bool link_dead = CrossesDeadLink(f);
  if (link_dead && dead_[f] && FindMut(flow) == nullptr) {
    flow_demand_[f] = demand;
    return;
  }
  FlowMut& m = MutFor(flow);
  const uint8_t new_dead = (link_dead || demand <= 0.0) ? 1 : 0;
  if (!new_dead && !m.alive_old) {
    // Revive of a flow dead at the retained baseline: its weight re-enters
    // every link it crosses, including links absent from the member index
    // built at the last full prime — full path.
    force_full_ = true;
  }
  if (new_dead != dead_[f]) {
    // Liveness flip relative to the current batch state (tombstone via
    // demand, or revive of a flow removed earlier in this same batch):
    // weight moves on every crossed link.
    m.links_dirty = true;
  }
  dead_[f] = new_dead;
  flow_demand_[f] = demand;
}

void MaxMinSolver::UpdateFlowWeight(int32_t flow, double weight) {
  core::MutexLock lock(&mu_);
  if (flow < 0 || static_cast<size_t>(flow) >= num_flows_) {
    return;
  }
  const size_t f = static_cast<size_t>(flow);
  const double w = std::max(weight, kMinWeight);
  if (flow_weight_[f] == w) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  if (!primed_) {
    flow_weight_[f] = w;
    return;
  }
  if (dead_[f] && FindMut(flow) == nullptr) {
    // Dead in both worlds (dead at the baseline, untouched this batch): its
    // weight is invisible to the allocation. A later revive forces the full
    // path and picks the new weight up from flow_weight_.
    flow_weight_[f] = w;
    return;
  }
  FlowMut& m = MutFor(flow);
  m.links_dirty = true;
  flow_weight_[f] = w;
}

int32_t MaxMinSolver::AddFlowRetained(double weight, double demand, const int32_t* links,
                                      size_t count) {
  core::MutexLock lock(&mu_);
  if (!primed_) {
    return AddFlowLocked(weight, demand, links, count);
  }
  const int32_t slot = AddFlowLocked(weight, demand, links, count);
  const size_t f = static_cast<size_t>(slot);
  // Extend the per-flow solve-state arrays the last prime sized.
  rates_.push_back(0.0);
  fixed_.push_back(1);
  const bool dead = flow_demand_[f] <= 0.0 || CrossesDeadLink(f);
  dead_.push_back(dead ? 1 : 0);
  fix_round_.push_back(dead ? kDeadRound : kNeverFixed);
  candidate_epoch_.push_back(0);
  if (!dead) {
    // Overlay membership: slots appended here are all above the CSR range
    // and registered in ascending order, preserving the flow-ascending
    // member iteration the weight arithmetic depends on.
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      extra_members_[static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)])].push_back(slot);
      ++overlay_count_;
    }
  }
  // Did not exist in the retained solve: old demand 0, not alive.
  NewMut(slot, 0.0, false).links_dirty = true;
  return slot;
}

void MaxMinSolver::RemoveFlowRetained(int32_t flow) {
  core::MutexLock lock(&mu_);
  if (flow < 0 || static_cast<size_t>(flow) >= num_flows_) {
    return;
  }
  const size_t f = static_cast<size_t>(flow);
  if (!primed_) {
    flow_demand_[f] = 0.0;
    return;
  }
  if (dead_[f] && FindMut(flow) == nullptr) {
    flow_demand_[f] = 0.0;  // Already dead in both worlds.
    return;
  }
  FlowMut& m = MutFor(flow);
  if (m.alive_old || !dead_[f]) {
    m.links_dirty = true;
  }
  dead_[f] = 1;
  flow_demand_[f] = 0.0;
}

// ---------------------------------------------------------------------------
// Delta dispatch
// ---------------------------------------------------------------------------

// Net change in live flows the pending mutations make.
ptrdiff_t MaxMinSolver::LiveDelta() const {
  ptrdiff_t delta = 0;
  for (const FlowMut& m : flow_muts_) {
    delta += (dead_[static_cast<size_t>(m.flow)] ? 0 : 1) - (m.alive_old ? 1 : 0);
  }
  return delta;
}

bool MaxMinSolver::DeltaWorthScanning() const {
  if (trace_level_.empty()) {
    return false;  // Degenerate trace: nothing to replay against.
  }
  const size_t nf = num_flows_;
  const size_t nl = num_links_;
  if (flow_muts_.size() + cap_muts_.size() > nf / 8 + 8) {
    return false;
  }
  if (overlay_count_ > nf / 2 + 16) {
    return false;  // Overlay lists dominate the CSR: re-prime instead.
  }
  size_t est_dirty = cap_muts_.size();
  for (const FlowMut& m : flow_muts_) {
    if (m.links_dirty) {
      const size_t f = static_cast<size_t>(m.flow);
      est_dirty += static_cast<size_t>(flow_link_off_[f + 1] - flow_link_off_[f]);
    }
  }
  return est_dirty <= nl / 2 + 4;
}

const std::vector<double>& MaxMinSolver::SolveDelta() {
  core::MutexLock lock(&mu_);
  ++delta_solves_;
  delta_stats_ = DeltaStats{};
  delta_stats_.mutations = flow_muts_.size() + cap_muts_.size();
  delta_stats_.trace_rounds = trace_level_.size();
  delta_stats_.divergence_round = trace_level_.size() + 1;  // "None" sentinel.

  if (!primed_ || force_full_ || !DeltaWorthScanning()) {
    delta_stats_.fallback_full = true;
    ++delta_fallbacks_;
    return CommitLocked();  // Resets all mutation state via SetupFromInputs.
  }
  if (flow_muts_.empty() && cap_muts_.empty()) {
    delta_stats_.noop_splice = true;
    ++delta_noop_splices_;
    return rates_;
  }

  size_t divergence = 0;
  const bool clean = ScanTrace(&divergence);
  delta_stats_.dirty_links = scan_links_.size();
  if (clean) {
    SpliceNoDivergence(divergence);
    delta_stats_.noop_splice = true;
    ++delta_noop_splices_;
  } else {
    delta_stats_.divergence_round = divergence;
    ResumeFrom(divergence);  // Sets resumed_rounds / component_links.
  }

  // Consume the mutation batch.
  for (const ScanLink& s : scan_links_) {
    dirty_pos_[static_cast<size_t>(s.link)] = -1;
  }
  scan_links_.clear();
  flow_muts_.clear();
  cap_muts_.clear();
  return rates_;
}

// ---------------------------------------------------------------------------
// Trace scan
// ---------------------------------------------------------------------------

// One member flow of a dirty link, during the scan prime: records its
// old-world fix event on |s| and accumulates its new-world weight.
void MaxMinSolver::TakeMember(ScanLink& s, int32_t flow) {
  const size_t mf = static_cast<size_t>(flow);
  const FlowMut* mu = FindMut(flow);
  const bool old_live = mu ? mu->alive_old : (fix_round_[mf] != kDeadRound);
  if (old_live) {
    s.member_events.emplace_back(fix_round_[mf], flow);
    if (mu == nullptr) {
      ++s.clean_rem;
    }
  }
  if (!dead_[mf]) {
    s.lw_n += flow_weight_[mf];
  }
}

bool MaxMinSolver::FlowCrosses(int32_t flow, int32_t link) const {
  const size_t f = static_cast<size_t>(flow);
  const int32_t* lo = flow_link_ids_.data() + flow_link_off_[f];
  const int32_t* hi = flow_link_ids_.data() + flow_link_off_[f + 1];
  return std::binary_search(lo, hi, link);
}

bool MaxMinSolver::ScanTrace(size_t* divergence_round) {
  const size_t rounds = trace_level_.size();

  // Dirty link set: capacity mutations first (dirty_pos_ already maps their
  // links to matching indices), then every link of a weight/liveness-dirty
  // flow mutation.
  scan_links_.clear();
  for (const auto& [link, old_cap] : cap_muts_) {
    ScanLink s;
    s.link = link;
    s.cap_o = old_cap;
    s.cap_n = capacities_[static_cast<size_t>(link)];
    scan_links_.push_back(std::move(s));
  }
  for (const FlowMut& m : flow_muts_) {
    if (!m.links_dirty) {
      continue;
    }
    const size_t f = static_cast<size_t>(m.flow);
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      const int32_t l = flow_link_ids_[static_cast<size_t>(i)];
      if (l < 0 || static_cast<size_t>(l) >= num_links_) {
        continue;  // Invalid links carry no state; the flow is dead anyway.
      }
      if (dirty_pos_[static_cast<size_t>(l)] < 0) {
        dirty_pos_[static_cast<size_t>(l)] = static_cast<int32_t>(scan_links_.size());
        ScanLink s;
        s.link = l;
        s.cap_o = capacities_[static_cast<size_t>(l)];
        s.cap_n = s.cap_o;
        scan_links_.push_back(std::move(s));
      }
    }
  }

  // Prime each dirty link's two-world evolution state. The new-world initial
  // weight accumulates member weights in ascending flow order — the exact
  // accumulation order of SetupFromInputs — over CSR members then overlay
  // members (overlay slots are all above the CSR range).
  for (ScanLink& s : scan_links_) {
    const size_t l = static_cast<size_t>(s.link);
    s.thr_o = s.cap_o * 1e-12 + kEps;
    s.thr_n = s.cap_n * 1e-12 + kEps;
    s.res_o = s.cap_o;
    s.res_n = s.cap_n;
    s.lw_o = lw_init_[l];
    s.lw_n = 0.0;
    s.sat_o = false;
    s.sat_n = false;
    s.clean_rem = 0;
    s.sat_round_n = kNeverSat;
    s.member_events.clear();
    s.cursor = 0;
    for (int32_t m = link_flow_off_[l]; m < link_flow_off_[l + 1]; ++m) {
      TakeMember(s, link_flow_ids_[static_cast<size_t>(m)]);
    }
    for (const int32_t f : extra_members_[l]) {
      TakeMember(s, f);
    }
    std::sort(s.member_events.begin(), s.member_events.end());
    s.lw_init_n = s.lw_n;
  }
  for (FlowMut& m : flow_muts_) {
    m.fixed_new = false;
    m.rate_new = 0.0;
    m.fix_round_new = kNeverFixed;
  }

  ptrdiff_t unfixed_new = static_cast<ptrdiff_t>(unfixed_init_) + LiveDelta();

  const size_t ns = scan_links_.size();
  ckpt_dirty_res_.resize(ckpt_count_ * ns);
  ckpt_dirty_lw_.resize(ckpt_count_ * ns);
  size_t next_ckpt = 0;

  for (size_t r = 0; r < rounds; ++r) {
    const int32_t r32 = static_cast<int32_t>(r);

    // Capture the new-world entry state of every dirty link at each retained
    // checkpoint round, so surviving checkpoints can be re-pointed at the
    // mutated problem afterwards.
    while (next_ckpt < ckpt_count_ && ckpts_[next_ckpt].round == r) {
      for (size_t si = 0; si < ns; ++si) {
        ckpt_dirty_res_[next_ckpt * ns + si] = scan_links_[si].res_n;
        ckpt_dirty_lw_[next_ckpt * ns + si] = scan_links_[si].lw_n;
      }
      ++next_ckpt;
    }

    // Forced-fix rounds depend on global argmin state the scan does not
    // model; re-run from here.
    if (trace_forced_[r]) {
      *divergence_round = r;
      return false;
    }

    const double level = trace_level_[r];
    const double prev = r > 0 ? trace_level_[r - 1] : 0.0;

    // The water level is min(clean terms, dirty terms). The trace proves
    // min(clean, old_dirty) == level and clean terms are unchanged, so the
    // new level equals the old iff the dirty minima agree with it (see
    // DESIGN.md §5 for the case analysis).
    double old_min = std::numeric_limits<double>::infinity();
    double new_min = std::numeric_limits<double>::infinity();
    for (const ScanLink& s : scan_links_) {
      if (s.lw_o > kMinWeight) {
        const double t = prev + s.res_o / s.lw_o;
        old_min = t < old_min ? t : old_min;
      }
      if (s.lw_n > kMinWeight) {
        const double t = prev + s.res_n / s.lw_n;
        new_min = t < new_min ? t : new_min;
      }
    }
    for (const FlowMut& m : flow_muts_) {
      const size_t f = static_cast<size_t>(m.flow);
      if (m.alive_old && fix_round_[f] >= r32) {
        old_min = m.key_old < old_min ? m.key_old : old_min;
      }
      if (!dead_[f] && !m.fixed_new) {
        const double t = flow_demand_[f] / flow_weight_[f];
        new_min = t < new_min ? t : new_min;
      }
    }
    if (new_min < level || (new_min > level && old_min <= level)) {
      *divergence_round = r;
      return false;
    }

    // Charge both worlds and track saturation. A saturation flip on a link
    // that still carries unfixed clean members changes their fix decisions —
    // divergence.
    const double delta = level - prev;
    bool sat_flip_diverges = false;
    for (ScanLink& s : scan_links_) {
      s.res_o -= delta * s.lw_o;
      if (s.res_o < 0.0) {
        s.res_o = 0.0;
      }
      s.res_n -= delta * s.lw_n;
      if (s.res_n < 0.0) {
        s.res_n = 0.0;
      }
      s.sat_o = s.res_o <= s.thr_o;
      s.sat_n = s.res_n <= s.thr_n;
      if (s.sat_n && s.sat_round_n == kNeverSat) {
        s.sat_round_n = r32;
      }
      if (s.sat_o != s.sat_n && s.clean_rem > 0) {
        sat_flip_diverges = true;
      }
    }
    if (sat_flip_diverges) {
      *divergence_round = r;
      return false;
    }

    // New-world fix decisions for the mutated flows (the reference's exact
    // conditions; dirty links use the evolved sat_n, clean links saturate at
    // the same round in both worlds).
    int32_t mut_fixes = 0;
    for (FlowMut& m : flow_muts_) {
      const size_t f = static_cast<size_t>(m.flow);
      if (dead_[f] || m.fixed_new) {
        continue;
      }
      const double w = flow_weight_[f];
      const double d = flow_demand_[f];
      const bool at_demand = level * w >= d - DemandTol(d);
      bool bottlenecked = false;
      if (!at_demand) {
        for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
          const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
          const int32_t dp = dirty_pos_[l];
          if (dp >= 0 ? scan_links_[static_cast<size_t>(dp)].sat_n : sat_round_[l] <= r32) {
            bottlenecked = true;
            break;
          }
        }
      }
      if (at_demand || bottlenecked) {
        m.fixed_new = true;
        m.rate_new = std::min(level * w, d);
        m.fix_round_new = r32;
        ++mut_fixes;
      }
    }

    // A demand-only mutation leaves its links clean only while the flow
    // fixes at the same round in both worlds; a shifted fix round shifts its
    // weight drain everywhere it goes.
    for (const FlowMut& m : flow_muts_) {
      if (m.links_dirty || !m.alive_old || dead_[static_cast<size_t>(m.flow)]) {
        continue;
      }
      const bool old_here = fix_round_[static_cast<size_t>(m.flow)] == r32;
      const bool new_here = m.fixed_new && m.fix_round_new == r32;
      if (old_here != new_here) {
        *divergence_round = r;
        return false;
      }
    }

    // Weight drains on dirty links, both worlds, each in ascending flow
    // order with the reference's per-subtraction clamp.
    for (ScanLink& s : scan_links_) {
      replay_order_.clear();
      while (s.cursor < s.member_events.size() && s.member_events[s.cursor].first == r32) {
        const int32_t f = s.member_events[s.cursor].second;
        const FlowMut* mu = FindMut(f);
        const double w_o = mu ? mu->w_old : flow_weight_[static_cast<size_t>(f)];
        s.lw_o -= w_o;
        if (s.lw_o < 0.0) {
          s.lw_o = 0.0;
        }
        if (mu == nullptr) {
          --s.clean_rem;
          replay_order_.push_back(f);
        }
        ++s.cursor;
      }
      for (const FlowMut& m : flow_muts_) {
        if (m.fixed_new && m.fix_round_new == r32 && FlowCrosses(m.flow, s.link)) {
          replay_order_.push_back(m.flow);
        }
      }
      std::sort(replay_order_.begin(), replay_order_.end());
      for (const int32_t f : replay_order_) {
        s.lw_n -= flow_weight_[static_cast<size_t>(f)];
        if (s.lw_n < 0.0) {
          s.lw_n = 0.0;
        }
      }
    }

    // Round accounting: the same clean flows fix in both worlds; a round
    // with zero new-world fixes would trip the forced-fix guard.
    int32_t old_mut_fixes = 0;
    for (const FlowMut& m : flow_muts_) {
      if (m.alive_old && fix_round_[static_cast<size_t>(m.flow)] == r32) {
        ++old_mut_fixes;
      }
    }
    const int32_t new_fixes = trace_fixed_[r] - old_mut_fixes + mut_fixes;
    if (new_fixes <= 0) {
      *divergence_round = r;
      return false;
    }
    unfixed_new -= new_fixes;
    if (unfixed_new <= 0) {
      *divergence_round = r + 1;  // Rounds confirmed; new world ends here.
      return true;
    }
  }

  if (unfixed_new > 0) {
    // The new world needs more rounds than the trace has.
    *divergence_round = rounds;
    return false;
  }
  *divergence_round = rounds;
  return true;
}

// ---------------------------------------------------------------------------
// Splice / resume
// ---------------------------------------------------------------------------

void MaxMinSolver::RepointRetainedState(size_t keep_rounds, bool keep_boundary_ckpt) {
  const int32_t kr32 = static_cast<int32_t>(keep_rounds);

  // trace_fixed_ must describe the *current* world: move every mutated
  // flow's fix from its old round to its new one (old fix rounds first —
  // the per-flow values are overwritten by the callers right after).
  for (const FlowMut& m : flow_muts_) {
    const int32_t old_fr = fix_round_[static_cast<size_t>(m.flow)];
    if (m.alive_old && old_fr >= 0 && old_fr < kr32) {
      --trace_fixed_[static_cast<size_t>(old_fr)];
    }
    if (m.fixed_new && m.fix_round_new < kr32) {
      ++trace_fixed_[static_cast<size_t>(m.fix_round_new)];
    }
  }

  // Keep (and re-point) the checkpoint prefix the scan captured.
  const size_t ns = scan_links_.size();
  size_t kept = 0;
  while (kept < ckpt_count_ &&
         (ckpts_[kept].round < keep_rounds ||
          (keep_boundary_ckpt && ckpts_[kept].round == keep_rounds))) {
    ++kept;
  }
  for (size_t ci = 0; ci < kept; ++ci) {
    for (size_t si = 0; si < ns; ++si) {
      const size_t l = static_cast<size_t>(scan_links_[si].link);
      ckpts_[ci].res[l] = ckpt_dirty_res_[ci * ns + si];
      ckpts_[ci].lw[l] = ckpt_dirty_lw_[ci * ns + si];
    }
  }
  ckpt_count_ = kept;
  if (kept > 0) {
    last_ckpt_round_ = ckpts_[kept - 1].round;
  } else {
    last_ckpt_round_ = 0;
  }

  // Saturation rounds beyond the kept prefix are no longer meaningful;
  // dirty links adopt their new-world saturation history.
  for (size_t l = 0; l < num_links_; ++l) {
    if (sat_round_[l] != kNeverSat && sat_round_[l] >= kr32) {
      sat_round_[l] = kNeverSat;
    }
  }
  for (const ScanLink& s : scan_links_) {
    const size_t l = static_cast<size_t>(s.link);
    sat_round_[l] = s.sat_round_n < kr32 ? s.sat_round_n : kNeverSat;
    lw_init_[l] = s.lw_init_n;
  }

  unfixed_init_ = static_cast<size_t>(static_cast<ptrdiff_t>(unfixed_init_) + LiveDelta());

  trace_level_.resize(keep_rounds);
  trace_forced_.resize(keep_rounds);
  trace_fixed_.resize(keep_rounds);
}

void MaxMinSolver::SpliceNoDivergence(size_t rounds_confirmed) {
  RepointRetainedState(rounds_confirmed, /*keep_boundary_ckpt=*/false);
  for (const FlowMut& m : flow_muts_) {
    const size_t f = static_cast<size_t>(m.flow);
    if (dead_[f]) {
      rates_[f] = 0.0;
      fixed_[f] = 1;
      fix_round_[f] = kDeadRound;
    } else if (m.fixed_new) {
      rates_[f] = m.rate_new;
      fixed_[f] = 1;
      fix_round_[f] = m.fix_round_new;
    } else {
      // Unreachable when the scan proved completion, kept total: the
      // unconstrained-tail rule.
      rates_[f] = flow_demand_[f];
      fixed_[f] = 0;
      fix_round_[f] = kNeverFixed;
    }
  }
}

void MaxMinSolver::ResumeFrom(size_t divergence_round) {
  // Largest retained checkpoint at or before the divergence; the scan has
  // captured new-world dirty-link state for every one of them.
  size_t ci = 0;
  while (ci + 1 < ckpt_count_ && ckpts_[ci + 1].round <= divergence_round) {
    ++ci;
  }
  const size_t resume_round = ckpts_[ci].round;
  const double resume_level = ckpts_[ci].level;

  RepointRetainedState(resume_round, /*keep_boundary_ckpt=*/true);

  // Splice mutation outcomes resolved before the resume point; everything
  // else re-runs (dead flows are settled below).
  const int32_t rr32 = static_cast<int32_t>(resume_round);
  for (const FlowMut& m : flow_muts_) {
    const size_t f = static_cast<size_t>(m.flow);
    if (m.fixed_new && m.fix_round_new < rr32) {
      rates_[f] = m.rate_new;
      fix_round_[f] = m.fix_round_new;
    } else {
      fix_round_[f] = kNeverFixed;
    }
  }

  // Restore the O(links) solver state from the (re-pointed) checkpoint and
  // the flow-side state from fix rounds: no per-flow floating-point state
  // to restore.
  residual_ = ckpts_[ci].res;
  link_weight_ = ckpts_[ci].lw;
  RebuildFillState(resume_round);
  delta_stats_.component_links = active_links_.size();

  RunRounds(resume_level, resume_round);
  delta_stats_.resumed_rounds = trace_level_.size() - resume_round;
}

}  // namespace mihn::fabric
