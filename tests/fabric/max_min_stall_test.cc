// Stall-regime differential tests for MaxMinSolver.
//
// In the forced-fix stall regime a drained link's weight dust pins the
// water level, so the reference's termination guard force-fixes one flow
// per round. The solver answers those rounds with ForcedArgmin and, once
// the level provably freezes, with the frozen-level tail (TailPinned /
// RunTailRounds); the delta engine's trace scan diverges at the first
// forced round. The random instances of the other differential suites are
// too small to stall, so these two seeded instances, shaped like
// bench_solver_scaling's generator (weights U(0.5, 4), 20% elastic flows,
// 1-4 links each, few links), pin one case of each regime:
//
//  * 2000 flows x 4 links, seed 1: 990 rounds, rounds 6.. all forced, no
//    tail (984 forced rounds, none frozen).
//  * 2000 flows x 4 links, seed 8: 1009 rounds, round 18 forced, then a
//    990-round frozen-level tail.
//
// The round count and the first forced round are pinned so the tests prove
// they still run in their regime; the rates must equal the reference with
// exact ==, after the full solve and after single-flow demand deltas.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/fabric/max_min.h"
#include "src/sim/random.h"
#include "tests/support/max_min_reference.h"

namespace mihn::fabric {
namespace {

struct Instance {
  std::vector<MaxMinFlow> flows;
  std::vector<double> caps;
};

// The bench_solver_scaling population: distinct capped demands, a slice of
// elastic flows, paths of 1-4 links over a few fabric links.
Instance MakeBenchShaped(size_t num_flows, size_t num_links, uint64_t seed) {
  sim::Rng rng(seed);
  Instance inst;
  inst.caps.resize(num_links);
  for (auto& c : inst.caps) {
    c = rng.Uniform(1e9, 100e9);
  }
  inst.flows.resize(num_flows);
  for (auto& f : inst.flows) {
    f.weight = rng.Uniform(0.5, 4.0);
    f.demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
    const int nl = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < nl; ++i) {
      f.links.push_back(
          static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(num_links) - 1)));
    }
  }
  return inst;
}

void ExpectIdentical(const std::vector<double>& got, const std::vector<double>& want,
                     int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "flow " << i << " step " << step << " (diff "
                               << std::abs(got[i] - want[i]) << ")";
  }
}

struct StallCase {
  size_t flows;
  size_t links;
  uint64_t seed;
  size_t rounds;              // last_rounds() of every solve.
  size_t first_forced_round;  // Where every delta scan diverges.
};

void RunStallCase(const StallCase& c) {
  Instance inst = MakeBenchShaped(c.flows, c.links, c.seed);
  MaxMinSolver solver;
  solver.Begin(inst.caps.size());
  for (size_t l = 0; l < inst.caps.size(); ++l) {
    solver.SetCapacity(static_cast<int32_t>(l), inst.caps[l]);
  }
  for (const MaxMinFlow& f : inst.flows) {
    solver.AddFlow(f.weight, f.demand, f.links.data(), f.links.size());
  }
  ExpectIdentical(solver.Commit(), SolveMaxMinReference(inst.flows, inst.caps), -1);
  ASSERT_EQ(solver.last_rounds(), c.rounds);

  sim::Rng rng(c.seed + 1000);
  for (int step = 0; step < 4; ++step) {
    const size_t f = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(c.flows) - 1));
    const double demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
    inst.flows[f].demand = demand;
    solver.UpdateFlowDemand(static_cast<int32_t>(f), demand);
    ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(inst.flows, inst.caps), step);
    const MaxMinSolver::DeltaStats stats = solver.last_delta_stats();
    EXPECT_FALSE(stats.fallback_full) << "step " << step;
    EXPECT_FALSE(stats.noop_splice) << "step " << step;
    EXPECT_EQ(stats.divergence_round, c.first_forced_round) << "step " << step;
    EXPECT_EQ(solver.last_rounds(), c.rounds) << "step " << step;
  }
}

TEST(MaxMinStallTest, ForcedRoundsWithoutTailMatchReference) {
  RunStallCase({2000, 4, 1, 990, 6});
}

TEST(MaxMinStallTest, FrozenLevelTailMatchesReference) {
  RunStallCase({2000, 4, 8, 1009, 18});
}

}  // namespace
}  // namespace mihn::fabric
