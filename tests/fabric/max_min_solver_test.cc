// Differential tests: MaxMinSolver (workspace + active-set engine) must
// reproduce SolveMaxMinReference bit-for-bit. Determinism of the allocator
// is a core invariant of the fabric — the optimised solver is only allowed
// to be faster, never different.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/fabric/max_min.h"
#include "src/sim/random.h"
#include "tests/support/max_min_reference.h"

namespace mihn::fabric {
namespace {

// Exact comparison: the solver is designed round-for-round arithmetic-
// identical to the reference, so even == should hold. Report the instance
// on mismatch.
void ExpectIdentical(const std::vector<double>& got, const std::vector<double>& want,
                     uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "flow " << i << " seed " << seed << " (diff "
                               << std::abs(got[i] - want[i]) << ")";
  }
}

struct Instance {
  std::vector<MaxMinFlow> flows;
  std::vector<double> caps;
};

// Random instances spanning the shapes the fabric produces: mixed elastic /
// capped demands, weight spread, duplicate and occasionally invalid link
// references, occasional zero-capacity links, occasional linkless flows.
Instance MakeRandomInstance(uint64_t seed) {
  sim::Rng rng(seed);
  Instance inst;
  const int num_links = static_cast<int>(rng.UniformInt(1, 24));
  const int num_flows = static_cast<int>(rng.UniformInt(1, 60));
  inst.caps.resize(static_cast<size_t>(num_links));
  for (auto& c : inst.caps) {
    c = rng.Bernoulli(0.05) ? 0.0 : rng.Uniform(1.0, 1000.0);
  }
  inst.flows.resize(static_cast<size_t>(num_flows));
  for (auto& f : inst.flows) {
    f.weight = rng.Bernoulli(0.1) ? rng.Uniform(1e-10, 1e-6) : rng.Uniform(0.1, 4.0);
    if (rng.Bernoulli(0.3)) {
      f.demand = kUnlimitedDemand;
    } else if (rng.Bernoulli(0.05)) {
      f.demand = rng.Uniform(0.0, 1e-6);  // Near-dead dust demands.
    } else {
      f.demand = rng.Uniform(0.0, 500.0);
    }
    if (rng.Bernoulli(0.03)) {
      continue;  // Linkless flow: must receive its demand.
    }
    const int nl = static_cast<int>(rng.UniformInt(1, std::min(num_links, 6)));
    for (int i = 0; i < nl; ++i) {
      f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, num_links - 1)));
    }
    if (rng.Bernoulli(0.05)) {
      f.links.push_back(f.links.front());  // Duplicate entry.
    }
    if (rng.Bernoulli(0.03)) {
      f.links.push_back(static_cast<int32_t>(num_links + 3));  // Invalid index.
    }
  }
  return inst;
}

TEST(MaxMinSolverDifferentialTest, MatchesReferenceOn1500RandomInstances) {
  // One persistent solver across all instances: also exercises workspace
  // reuse (a stale-scratch bug would show up as cross-instance bleed).
  MaxMinSolver solver;
  for (uint64_t seed = 1; seed <= 1500; ++seed) {
    const Instance inst = MakeRandomInstance(seed * 2654435761u);
    const std::vector<double> want = SolveMaxMinReference(inst.flows, inst.caps);
    const std::vector<double>& got = solver.Solve(inst.flows, inst.caps);
    ExpectIdentical(got, want, seed);
    if (HasFailure()) {
      return;  // One diverging instance is enough to debug.
    }
  }
}

TEST(MaxMinSolverDifferentialTest, MatchesReferenceOnTieHeavyInstances) {
  // Equal weights and equal demands produce many simultaneous fixings per
  // round — stresses the candidate-gathering path.
  MaxMinSolver solver;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed * 7919);
    const int num_links = static_cast<int>(rng.UniformInt(1, 8));
    const int num_flows = static_cast<int>(rng.UniformInt(2, 80));
    std::vector<double> caps(static_cast<size_t>(num_links), 100.0);
    std::vector<MaxMinFlow> flows(static_cast<size_t>(num_flows));
    const double shared_demand = rng.Bernoulli(0.5) ? kUnlimitedDemand : 7.25;
    for (auto& f : flows) {
      f.weight = 1.0;
      f.demand = shared_demand;
      const int nl = static_cast<int>(rng.UniformInt(1, num_links));
      for (int i = 0; i < nl; ++i) {
        f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, num_links - 1)));
      }
    }
    ExpectIdentical(solver.Solve(flows, caps), SolveMaxMinReference(flows, caps), seed);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(MaxMinSolverDifferentialTest, StructuredEdgeCases) {
  MaxMinSolver solver;
  const std::vector<Instance> cases = {
      // Empty.
      {{}, {100.0}},
      // No links at all.
      {{{1.0, 42.0, {}}}, {}},
      // Parking lot.
      {{{1.0, kUnlimitedDemand, {0, 1, 2, 3}},
        {1.0, kUnlimitedDemand, {1, 2, 3}},
        {1.0, kUnlimitedDemand, {2, 3}},
        {1.0, kUnlimitedDemand, {3}}},
       {12.0, 12.0, 12.0, 12.0}},
      // Zero-capacity and invalid links.
      {{{1.0, kUnlimitedDemand, {0, 1}}, {1.0, kUnlimitedDemand, {0}}, {1.0, 5.0, {9}}},
       {100.0, 0.0}},
      // Dust demands below the absolute fixing tolerance.
      {{{1.0, 1e-12, {0}}, {1.0, kUnlimitedDemand, {0}}, {1e-12, 3.0, {0}}}, {50.0}},
      // All flows dead.
      {{{1.0, 0.0, {0}}, {1.0, -3.0, {0}}}, {10.0}},
      // Demands exactly at the waterline of one another.
      {{{1.0, 25.0, {0}}, {1.0, 25.0, {0}}, {2.0, 50.0, {0}}}, {100.0}},
  };
  uint64_t i = 0;
  for (const Instance& inst : cases) {
    ExpectIdentical(solver.Solve(inst.flows, inst.caps),
                    SolveMaxMinReference(inst.flows, inst.caps), i++);
  }
}

TEST(MaxMinSolverTest, BatchApiMatchesOneShot) {
  const Instance inst = MakeRandomInstance(424242);
  MaxMinSolver batch;
  batch.Begin(inst.caps.size());
  for (size_t l = 0; l < inst.caps.size(); ++l) {
    batch.SetCapacity(static_cast<int32_t>(l), inst.caps[l]);
  }
  for (const MaxMinFlow& f : inst.flows) {
    batch.AddFlow(f.weight, f.demand, f.links.data(), f.links.size());
  }
  ExpectIdentical(batch.Commit(), SolveMaxMinReference(inst.flows, inst.caps), 424242);
}

TEST(MaxMinSolverTest, OneShotSolveServesLegacyShapes) {
  // The shape the retired SolveMaxMin free function used to serve: the
  // one-shot Solve() entry is its drop-in replacement.
  MaxMinSolver solver;
  const auto rates = solver.Solve(
      {{1.0, kUnlimitedDemand, {0}}, {1.0, kUnlimitedDemand, {0, 1}}, {1.0, kUnlimitedDemand, {1}}},
      {10.0, 4.0});
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
  EXPECT_DOUBLE_EQ(rates[2], 2.0);
  EXPECT_DOUBLE_EQ(rates[0], 8.0);
}

TEST(MaxMinSolverTest, ReportsFillingRounds) {
  MaxMinSolver solver;
  // Three distinct demand plateaus -> at least two filling rounds.
  solver.Solve({{1.0, 10.0, {0}}, {1.0, 20.0, {0}}, {1.0, kUnlimitedDemand, {0}}}, {100.0});
  EXPECT_GE(solver.last_rounds(), 2u);
}

}  // namespace
}  // namespace mihn::fabric
