// SolveMaxMinReference: the original progressive-filling solver, kept as the
// behavioural oracle for fabric::MaxMinSolver (the same role
// ReferenceSimulation plays for sim::Simulation). The solver must reproduce
// its rates bit-for-bit; tests/fabric/max_min_solver_test.cc and
// max_min_delta_test.cc check exact `==` on seeded instances, and
// bench_solver_scaling measures the gap. It lives in the test-support
// library so no production library carries it (mihn-check D8 bans the name
// under src/).

#ifndef MIHN_TESTS_SUPPORT_MAX_MIN_REFERENCE_H_
#define MIHN_TESTS_SUPPORT_MAX_MIN_REFERENCE_H_

#include <vector>

#include "src/fabric/max_min.h"

namespace mihn::fabric {

// O(F·L) per filling round. Same guarantees, argument conventions and
// dead-flow rule as MaxMinSolver::Solve.
std::vector<double> SolveMaxMinReference(const std::vector<MaxMinFlow>& flows,
                                         const std::vector<double>& capacities);

}  // namespace mihn::fabric

#endif  // MIHN_TESTS_SUPPORT_MAX_MIN_REFERENCE_H_
