// Fixture: production code that names the oracles only in comments — e.g.
// "bit-identical to SolveMaxMinReference", "the same contract as
// ReferenceSimulation" — uses the production engines, and carries one
// justified, suppressed mention. Checked as a src/ path.
#include <vector>

#include "src/fabric/max_min.h"
#include "src/sim/simulation.h"

namespace fixture {

std::vector<double> Allocate(const std::vector<mihn::fabric::MaxMinFlow>& flows,
                             const std::vector<double>& caps) {
  mihn::fabric::MaxMinSolver solver;
  return solver.Solve(flows, caps);
}

void RunScript() {
  mihn::sim::Simulation engine(7);
  engine.Run();
}

// mihn-check: drift-ok(fixture: a deliberate oracle mention)
using Oracle = mihn::sim::ReferenceSimulation;

}  // namespace fixture
