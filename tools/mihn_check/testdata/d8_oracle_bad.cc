// Fixture: production code reaching for the test-only oracles. Checked as a
// src/ path.
#include <vector>

#include "src/sim/simulation.h"

namespace fixture {

std::vector<double> Allocate(const std::vector<mihn::fabric::MaxMinFlow>& flows,
                             const std::vector<double>& caps) {
  return mihn::fabric::SolveMaxMinReference(flows, caps);  // BAD: oracle on a prod path.
}

void RunScript() {
  mihn::sim::ReferenceSimulation engine(7);  // BAD: oracle engine in production.
  engine.Run();
}

}  // namespace fixture
