// The original progressive-filling solver, kept as the behavioural oracle
// for MaxMinSolver (see max_min_reference.h). Every round rescans all flows
// and all links; correct and simple, but O(rounds × flows × links).

#include "tests/support/max_min_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mihn::fabric {

std::vector<double> SolveMaxMinReference(const std::vector<MaxMinFlow>& flows,
                                         const std::vector<double>& capacities) {
  const size_t nf = flows.size();
  const size_t nl = capacities.size();
  std::vector<double> rates(nf, 0.0);
  if (nf == 0) {
    return rates;
  }

  // Deduplicated link lists per flow (a flow crossing a link "twice" still
  // only consumes its rate once per direction-resource).
  std::vector<std::vector<int32_t>> flow_links(nf);
  for (size_t f = 0; f < nf; ++f) {
    flow_links[f] = flows[f].links;
    auto& ls = flow_links[f];
    std::sort(ls.begin(), ls.end());
    ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
  }

  std::vector<double> residual = capacities;
  std::vector<double> link_weight(nl, 0.0);  // Sum of weights of unfixed flows per link.
  std::vector<bool> fixed(nf, false);
  size_t unfixed = 0;

  for (size_t f = 0; f < nf; ++f) {
    const double w = std::max(flows[f].weight, 1e-12);
    bool dead = flows[f].demand <= 0.0;
    for (const int32_t l : flow_links[f]) {
      if (l < 0 || static_cast<size_t>(l) >= nl || capacities[static_cast<size_t>(l)] <= 0.0) {
        dead = true;
      }
    }
    if (dead) {
      fixed[f] = true;  // Rate stays 0.
      continue;
    }
    ++unfixed;
    for (const int32_t l : flow_links[f]) {
      link_weight[static_cast<size_t>(l)] += w;
    }
  }

  // Progressive filling: raise the common weight-normalized water level
  // until a link saturates or a flow hits its demand; fix those flows and
  // repeat on the residual network.
  double level = 0.0;  // Current weight-normalized rate of all unfixed flows.
  while (unfixed > 0) {
    // Next link saturation level.
    double next_level = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < nl; ++l) {
      if (link_weight[l] > 1e-12) {
        next_level = std::min(next_level, level + residual[l] / link_weight[l]);
      }
    }
    // Next demand-ceiling level.
    for (size_t f = 0; f < nf; ++f) {
      if (!fixed[f]) {
        const double w = std::max(flows[f].weight, 1e-12);
        next_level = std::min(next_level, flows[f].demand / w);
      }
    }
    if (!std::isfinite(next_level)) {
      // Every remaining flow crosses no (weighted) link and has infinite
      // demand, so no finite water level constrains it. Stop filling; the
      // loop after this one hands each such flow its (infinite) demand —
      // the network does not constrain flows it never carries.
      break;
    }

    // Advance the water level: charge every link for the rate growth.
    const double delta = next_level - level;
    for (size_t l = 0; l < nl; ++l) {
      residual[l] -= delta * link_weight[l];
      if (residual[l] < 0.0) {
        residual[l] = 0.0;  // Floating-point dust.
      }
    }
    level = next_level;

    // Fix flows that reached their demand or sit on a saturated link. The
    // demand comparison must use a tolerance *relative* to the demand:
    // level = demand/w then level*w can round to demand*(1 ± 1e-16), and an
    // absolute epsilon would leave the flow unfixable with delta == 0 — an
    // infinite loop.
    constexpr double kEps = 1e-9;
    size_t fixed_this_round = 0;
    auto fix_flow = [&](size_t f, double rate) {
      rates[f] = rate;
      fixed[f] = true;
      --unfixed;
      ++fixed_this_round;
      const double w = std::max(flows[f].weight, 1e-12);
      for (const int32_t l : flow_links[f]) {
        link_weight[static_cast<size_t>(l)] -= w;
        if (link_weight[static_cast<size_t>(l)] < 0.0) {
          link_weight[static_cast<size_t>(l)] = 0.0;
        }
      }
    };
    for (size_t f = 0; f < nf; ++f) {
      if (fixed[f]) {
        continue;
      }
      const double w = std::max(flows[f].weight, 1e-12);
      const double demand_tol = std::max(kEps, flows[f].demand * 1e-9);
      const bool at_demand = level * w >= flows[f].demand - demand_tol;
      bool bottlenecked = false;
      for (const int32_t l : flow_links[f]) {
        if (residual[static_cast<size_t>(l)] <= capacities[static_cast<size_t>(l)] * 1e-12 + kEps) {
          bottlenecked = true;
          break;
        }
      }
      if (at_demand || bottlenecked) {
        fix_flow(f, std::min(level * w, flows[f].demand));
      }
    }
    // Termination guard: progressive filling must fix at least one flow per
    // round; if floating-point dust ever prevents that, force-fix the flow
    // whose constraint set the water level.
    if (fixed_this_round == 0) {
      size_t argmin = nf;
      double best = std::numeric_limits<double>::infinity();
      for (size_t f = 0; f < nf; ++f) {
        if (fixed[f]) {
          continue;
        }
        const double w = std::max(flows[f].weight, 1e-12);
        double bound = flows[f].demand / w;
        for (const int32_t l : flow_links[f]) {
          if (link_weight[static_cast<size_t>(l)] > 1e-12) {
            bound = std::min(bound, level + residual[static_cast<size_t>(l)] /
                                                link_weight[static_cast<size_t>(l)]);
          }
        }
        if (bound < best) {
          best = bound;
          argmin = f;
        }
      }
      if (argmin == nf) {
        break;
      }
      const double w = std::max(flows[argmin].weight, 1e-12);
      fix_flow(argmin, std::min(level * w, flows[argmin].demand));
    }
  }

  // Any flow still unfixed crosses no valid link and has unlimited demand;
  // it is not constrained by this network — give it its demand (callers do
  // not construct such flows in practice, but stay total).
  for (size_t f = 0; f < nf; ++f) {
    if (!fixed[f]) {
      rates[f] = flows[f].demand;
    }
  }
  return rates;
}

}  // namespace mihn::fabric
