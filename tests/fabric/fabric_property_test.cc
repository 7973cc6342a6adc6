// Property-based tests of the fabric: random operation sequences on random
// topologies must preserve the global invariants regardless of order.

#include <gtest/gtest.h>

#include <cmath>

#include "src/fabric/fabric.h"
#include "src/topology/presets.h"

namespace mihn::fabric {
namespace {

using sim::Bandwidth;
using sim::Rng;
using sim::Simulation;
using sim::TimeNs;

struct PropertyCase {
  uint64_t seed;
};

class FabricPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(FabricPropertyTest, InvariantsUnderRandomOperations) {
  const uint64_t seed = GetParam().seed;
  Simulation sim(seed);
  Rng rng(seed * 31);

  // Random server shape.
  topology::ServerSpec spec;
  spec.sockets = static_cast<int>(rng.UniformInt(1, 2));
  spec.root_ports_per_socket = static_cast<int>(rng.UniformInt(1, 2));
  spec.switches_per_root_port = static_cast<int>(rng.UniformInt(0, 1));
  spec.gpus_per_leaf = static_cast<int>(rng.UniformInt(0, 2));
  const topology::Server server = topology::BuildServer(spec);
  ASSERT_EQ(server.topo.Validate(), "");

  FabricConfig config;
  config.ddio_enabled = rng.Bernoulli(0.7);
  config.way_bytes = rng.UniformInt(64, 2048) * 1024;
  Fabric fabric(sim, server.topo, config);

  // Endpoint pool.
  std::vector<topology::ComponentId> endpoints;
  for (const topology::Component& c : server.topo.components()) {
    if (IsEndpointKind(c.kind)) {
      endpoints.push_back(c.id);
    }
  }
  ASSERT_GE(endpoints.size(), 2u);
  auto pick = [&] { return endpoints[static_cast<size_t>(
                        rng.UniformInt(0, static_cast<int64_t>(endpoints.size()) - 1))]; };

  std::vector<FlowId> flows;
  auto check_invariants = [&](const char* when) {
    // Invariant 1: no directed link carries more than its effective capacity.
    for (const topology::Link& link : server.topo.links()) {
      for (const bool fwd : {true, false}) {
        const auto snap = fabric.Snapshot({link.id, fwd});
        EXPECT_LE(snap.rate_bps, snap.capacity_bps * (1 + 1e-6) + 1e-3)
            << when << " link " << link.id;
        // Invariant 2: per-tenant rates sum to the link rate.
        double tenant_sum = 0;
        for (const auto& [t, r] : snap.rate_by_tenant_bps) {
          tenant_sum += r;
        }
        EXPECT_NEAR(tenant_sum, snap.rate_bps, std::max(1.0, snap.rate_bps * 1e-9)) << when;
        // Invariant 3: per-class rates sum to the link rate.
        double class_sum = 0;
        for (const double r : snap.rate_by_class_bps) {
          class_sum += r;
        }
        EXPECT_NEAR(class_sum, snap.rate_bps, std::max(1.0, snap.rate_bps * 1e-9)) << when;
      }
    }
    // Invariant 4: every flow respects demand and limit.
    for (const FlowId id : fabric.ActiveFlows()) {
      const auto info = fabric.GetFlowInfo(id);
      ASSERT_TRUE(info.has_value());
      EXPECT_LE(info->rate.bytes_per_sec(), info->demand.bytes_per_sec() * (1 + 1e-6) + 1e-3);
      EXPECT_LE(info->rate.bytes_per_sec(), info->limit.bytes_per_sec() * (1 + 1e-6) + 1e-3);
    }
  };

  for (int op = 0; op < 120; ++op) {
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind <= 3 || flows.empty()) {
      // Start a flow (sometimes finite, sometimes ddio).
      const topology::ComponentId src = pick();
      topology::ComponentId dst = pick();
      if (src == dst) {
        continue;
      }
      auto path = fabric.Route(src, dst);
      if (!path) {
        continue;
      }
      FlowSpec fs;
      fs.path = std::move(*path);
      fs.tenant = static_cast<TenantId>(rng.UniformInt(0, 4));
      fs.weight = rng.Uniform(0.2, 3.0);
      fs.ddio_write = rng.Bernoulli(0.3);
      if (rng.Bernoulli(0.5)) {
        fs.demand = Bandwidth::GBps(rng.Uniform(0.5, 50.0));
      }
      if (rng.Bernoulli(0.4)) {
        TransferSpec ts;
        ts.flow = std::move(fs);
        ts.bytes = rng.UniformInt(1, 100'000'000);
        const FlowId id = fabric.StartTransfer(std::move(ts));
        if (id != kInvalidFlow) {
          flows.push_back(id);
        }
      } else {
        const FlowId id = fabric.StartFlow(std::move(fs));
        if (id != kInvalidFlow) {
          flows.push_back(id);
        }
      }
    } else if (kind == 4) {
      fabric.StopFlow(flows[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(flows.size()) - 1))]);
    } else if (kind == 5) {
      fabric.SetFlowLimit(flows[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(flows.size()) - 1))],
                          Bandwidth::GBps(rng.Uniform(0.1, 40.0)));
    } else if (kind == 6) {
      fabric.SetFlowWeight(flows[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(flows.size()) - 1))],
                           rng.Uniform(0.1, 5.0));
    } else if (kind == 7) {
      const topology::LinkId link = static_cast<topology::LinkId>(
          rng.UniformInt(0, static_cast<int64_t>(server.topo.link_count()) - 1));
      if (rng.Bernoulli(0.5)) {
        fabric.InjectLinkFault(link, LinkFault{rng.Uniform(0.1, 1.0),
                                               TimeNs::Nanos(rng.UniformInt(0, 2000))});
      } else {
        fabric.ClearLinkFault(link);
      }
    } else if (kind == 8) {
      sim.RunFor(TimeNs::Micros(rng.UniformInt(1, 500)));
    } else {
      PacketSpec pkt;
      const topology::ComponentId src = pick();
      const topology::ComponentId dst = pick();
      if (src != dst) {
        if (auto path = fabric.Route(src, dst)) {
          pkt.path = &*path;
          pkt.bytes = rng.UniformInt(16, 9000);
          fabric.SendPacket(std::move(pkt));
        }
      }
    }
    check_invariants("mid-sequence");
  }

  // Drain everything: after all flows stop, all rates must return to zero
  // and counters must be monotone (already implied) and finite.
  for (const FlowId id : flows) {
    fabric.StopFlow(id);
  }
  sim.RunFor(TimeNs::Millis(10));
  for (const topology::Link& link : server.topo.links()) {
    for (const bool fwd : {true, false}) {
      const auto snap = fabric.Snapshot({link.id, fwd});
      EXPECT_DOUBLE_EQ(snap.rate_bps, 0.0);
      EXPECT_GE(snap.bytes_total, 0.0);
      EXPECT_TRUE(std::isfinite(snap.bytes_total));
    }
  }
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  for (uint64_t s = 1; s <= 20; ++s) {
    cases.push_back({s * 104729});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, FabricPropertyTest, ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& param_info) {
                           return "seed" + std::to_string(param_info.param.seed);
                         });

}  // namespace
}  // namespace mihn::fabric
