// Identifier and request types for the fabric simulator.

#ifndef MIHN_SRC_FABRIC_TYPES_H_
#define MIHN_SRC_FABRIC_TYPES_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/fabric/max_min.h"
#include "src/sim/time.h"
#include "src/sim/units.h"
#include "src/topology/routing.h"

namespace mihn::fabric {

using FlowId = int64_t;
inline constexpr FlowId kInvalidFlow = -1;

using TransferId = int64_t;

// Tenant identity for attribution (VM / container / job). The fabric only
// tags traffic; tenant semantics live in mihn::manager.
using TenantId = int32_t;
inline constexpr TenantId kNoTenant = -1;

// What kind of traffic a flow or packet carries. Telemetry keeps separate
// per-class counters so "unintended resource consumption" (paper §2) —
// cache-spill traffic, monitoring traffic — is distinguishable from
// application payload.
enum class TrafficClass : uint8_t {
  kData = 0,     // Application payload.
  kSpill = 1,    // DDIO miss/eviction traffic onto the memory bus.
  kMonitor = 2,  // Telemetry collection traffic (§3.1 Q2).
  kProbe = 3,    // Diagnostics: heartbeats, hostping, hostperf.
};
inline constexpr int kNumTrafficClasses = 4;

std::string_view TrafficClassName(TrafficClass klass);

// A continuous or finite fluid flow.
struct FlowSpec {
  topology::Path path;
  TenantId tenant = kNoTenant;
  // Demand ceiling; defaults to elastic (take all available bandwidth).
  sim::Bandwidth demand = sim::Bandwidth::BytesPerSec(kUnlimitedDemand);
  double weight = 1.0;
  // Inbound I/O write terminating at a CPU socket: subject to the DDIO/LLC
  // model (hits stay in cache; misses spill to the memory bus).
  bool ddio_write = false;
  TrafficClass klass = TrafficClass::kData;
};

struct TransferResult {
  TransferId id = 0;
  sim::TimeNs start;
  sim::TimeNs end;
  int64_t bytes = 0;

  sim::TimeNs Duration() const { return end - start; }
  sim::Bandwidth AverageRate() const {
    const double secs = Duration().ToSecondsF();
    return secs > 0 ? sim::Bandwidth::BytesPerSec(static_cast<double>(bytes) / secs)
                    : sim::Bandwidth::Zero();
  }
};

// A finite transfer: |flow| shaped like a FlowSpec plus a byte count and a
// completion callback (fired when the last byte is delivered, i.e. fluid
// completion plus one path traversal of latency).
struct TransferSpec {
  FlowSpec flow;
  int64_t bytes = 0;
  std::function<void(const TransferResult&)> on_complete;
};

// A small packetized message (control/RPC/heartbeat scale). Packets do not
// claim fluid bandwidth: they see the current per-hop congestion latency
// plus store-and-forward serialization, and are counted in link telemetry.
struct PacketSpec {
  // Borrowed, never null: SendPacket() reads the path only during the
  // call, so a sender passes the route it already holds instead of a copy.
  const topology::Path* path = nullptr;
  int64_t bytes = 64;
  TenantId tenant = kNoTenant;
  TrafficClass klass = TrafficClass::kProbe;
  std::function<void(sim::TimeNs latency)> on_delivered;
};

// Introspection view of one flow.
struct FlowInfo {
  FlowId id = kInvalidFlow;
  TenantId tenant = kNoTenant;
  TrafficClass klass = TrafficClass::kData;
  sim::Bandwidth rate;
  sim::Bandwidth demand;
  sim::Bandwidth limit;
  double weight = 1.0;
  int64_t bytes_moved = 0;
  int64_t bytes_remaining = -1;  // -1 for continuous flows.
  sim::TimeNs start_time;
  const topology::Path* path = nullptr;  // Valid while the flow is active.
};

// A capacity/latency fault on a link (both directions). capacity_factor 1
// and zero extra latency = healthy. capacity_factor 0 = dead link. Faults
// are *silent*: they alter behaviour but raise no error counter — detecting
// them is the anomaly platform's job (paper §3.1).
struct LinkFault {
  double capacity_factor = 1.0;
  sim::TimeNs extra_latency = sim::TimeNs::Zero();
};

}  // namespace mihn::fabric

#endif  // MIHN_SRC_FABRIC_TYPES_H_
