#include "src/workload/kv_client.h"

#include <utility>

namespace mihn::workload {

KvClient::KvClient(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {
  auto req = fabric_.Route(config_.client, config_.server);
  auto resp = fabric_.Route(config_.server, config_.client);
  if (req) {
    request_path_ = std::move(*req);
  }
  if (resp) {
    response_path_ = std::move(*resp);
  }
}

void KvClient::Start() {
  if (running_ || request_path_.empty() || response_path_.empty()) {
    return;
  }
  running_ = true;
  ++generation_;
  started_at_ = fabric_.simulation().Now();
  for (int i = 0; i < config_.concurrency; ++i) {
    IssueOp();
  }
}

void KvClient::Stop() {
  running_ = false;
  ++generation_;
}

double KvClient::OpsPerSecond() const {
  const double secs = (fabric_.simulation().Now() - started_at_).ToSecondsF();
  return secs > 0 ? static_cast<double>(latency_us_.count()) / secs : 0.0;
}

void KvClient::IssueOp() {
  if (!running_) {
    return;
  }
  sim::Simulation& sim = fabric_.simulation();
  const sim::TimeNs issued = sim.Now();
  const uint64_t gen = generation_;

  fabric::PacketSpec request;
  request.path = &request_path_;
  request.bytes = config_.request_bytes;
  request.tenant = config_.tenant;
  request.klass = fabric::TrafficClass::kData;
  request.on_delivered = [this, issued, gen, &sim](sim::TimeNs) {
    if (gen != generation_) {
      return;
    }
    // Host-side service, then the response packet.
    sim.ScheduleAfter(config_.service_time, [this, issued, gen] {
      if (gen != generation_) {
        return;
      }
      fabric::PacketSpec response;
      response.path = &response_path_;
      response.bytes = config_.response_bytes;
      response.tenant = config_.tenant;
      response.klass = fabric::TrafficClass::kData;
      response.on_delivered = [this, issued, gen](sim::TimeNs) {
        if (gen != generation_) {
          return;
        }
        latency_us_.Add((fabric_.simulation().Now() - issued).ToMicrosF());
        IssueOp();  // Closed loop: next op immediately.
      };
      fabric_.SendPacket(std::move(response));
    });
  };
  fabric_.SendPacket(std::move(request));
}

}  // namespace mihn::workload
