#include "src/fleet/report.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace mihn::fleet {
namespace {

// Fixed number format: deterministic, locale-independent (obs/export.cc).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

std::string Int(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return std::string(buf);
}

inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvFold(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::string EncodeSample(const FleetSample& sample) {
  std::ostringstream out;
  out << "t=" << Int(sample.at.nanos()) << " bytes=" << Num(sample.total_bytes)
      << " rate=" << Num(sample.total_rate_bps) << " flows=" << Int(sample.total_active_flows)
      << " maxutil=" << Num(sample.max_host_utilization)
      << " xrate=" << Num(sample.inter_rate_bps)
      << " xmaxutil=" << Num(sample.inter_max_utilization)
      << " xflows=" << Int(sample.cross_host_flows);
  for (const HostSample& h : sample.hosts) {
    out << " |h" << Int(h.host) << " b=" << Num(h.bytes_total) << " r=" << Num(h.rate_total_bps)
        << " mu=" << Num(h.max_utilization) << " au=" << Num(h.mean_utilization)
        << " f=" << Int(h.active_flows) << " c=" << Int(h.congested_links);
  }
  return out.str();
}

void SampleDigest::Fold(const FleetSample& sample) {
  state_ = FnvFold(state_, EncodeSample(sample));
  state_ = FnvFold(state_, "\n");
}

uint64_t DigestSamples(const std::vector<FleetSample>& samples) {
  SampleDigest digest;
  for (const FleetSample& s : samples) {
    digest.Fold(s);
  }
  return digest.value();
}

std::string RenderFleetReport(int host_count, int rack_count,
                              const std::vector<FleetSample>& samples, uint64_t digest) {
  std::ostringstream out;
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  out << "{\n";
  out << "  \"fleet\": {\"hosts\": " << Int(host_count) << ", \"racks\": " << Int(rack_count)
      << ", \"ticks\": " << Int(static_cast<int64_t>(samples.size())) << "},\n";
  out << "  \"telemetry_digest\": \"" << digest_hex << "\",\n";
  out << "  \"ticks\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const FleetSample& s = samples[i];
    out << "    {\"at_ns\": " << Int(s.at.nanos()) << ", \"total_bytes\": " << Num(s.total_bytes)
        << ", \"total_rate_bps\": " << Num(s.total_rate_bps)
        << ", \"active_flows\": " << Int(s.total_active_flows)
        << ", \"max_host_utilization\": " << Num(s.max_host_utilization)
        << ", \"inter_rate_bps\": " << Num(s.inter_rate_bps)
        << ", \"inter_max_utilization\": " << Num(s.inter_max_utilization)
        << ", \"cross_host_flows\": " << Int(s.cross_host_flows) << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"final_hosts\": [\n";
  if (!samples.empty()) {
    const std::vector<HostSample>& hosts = samples.back().hosts;
    for (size_t i = 0; i < hosts.size(); ++i) {
      const HostSample& h = hosts[i];
      out << "    {\"host\": " << Int(h.host) << ", \"bytes_total\": " << Num(h.bytes_total)
          << ", \"rate_total_bps\": " << Num(h.rate_total_bps)
          << ", \"max_utilization\": " << Num(h.max_utilization)
          << ", \"mean_utilization\": " << Num(h.mean_utilization)
          << ", \"active_flows\": " << Int(h.active_flows)
          << ", \"congested_links\": " << Int(h.congested_links) << "}"
          << (i + 1 < hosts.size() ? "," : "") << "\n";
    }
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

bool WriteFleetReportFile(const std::string& path, int host_count, int rack_count,
                          const std::vector<FleetSample>& samples, uint64_t digest) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << RenderFleetReport(host_count, rack_count, samples, digest);
  return static_cast<bool>(out);
}

}  // namespace mihn::fleet
