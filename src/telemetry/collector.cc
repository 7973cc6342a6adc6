#include "src/telemetry/collector.h"

#include <algorithm>
#include <utility>

#include "src/obs/tracer.h"

namespace mihn::telemetry {
namespace {

std::string DirName(bool forward) { return forward ? "fwd" : "rev"; }

}  // namespace

Collector::Collector(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {
  if (config_.granularity == Granularity::kCoarse && config_.period < kCoarseMinPeriod) {
    // Hardware counters cannot be read faster than their access frequency
    // allows (paper §3.1 Q1: "the access frequency ... is usually limited").
    config_.period = kCoarseMinPeriod;
  }
}

void Collector::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = fabric_.simulation().SchedulePeriodic(
      config_.period, [this] { SampleOnce(); }, "telemetry.tick");
}

void Collector::Stop() {
  running_ = false;
  timer_.Cancel();
}

sim::TimeSeries* Collector::Resolve(std::string key) {
  return &series_.try_emplace(std::move(key), config_.series_capacity).first->second;
}

void Collector::SampleOnce() {
  MIHN_TRACE_SPAN(tick_span, fabric_.tracer(), "telemetry", "telemetry.sample");
  ++samples_taken_;
  last_tick_metrics_ = 0;
  const bool fine = config_.granularity == Granularity::kFine;

  const sim::TimeNs now = fabric_.simulation().Now();
  const double dt = (now - last_sample_time_).ToSecondsF();
  if (samples_taken_ == 1) {
    // The handle tables are built by the first sample, not at
    // construction: a host whose collector never runs (every fleet host)
    // pays nothing for them.
    links_.resize(2 * fabric_.topo().link_count());
    if (fine) {
      for (const topology::ComponentId socket :
           fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket)) {
        sockets_.push_back({socket, Resolve(CacheHitKey(socket)), Resolve(CacheSpillKey(socket))});
      }
    }
  }
  // Appends only touch the metric store, never the fabric, so the
  // borrowed views stay valid for the whole pass.
  fabric_.VisitLinks([&](const fabric::LinkView& view) {
    const topology::DirectedLink dlink = view.dlink();
    LinkSeries& ls = links_[static_cast<size_t>(topology::DirectedIndex(dlink))];
    if (ls.util == nullptr) {
      ls.util = Resolve(LinkUtilKey(dlink.link, dlink.forward));
      ls.rate = Resolve(LinkRateKey(dlink.link, dlink.forward));
      ls.bytes = Resolve(LinkBytesKey(dlink.link, dlink.forward));
      ls.thpt = Resolve(LinkThroughputKey(dlink.link, dlink.forward));
    }
    Append(ls.util, now, view.utilization());
    Append(ls.rate, now, view.rate_bps());
    Append(ls.bytes, now, view.bytes_total());
    // Byte-delta throughput: covers fluid AND packet traffic.
    const double thpt =
        (dt > 0.0 && samples_taken_ > 1) ? (view.bytes_total() - ls.prev_bytes) / dt : 0.0;
    ls.prev_bytes = view.bytes_total();
    Append(ls.thpt, now, thpt);
    if (fine) {
      // Every tenant present in this solve gets a point, even at rate 0.
      // Series are keyed, so first-seen tenant order never shows.
      const std::vector<fabric::TenantCounter>& tenants = view.tenants();
      if (ls.tenants.size() < tenants.size()) {
        ls.tenants.resize(tenants.size());
      }
      for (size_t i = 0; i < tenants.size(); ++i) {
        const fabric::TenantCounter& tc = tenants[i];
        if (!tc.rate_present) {
          continue;
        }
        sim::TimeSeries*& series = ls.tenants[i];
        if (series == nullptr) {
          series = Resolve(TenantRateKey(dlink.link, dlink.forward, tc.tenant));
        }
        Append(series, now, tc.rate_bps);
      }
      for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
        const double rate = view.rate_by_class_bps()[static_cast<size_t>(k)];
        if (rate > 0.0) {
          sim::TimeSeries*& series = ls.classes[static_cast<size_t>(k)];
          if (series == nullptr) {
            series = Resolve(
                ClassRateKey(dlink.link, dlink.forward, static_cast<fabric::TrafficClass>(k)));
          }
          Append(series, now, rate);
        }
      }
    }
  });
  for (const SocketSeries& s : sockets_) {
    const fabric::SocketCacheStats stats = fabric_.CacheStats(s.socket);
    Append(s.hit, now, stats.hit_rate);
    Append(s.spill, now, stats.spill_rate_bps);
  }

  last_sample_time_ = now;

  // Q2: ship the encoded samples across the fabric to the collection point.
  if (config_.report_to != topology::kInvalidComponent) {
    if (!report_path_resolved_) {
      topology::ComponentId from = config_.report_from;
      if (from == topology::kInvalidComponent) {
        const auto sockets =
            fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket);
        if (!sockets.empty()) {
          from = sockets.front();
        }
      }
      if (from != topology::kInvalidComponent && from != config_.report_to) {
        if (auto p = fabric_.Route(from, config_.report_to)) {
          report_path_ = std::move(*p);
        }
      }
      report_path_resolved_ = true;
    }
    if (!report_path_.empty()) {
      const int64_t bytes =
          static_cast<int64_t>(last_tick_metrics_) * config_.bytes_per_sample;
      fabric::PacketSpec pkt;
      pkt.path = &report_path_;
      pkt.bytes = bytes;
      pkt.klass = fabric::TrafficClass::kMonitor;
      fabric_.SendPacket(std::move(pkt));
      bytes_reported_ += bytes;
    }
  }
  if (tick_span.active()) {
    tick_span.Arg("metrics", static_cast<double>(last_tick_metrics_));
    tick_span.Arg("bytes_reported_total", static_cast<double>(bytes_reported_));
    MIHN_TRACE_COUNTER(fabric_.tracer(), "telemetry", "telemetry.metrics_per_tick",
                       last_tick_metrics_);
  }
}

const sim::TimeSeries* Collector::Series(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> Collector::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(series_.size());
  for (const auto& [key, unused] : series_) {
    keys.push_back(key);
  }
  return keys;
}

uint64_t Collector::total_dropped_points() const {
  uint64_t dropped = 0;
  for (const auto& [key, ts] : series_) {
    dropped += ts.dropped();
  }
  return dropped;
}

std::string Collector::LinkUtilKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/util";
}
std::string Collector::LinkRateKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/rate";
}
std::string Collector::LinkBytesKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/bytes";
}
std::string Collector::LinkThroughputKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/thpt";
}
std::string Collector::TenantRateKey(topology::LinkId link, bool forward,
                                     fabric::TenantId tenant) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/tenant/" +
         std::to_string(tenant) + "/rate";
}
std::string Collector::ClassRateKey(topology::LinkId link, bool forward,
                                    fabric::TrafficClass k) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/class/" +
         std::string(fabric::TrafficClassName(k)) + "/rate";
}
std::string Collector::CacheHitKey(topology::ComponentId socket) {
  return "socket/" + std::to_string(socket) + "/cache_hit";
}
std::string Collector::CacheSpillKey(topology::ComponentId socket) {
  return "socket/" + std::to_string(socket) + "/cache_spill";
}

}  // namespace mihn::telemetry
