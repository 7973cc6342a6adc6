// Fixture: production code outside the fabric calling the telemetry
// exporters instead of borrowing link views. Checked as a src/ path.
#include "src/fabric/fabric.h"

namespace fixture {

double TotalRate(mihn::fabric::Fabric& fabric) {
  double total = 0.0;
  for (const auto& snap : fabric.SnapshotAll()) {  // BAD: exporter on a read path.
    total += snap.rate_bps;
  }
  return total;
}

double FirstLinkRate(mihn::fabric::Fabric& fabric, mihn::topology::DirectedLink dlink) {
  return fabric.Snapshot(dlink).rate_bps;  // BAD: exporter on a read path.
}

}  // namespace fixture
