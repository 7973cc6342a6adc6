// Fixture: the borrowed read path, a LinkSnapshot type mention (a
// different token), Snapshot in a comment, and a justified export.
#include "src/fabric/fabric.h"

namespace fixture {

double TotalRate(mihn::fabric::Fabric& fabric) {
  double total = 0.0;
  fabric.VisitLinks([&total](const mihn::fabric::LinkView& view) { total += view.rate_bps(); });
  return total;
}

double LinkRate(mihn::fabric::Fabric& fabric, mihn::topology::DirectedLink dlink) {
  return fabric.View(dlink).rate_bps();
}

// Unlike Snapshot(), a LinkSnapshot value is just the exporter's type.
mihn::fabric::LinkSnapshot Export(mihn::fabric::Fabric& fabric,
                                  mihn::topology::DirectedLink dlink) {
  // mihn-check: drift-ok(fixture: a deliberate owning export)
  return fabric.Snapshot(dlink);
}

}  // namespace fixture
