// Baseline (S = emptyset) routing outcomes under a generalized
// local-preference ladder, including the LPk variant of Appendix K.
//
// Partition classification (Appendix E.1) requires the *tie sets* of the
// no-deployment stable state: for each AS, whether its most-preferred
// routes all lead to d, all lead to m, or are mixed. For the standard LP
// policy the main engine covers this; the LPk ladder interleaves customer
// and peer routes by length, so the staged computation must fix routes in
// rung order:
//   cust(1), peer(1), cust(2), peer(2), ..., cust(k), peer(k),
//   cust(>k) by length, peer(>k), providers by length.
// With the standard ladder (equivalent to k = 0) this degenerates to the
// usual FCR -> FPeeR -> FPrvR order, which the tests exploit to validate
// this implementation against the main engine.
#ifndef SBGP_ROUTING_BASELINE_H
#define SBGP_ROUTING_BASELINE_H

#include "routing/engine.h"
#include "routing/model.h"
#include "topology/as_graph.h"

namespace sbgp::routing {

/// Computes the S = emptyset stable state for destination d and optional
/// attacker m under the given LP policy. Security plays no role (no AS is
/// secure in the baseline), so no SecurityModel parameter exists.
[[nodiscard]] RoutingOutcome compute_baseline(
    const AsGraph& g, AsId d, AsId m = kNoAs,
    LocalPrefPolicy lp = LocalPrefPolicy::standard());

/// Workspace variant: computes into `result` (typically ws.baseline),
/// reusing ws.fixed / ws.frontier as scratch.
void compute_baseline_into(const AsGraph& g, AsId d, AsId m,
                           LocalPrefPolicy lp, EngineWorkspace& ws,
                           RoutingOutcome& result);

/// Convenience: computes into ws.baseline and returns it.
const RoutingOutcome& compute_baseline(const AsGraph& g, AsId d, AsId m,
                                       LocalPrefPolicy lp,
                                       EngineWorkspace& ws);

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_BASELINE_H
