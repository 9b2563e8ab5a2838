#include "security/collateral.h"

#include "routing/workspace.h"

namespace sbgp::security {

CollateralStats count_collateral(const RoutingOutcome& baseline,
                                 const RoutingOutcome& deployed,
                                 const Deployment& dep, routing::AsId d,
                                 routing::AsId m) {
  CollateralStats s;
  for (routing::AsId v = 0; v < baseline.num_ases(); ++v) {
    if (v == d || v == m) continue;
    add_source(s, !dep.signs_origin(v), baseline.happy(v), deployed.happy(v));
  }
  return s;
}

CollateralStats analyze_collateral(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep) {
  routing::EngineWorkspace ws;
  return analyze_collateral(g, d, m, model, dep, ws);
}

CollateralStats analyze_collateral(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep,
                                   routing::EngineWorkspace& ws) {
  routing::compute_routing_into(
      g, routing::Query{d, m, routing::SecurityModel::kInsecure}, {}, ws,
      ws.baseline);
  routing::compute_routing_into(g, routing::Query{d, m, model}, dep, ws,
                                ws.primary);
  return count_collateral(ws.baseline, ws.primary, dep, d, m);
}

void accumulate_into(const PairOutcomes& po, CollateralStats& acc) {
  acc += count_collateral(*po.attacked_empty, *po.attacked, *po.dep, po.d,
                          po.m);
}

void accumulate_keys(const SourceKeyCounts& counts, CollateralStats& acc) {
  add_key_counts(counts, acc, [](CollateralStats& one, const SourceKey& k) {
    add_source(one, k.outside, k.attacked_empty, k.attacked);
  });
}

}  // namespace sbgp::security
