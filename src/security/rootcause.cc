#include "security/rootcause.h"

#include "routing/engine.h"
#include "routing/workspace.h"

namespace sbgp::security {

RootCauseStats analyze_root_causes(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep) {
  routing::EngineWorkspace ws;
  return analyze_root_causes(g, d, m, model, dep, ws);
}

RootCauseStats analyze_root_causes(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep,
                                   routing::EngineWorkspace& ws) {
  using routing::HappyStatus;
  routing::compute_routing_into(g, routing::Query{d, routing::kNoAs, model},
                                dep, ws, ws.normal);
  routing::compute_routing_into(g, routing::Query{d, m, model}, dep, ws,
                                ws.primary);
  routing::compute_routing_into(
      g, routing::Query{d, m, routing::SecurityModel::kInsecure}, {}, ws,
      ws.baseline);

  PairOutcomes po;
  po.g = &g;
  po.d = d;
  po.m = m;
  po.dep = &dep;
  po.normal = &ws.normal;
  po.attacked = &ws.primary;
  po.attacked_empty = &ws.baseline;
  RootCauseStats s;
  accumulate_into(po, s);
  return s;
}

void accumulate_into(const PairOutcomes& po, RootCauseStats& acc) {
  const routing::RoutingOutcome& normal = *po.normal;
  const routing::RoutingOutcome& attacked = *po.attacked;
  const routing::RoutingOutcome& baseline = *po.attacked_empty;
  const Deployment& dep = *po.dep;
  for (routing::AsId v = 0; v < po.g->num_ases(); ++v) {
    if (v == po.d || v == po.m) continue;
    add_source(acc, baseline.happy(v), attacked.happy(v),
               normal.secure_route(v), attacked.secure_route(v),
               !dep.signs_origin(v));
  }
}

void accumulate_keys(const SourceKeyCounts& counts, RootCauseStats& acc) {
  add_key_counts(counts, acc, [](RootCauseStats& one, const SourceKey& k) {
    add_source(one, k.attacked_empty, k.attacked, k.secure_normal,
               k.secure_attacked, k.outside);
  });
}

}  // namespace sbgp::security
