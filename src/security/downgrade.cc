#include "security/downgrade.h"

#include "routing/workspace.h"

namespace sbgp::security {

DowngradeStats analyze_downgrades(const AsGraph& g, AsId d, AsId m,
                                  routing::SecurityModel model,
                                  const Deployment& dep) {
  routing::EngineWorkspace ws;
  return analyze_downgrades(g, d, m, model, dep, ws);
}

DowngradeStats analyze_downgrades(const AsGraph& g, AsId d, AsId m,
                                  routing::SecurityModel model,
                                  const Deployment& dep,
                                  routing::EngineWorkspace& ws) {
  routing::compute_routing_into(g, Query{d, routing::kNoAs, model}, dep, ws,
                                ws.normal);
  routing::compute_routing_into(g, Query{d, m, model}, dep, ws, ws.primary);
  const PartitionContext partition(g, d, m, model,
                                   routing::LocalPrefPolicy::standard(), ws);

  PairOutcomes po;
  po.g = &g;
  po.d = d;
  po.m = m;
  po.dep = &dep;
  po.normal = &ws.normal;
  po.attacked = &ws.primary;
  po.partition = &partition;
  DowngradeStats s;
  accumulate_into(po, s);
  return s;
}

void accumulate_into(const PairOutcomes& po, DowngradeStats& acc) {
  const routing::RoutingOutcome& normal = *po.normal;
  const routing::RoutingOutcome& attacked = *po.attacked;
  const PartitionContext& partition = *po.partition;
  for (AsId v = 0; v < po.g->num_ases(); ++v) {
    if (v == po.d || v == po.m) continue;
    const bool during = attacked.secure_route(v);
    add_source(acc, normal.secure_route(v), during,
               during && partition.classify(v) == PartitionClass::kImmune);
  }
}

void accumulate_keys(const SourceKeyCounts& counts, DowngradeStats& acc) {
  add_key_counts(counts, acc, [](DowngradeStats& one, const SourceKey& k) {
    add_source(one, k.secure_normal, k.secure_attacked,
               security_third_class(k.attacked_empty) ==
                   PartitionClass::kImmune);
  });
}

}  // namespace sbgp::security
