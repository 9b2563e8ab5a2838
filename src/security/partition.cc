#include "security/partition.h"

#include <stdexcept>

#include "routing/baseline.h"
#include "routing/workspace.h"

namespace sbgp::security {

namespace {

void check_pair(const AsGraph& g, AsId d, AsId m, SecurityModel model) {
  if (model == SecurityModel::kInsecure) {
    throw std::invalid_argument(
        "classify_sources: partitions are defined for S*BGP models only");
  }
  if (d >= g.num_ases() || m >= g.num_ases() || d == m) {
    throw std::invalid_argument("classify_sources: bad (d, m) pair");
  }
}

}  // namespace

PartitionContext::PartitionContext(
    const AsGraph& g, AsId d, AsId m, SecurityModel model,
    const routing::RoutingOutcome& empty_attacked)
    : g_(g),
      d_(d),
      m_(m),
      model_(model),
      lp_(LocalPrefPolicy::standard()),
      base_(&empty_attacked) {
  check_pair(g, d, m, model);
  if (model == SecurityModel::kSecurityFirst) {
    throw std::invalid_argument(
        "PartitionContext: security 1st classifies by reachability, not "
        "from the S = emptyset outcome");
  }
  if (empty_attacked.num_ases() != g.num_ases()) {
    throw std::invalid_argument(
        "PartitionContext: S = emptyset outcome does not match the graph "
        "size");
  }
}

PartitionContext::PartitionContext(const AsGraph& g, AsId d, AsId m,
                                   SecurityModel model, LocalPrefPolicy lp,
                                   routing::EngineWorkspace& ws)
    : g_(g), d_(d), m_(m), model_(model), lp_(lp) {
  check_pair(g, d, m, model);
  if (model == SecurityModel::kSecurityFirst) {
    // Exact tests (Observations E.3/E.4): doomed iff d is perceivably
    // unreachable once m is removed; immune if m is perceivably unreachable
    // once d is removed.
    routing::perceivable_distances_into(g, d, 0, m, ws.reach_d, ws.frontier);
    routing::perceivable_distances_into(g, m, 0, d, ws.reach_m, ws.frontier);
    to_d_avoiding_m_ = &ws.reach_d;
    to_m_avoiding_d_ = &ws.reach_m;
  } else {
    // Security 2nd/3rd both classify off the S = emptyset stable state
    // (Appendix E.1/E.2); see classify() for the per-model reading.
    routing::compute_baseline_into(g, d, m, lp, ws, ws.baseline);
    base_ = &ws.baseline;
  }
}

PartitionClass PartitionContext::classify(AsId v) const {
  if (v == d_) return PartitionClass::kImmune;
  if (v == m_) return PartitionClass::kDoomed;

  if (model_ == SecurityModel::kSecurityFirst) {
    if (!to_d_avoiding_m_->reachable(v)) return PartitionClass::kDoomed;
    if (!to_m_avoiding_d_->reachable(v)) return PartitionClass::kImmune;
    return PartitionClass::kProtectable;
  }

  const routing::RoutingOutcome& base = *base_;
  if (model_ == SecurityModel::kSecurityThird) {
    // Appendix E.1: route class *and length* are deployment-invariant in
    // the security 3rd model, so the tie sets of the S = emptyset stable
    // state decide the partition: an AS whose most-preferred routes all
    // lead to d (resp. m) is immune (resp. doomed); mixed ties are
    // protectable. Perceivable shortest lengths are NOT a substitute: LP
    // can prefer longer routes upstream, making the shortest perceivable
    // length unattainable.
    return security_third_class(base.happy(v));
  }

  // Security 2nd (Appendix E.2): only the route's LP class (the ladder
  // rung) is deployment-invariant, so the paper tracks every route of the
  // chosen rung that remains in the *pruned* PR set of the S = emptyset
  // computation — i.e. the routes actually available given other ASes'
  // stable choices. An AS whose available same-rung routes all lead to d
  // (resp. m) is immune (resp. doomed). This is the paper's own
  // approximation: unlike the 1st/3rd classifications it is heuristic —
  // collateral benefits/damages at *other* ASes can, rarely, cross it
  // (Section 6.1 is precisely about such flips; see DESIGN.md).
  if (!base.has_route(v)) return PartitionClass::kDoomed;  // never happy
  const std::uint32_t own_rung =
      [&] {
        switch (base.type(v)) {
          case routing::RouteType::kCustomer:
            return routing::lp_rung(lp_, topology::Relation::kCustomer,
                                    base.length(v));
          case routing::RouteType::kPeer:
            return routing::lp_rung(lp_, topology::Relation::kPeer,
                                    base.length(v));
          default:
            return routing::lp_rung(lp_, topology::Relation::kProvider,
                                    base.length(v));
        }
      }();

  bool reach_d = false;
  bool reach_m = false;
  const auto consider = [&](AsId u, topology::Relation rel) {
    if (!base.has_route(u)) return;
    // Export rule: customer routes and origins propagate everywhere;
    // peer/provider routes only to customers.
    const bool exports_here =
        rel == topology::Relation::kProvider ||
        base.type(u) == routing::RouteType::kOrigin ||
        base.type(u) == routing::RouteType::kCustomer;
    if (!exports_here) return;
    if (routing::lp_rung(lp_, rel, base.length(u) + 1u) != own_rung) return;
    reach_d |= base.reaches_destination(u);
    reach_m |= base.reaches_attacker(u);
  };
  for (const AsId u : g_.customers(v)) {
    consider(u, topology::Relation::kCustomer);
  }
  for (const AsId u : g_.peers(v)) consider(u, topology::Relation::kPeer);
  for (const AsId u : g_.providers(v)) {
    consider(u, topology::Relation::kProvider);
  }

  if (reach_d && !reach_m) return PartitionClass::kImmune;
  if (reach_m && !reach_d) return PartitionClass::kDoomed;
  return PartitionClass::kProtectable;
}

PartitionCounts PartitionContext::counts() const {
  PartitionCounts c;
  for (AsId v = 0; v < g_.num_ases(); ++v) {
    if (v == d_ || v == m_) continue;
    add_source(c, classify(v));
  }
  return c;
}

std::vector<PartitionClass> classify_sources(const AsGraph& g, AsId d, AsId m,
                                             SecurityModel model,
                                             LocalPrefPolicy lp) {
  routing::EngineWorkspace ws;
  const PartitionContext ctx(g, d, m, model, lp, ws);
  std::vector<PartitionClass> cls(g.num_ases());
  for (AsId v = 0; v < g.num_ases(); ++v) cls[v] = ctx.classify(v);
  return cls;
}

PartitionShares partition_shares(const AsGraph& g, AsId d, AsId m,
                                 SecurityModel model, LocalPrefPolicy lp) {
  routing::EngineWorkspace ws;
  return PartitionContext(g, d, m, model, lp, ws).counts().shares();
}

void accumulate_into(const PairOutcomes& po, PartitionCounts& acc) {
  acc += po.partition->counts();
}

void accumulate_keys(const SourceKeyCounts& counts, PartitionCounts& acc) {
  add_key_counts(counts, acc, [](PartitionCounts& one, const SourceKey& k) {
    add_source(one, security_third_class(k.attacked_empty));
  });
}

}  // namespace sbgp::security
