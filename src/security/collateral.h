// Collateral benefits and damages (Section 6.1).
//
// Securing some ASes changes what *insecure* ASes hear and therefore
// choose: an insecure source may flip from unhappy to happy (collateral
// benefit — Figure 14's AS 5166, Figure 15's AS 34223) or, worse, from
// happy to unhappy (collateral damage — Figure 14's AS 52142, Figure 17's
// AS 4805). Theorem 6.1 rules damages out in the security 3rd model;
// security is *not monotone* in the 1st and 2nd models.
#ifndef SBGP_SECURITY_COLLATERAL_H
#define SBGP_SECURITY_COLLATERAL_H

#include <cstddef>
#include <cstdint>

#include "routing/engine.h"
#include "routing/model.h"
#include "security/pair_outcomes.h"
#include "topology/as_graph.h"
#include "util/checked.h"

namespace sbgp::security {

using routing::Deployment;
using routing::RoutingOutcome;
using topology::AsGraph;

/// Status flips of sources *outside* S between the baseline attack outcome
/// (S = emptyset) and the deployed attack outcome (same attacker and
/// destination). Counts are strict (lower bounds): a flip is only counted
/// when both statuses are tie-break independent.
struct CollateralStats {
  std::size_t insecure_sources = 0;
  std::size_t benefits = 0;  // strict: unhappy -> happy
  std::size_t damages = 0;   // strict: happy -> unhappy
  // Optimistic counters include tie-break-dependent flips (the paper's
  // Figure 15 benefit exists only at this level: AS 3267 "tiebreaks in
  // favor of the attacker" before deployment).
  std::size_t benefits_upper = 0;  // not-happy -> happy
  std::size_t damages_upper = 0;   // happy -> not-happy

  CollateralStats& operator+=(const CollateralStats& o) {
    insecure_sources += o.insecure_sources;
    benefits += o.benefits;
    damages += o.damages;
    benefits_upper += o.benefits_upper;
    damages_upper += o.damages_upper;
    return *this;
  }
  /// Adds `w` copies of `o` — traffic-weighted accumulation (sim/traffic.h).
  /// Throws std::overflow_error rather than wrap a counter past 2^64 - 1.
  CollateralStats& add_scaled(const CollateralStats& o, std::uint64_t w) {
    util::add_scaled_checked(insecure_sources, o.insecure_sources, w,
                             "CollateralStats::insecure_sources");
    util::add_scaled_checked(benefits, o.benefits, w,
                             "CollateralStats::benefits");
    util::add_scaled_checked(damages, o.damages, w, "CollateralStats::damages");
    util::add_scaled_checked(benefits_upper, o.benefits_upper, w,
                             "CollateralStats::benefits_upper");
    util::add_scaled_checked(damages_upper, o.damages_upper, w,
                             "CollateralStats::damages_upper");
    return *this;
  }
  [[nodiscard]] bool operator==(const CollateralStats&) const = default;
};

/// Compares a baseline outcome (computed with S = emptyset) against the
/// outcome under deployment `dep`, counting flips among sources that are
/// neither secure nor simplex members of the deployment.
[[nodiscard]] CollateralStats count_collateral(const RoutingOutcome& baseline,
                                               const RoutingOutcome& deployed,
                                               const Deployment& dep,
                                               routing::AsId d,
                                               routing::AsId m);

/// Convenience wrapper computing both outcomes for attack (m on d).
[[nodiscard]] CollateralStats analyze_collateral(const AsGraph& g,
                                                 routing::AsId d,
                                                 routing::AsId m,
                                                 routing::SecurityModel model,
                                                 const Deployment& dep);

/// Workspace variant: computes the S = emptyset outcome into ws.baseline
/// and the deployed outcome into ws.primary, then counts flips.
[[nodiscard]] CollateralStats analyze_collateral(const AsGraph& g,
                                                 routing::AsId d,
                                                 routing::AsId m,
                                                 routing::SecurityModel model,
                                                 const Deployment& dep,
                                                 routing::EngineWorkspace& ws);

/// Counting rule for one source: only sources outside the deployment
/// count, by their status at S = emptyset (`before`) and under S (`after`).
inline void add_source(CollateralStats& acc, bool outside,
                       routing::HappyStatus before,
                       routing::HappyStatus after) {
  using routing::HappyStatus;
  if (!outside) return;
  ++acc.insecure_sources;
  if (before == HappyStatus::kUnhappy && after == HappyStatus::kHappy) {
    ++acc.benefits;
  } else if (before == HappyStatus::kHappy && after == HappyStatus::kUnhappy) {
    ++acc.damages;
  }
  if (before != HappyStatus::kHappy && after == HappyStatus::kHappy) {
    ++acc.benefits_upper;
  } else if (before == HappyStatus::kHappy && after != HappyStatus::kHappy) {
    ++acc.damages_upper;
  }
}

/// Fused-pipeline entry point: counts flips between po.attacked_empty and
/// po.attacked among sources outside the deployment, adding to `acc`.
void accumulate_into(const PairOutcomes& po, CollateralStats& acc);

/// Changed-set entry point (security/pair_outcomes.h): adds the counts of
/// a pair's source keys to `acc`.
void accumulate_keys(const SourceKeyCounts& counts, CollateralStats& acc);

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_COLLATERAL_H
