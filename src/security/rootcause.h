// Root-cause decomposition of metric changes (Section 6.2, Figure 16).
//
// The change in the security metric going from S = emptyset to a deployment
// S decomposes as
//   (secure routes protecting previously-unhappy sources)
//   + (collateral benefits)
//   - (collateral damages)
// with two further classes of secure routes that do NOT move the metric:
//   - secure routes lost to protocol downgrades, and
//   - secure routes "wasted" on sources that were already happy without
//     S*BGP.
// Figure 16 stacks these per model; this module computes one pair's worth.
#ifndef SBGP_SECURITY_ROOTCAUSE_H
#define SBGP_SECURITY_ROOTCAUSE_H

#include <cstddef>
#include <cstdint>

#include "routing/engine.h"
#include "routing/model.h"
#include "security/pair_outcomes.h"
#include "topology/as_graph.h"
#include "util/checked.h"

namespace sbgp::security {

using routing::Deployment;
using topology::AsGraph;

/// All counts are over sources (excluding d, m); fractions are obtained by
/// dividing by `sources`. "Happy" uses the strict lower-bound status.
struct RootCauseStats {
  std::size_t sources = 0;
  std::size_t secure_normal = 0;      // secure routes before the attack
  std::size_t downgraded = 0;         // lost to protocol downgrade
  std::size_t secure_wasted = 0;      // kept, but source was happy at S=empty
  std::size_t secure_protecting = 0;  // kept, source was NOT happy at S=empty
  std::size_t collateral_benefits = 0;
  std::size_t collateral_damages = 0;
  std::size_t happy_baseline = 0;  // strictly happy at S=empty
  std::size_t happy_deployed = 0;  // strictly happy under S

  RootCauseStats& operator+=(const RootCauseStats& o) {
    sources += o.sources;
    secure_normal += o.secure_normal;
    downgraded += o.downgraded;
    secure_wasted += o.secure_wasted;
    secure_protecting += o.secure_protecting;
    collateral_benefits += o.collateral_benefits;
    collateral_damages += o.collateral_damages;
    happy_baseline += o.happy_baseline;
    happy_deployed += o.happy_deployed;
    return *this;
  }
  /// Adds `w` copies of `o` — traffic-weighted accumulation (sim/traffic.h).
  /// Throws std::overflow_error rather than wrap a counter past 2^64 - 1.
  RootCauseStats& add_scaled(const RootCauseStats& o, std::uint64_t w) {
    util::add_scaled_checked(sources, o.sources, w, "RootCauseStats::sources");
    util::add_scaled_checked(secure_normal, o.secure_normal, w,
                             "RootCauseStats::secure_normal");
    util::add_scaled_checked(downgraded, o.downgraded, w,
                             "RootCauseStats::downgraded");
    util::add_scaled_checked(secure_wasted, o.secure_wasted, w,
                             "RootCauseStats::secure_wasted");
    util::add_scaled_checked(secure_protecting, o.secure_protecting, w,
                             "RootCauseStats::secure_protecting");
    util::add_scaled_checked(collateral_benefits, o.collateral_benefits, w,
                             "RootCauseStats::collateral_benefits");
    util::add_scaled_checked(collateral_damages, o.collateral_damages, w,
                             "RootCauseStats::collateral_damages");
    util::add_scaled_checked(happy_baseline, o.happy_baseline, w,
                             "RootCauseStats::happy_baseline");
    util::add_scaled_checked(happy_deployed, o.happy_deployed, w,
                             "RootCauseStats::happy_deployed");
    return *this;
  }
  [[nodiscard]] bool operator==(const RootCauseStats&) const = default;

  [[nodiscard]] double metric_change() const {
    return sources == 0 ? 0.0
                        : (static_cast<double>(happy_deployed) -
                           static_cast<double>(happy_baseline)) /
                              static_cast<double>(sources);
  }
};

/// Runs the three routing computations (normal with S, attacked with S,
/// attacked with S = emptyset) and buckets every source.
[[nodiscard]] RootCauseStats analyze_root_causes(const AsGraph& g,
                                                 routing::AsId d,
                                                 routing::AsId m,
                                                 routing::SecurityModel model,
                                                 const Deployment& dep);

/// Workspace variant: the three outcomes land in ws.normal, ws.primary
/// (attacked with S) and ws.baseline (attacked with S = emptyset).
[[nodiscard]] RootCauseStats analyze_root_causes(const AsGraph& g,
                                                 routing::AsId d,
                                                 routing::AsId m,
                                                 routing::SecurityModel model,
                                                 const Deployment& dep,
                                                 routing::EngineWorkspace& ws);

/// Fused-pipeline entry point: buckets every source using po.normal,
/// po.attacked and po.attacked_empty, adding the counts to `acc`.
void accumulate_into(const PairOutcomes& po, RootCauseStats& acc);

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_ROOTCAUSE_H
