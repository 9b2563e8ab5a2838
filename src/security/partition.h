// Deployment-invariant partitions: doomed / protectable / immune
// (Sections 4.3-4.4, Appendix E).
//
// For a fixed (attacker m, destination d) every source AS falls into one of
// three classes *independently of which ASes deploy S*BGP*:
//   doomed       routes to m for every deployment S,
//   immune       routes to d for every deployment S,
//   protectable  the outcome depends on S.
// Averaging immune (resp. not-doomed) fractions over pairs yields the lower
// (resp. upper) bound on H_{M,D}(S) over *all* S — the paper's Figure 3.
//
// Classification needs only perceivable-route structure:
//   security 3rd  compare best (LP class, length) toward d vs m (Cor. E.1);
//   security 2nd  compare best LP class toward d vs m (Cor. E.2);
//   security 1st  exact cut tests: doomed iff every perceivable route to d
//                 passes through m; immune iff every perceivable route to m
//                 passes through d (Observations E.3/E.4 — the paper
//                 approximates "everyone protectable"; we compute both).
// The LPk local-preference variant (Appendix K) replaces the LP class with
// the interleaved customer/peer rung ladder.
#ifndef SBGP_SECURITY_PARTITION_H
#define SBGP_SECURITY_PARTITION_H

#include <cstdint>
#include <vector>

#include "routing/engine.h"
#include "routing/model.h"
#include "routing/reach.h"
#include "security/pair_outcomes.h"
#include "topology/as_graph.h"
#include "util/checked.h"

namespace sbgp::security {

using routing::LocalPrefPolicy;
using routing::SecurityModel;
using topology::AsGraph;
using topology::AsId;

enum class PartitionClass : std::uint8_t {
  kDoomed = 0,
  kProtectable = 1,
  kImmune = 2,
};

/// Fractions over sources; always sum to 1 (over |V| - 2 sources).
struct PartitionShares {
  double doomed = 0.0;
  double protectable = 0.0;
  double immune = 0.0;

  PartitionShares& operator+=(const PartitionShares& o) {
    doomed += o.doomed;
    protectable += o.protectable;
    immune += o.immune;
    return *this;
  }
  PartitionShares& operator/=(double k) {
    doomed /= k;
    protectable /= k;
    immune /= k;
    return *this;
  }
};

/// Per-source classes for the pair (m, d). Entries for d and m themselves
/// are kImmune / kDoomed placeholders and excluded from share counts.
/// Sources that cannot perceivably reach either root are classified doomed
/// (they can never be happy). For kSecurityFirst the exact tests are used.
/// The baseline model (kInsecure) is rejected: partitions are only defined
/// for the three S*BGP models.
[[nodiscard]] std::vector<PartitionClass> classify_sources(
    const AsGraph& g, AsId d, AsId m, SecurityModel model,
    LocalPrefPolicy lp = LocalPrefPolicy::standard());

/// Convenience: classify + aggregate.
[[nodiscard]] PartitionShares partition_shares(
    const AsGraph& g, AsId d, AsId m, SecurityModel model,
    LocalPrefPolicy lp = LocalPrefPolicy::standard());

/// Integer class counts over sources — the exact (associative) form of
/// PartitionShares that batch runners accumulate per worker so merged
/// results are bit-for-bit independent of the thread count.
struct PartitionCounts {
  std::size_t doomed = 0;
  std::size_t protectable = 0;
  std::size_t immune = 0;
  std::size_t sources = 0;

  PartitionCounts& operator+=(const PartitionCounts& o) {
    doomed += o.doomed;
    protectable += o.protectable;
    immune += o.immune;
    sources += o.sources;
    return *this;
  }
  /// Adds `w` copies of `o` — traffic-weighted accumulation (sim/traffic.h).
  /// Throws std::overflow_error rather than wrap a counter past 2^64 - 1.
  PartitionCounts& add_scaled(const PartitionCounts& o, std::uint64_t w) {
    util::add_scaled_checked(doomed, o.doomed, w, "PartitionCounts::doomed");
    util::add_scaled_checked(protectable, o.protectable, w,
                             "PartitionCounts::protectable");
    util::add_scaled_checked(immune, o.immune, w, "PartitionCounts::immune");
    util::add_scaled_checked(sources, o.sources, w, "PartitionCounts::sources");
    return *this;
  }
  [[nodiscard]] bool operator==(const PartitionCounts&) const = default;

  [[nodiscard]] PartitionShares shares() const {
    PartitionShares s;
    if (sources == 0) return s;
    const auto n = static_cast<double>(sources);
    s.doomed = static_cast<double>(doomed) / n;
    s.protectable = static_cast<double>(protectable) / n;
    s.immune = static_cast<double>(immune) / n;
    return s;
  }
};

/// Counting rule for one source of the given class.
inline void add_source(PartitionCounts& acc, PartitionClass cls) {
  ++acc.sources;
  switch (cls) {
    case PartitionClass::kDoomed: ++acc.doomed; break;
    case PartitionClass::kProtectable: ++acc.protectable; break;
    case PartitionClass::kImmune: ++acc.immune; break;
  }
}

/// Security 3rd, standard ladder (Appendix E.1): the class of a source from
/// its own status in the S = emptyset attacked state. Its tie set decides:
/// only routes to d (happy) is immune, routes to both (either) is
/// protectable, and no route to d (unhappy, disconnected) is doomed.
[[nodiscard]] constexpr PartitionClass security_third_class(
    routing::HappyStatus empty_attacked) noexcept {
  switch (empty_attacked) {
    case routing::HappyStatus::kHappy: return PartitionClass::kImmune;
    case routing::HappyStatus::kEither: return PartitionClass::kProtectable;
    case routing::HappyStatus::kUnhappy:
    case routing::HappyStatus::kDisconnected: break;
  }
  return PartitionClass::kDoomed;
}

/// Deployment-invariant classification state for one (m, d) pair;
/// individual sources are then classified in O(deg(v)).
///
/// Security 2nd/3rd under the standard LP ladder classify off the
/// S = emptyset attacked stable state ({d, m, kInsecure} with no
/// deployment), reading only each AS's route type, length and reach flags.
/// The fused pipeline (sim/pair_analysis.h) already computes that state
/// once per pair — seeded from the per-destination S = emptyset baseline
/// in a grouped sweep — and hands it to the outcome-taking constructor, so
/// no per-pair partition computation remains there.
///
/// The workspace constructor computes its own invariant state into a
/// caller-provided EngineWorkspace (no allocation in steady state): the
/// LP-ladder baseline into ws.baseline for security 2nd/3rd (the only path
/// for LPk ladders), or two exclusion reachability passes into
/// ws.reach_d / ws.reach_m for security 1st.
class PartitionContext {
 public:
  /// Throws std::invalid_argument on a bad (d, m) pair or the kInsecure
  /// model (partitions are only defined for the S*BGP models).
  PartitionContext(const AsGraph& g, AsId d, AsId m, SecurityModel model,
                   LocalPrefPolicy lp, routing::EngineWorkspace& ws);

  /// Standard-ladder security 2nd/3rd context over a precomputed
  /// S = emptyset attacked outcome, which must outlive the context. Throws
  /// std::invalid_argument for security 1st or kInsecure, a bad (d, m)
  /// pair, or an outcome sized for a different graph.
  PartitionContext(const AsGraph& g, AsId d, AsId m, SecurityModel model,
                   const routing::RoutingOutcome& empty_attacked);

  [[nodiscard]] PartitionClass classify(AsId v) const;

  /// Classifies every source and aggregates the integer counts.
  [[nodiscard]] PartitionCounts counts() const;

 private:
  const AsGraph& g_;
  AsId d_;
  AsId m_;
  SecurityModel model_;
  LocalPrefPolicy lp_;
  // Security 2nd/3rd: the S = emptyset attacked stable state.
  const routing::RoutingOutcome* base_ = nullptr;
  // Security 1st: exclusion reachability (ws.reach_d / ws.reach_m).
  const routing::PerceivableDistances* to_d_avoiding_m_ = nullptr;
  const routing::PerceivableDistances* to_m_avoiding_d_ = nullptr;
};

/// Fused-pipeline entry point: classifies every source via po.partition and
/// adds the integer class counts to `acc`.
void accumulate_into(const PairOutcomes& po, PartitionCounts& acc);

/// Changed-set entry point (security/pair_outcomes.h; security 3rd,
/// standard ladder): adds the counts of a pair's source keys to `acc`.
void accumulate_keys(const SourceKeyCounts& counts, PartitionCounts& acc);

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_PARTITION_H
