// Shared per-pair routing state for the fused analysis pipeline.
//
// Every aggregate statistic of the paper's evaluation (happiness bounds,
// partitions, downgrades, collateral flips, root causes) is a function of
// the same handful of stable routing outcomes for one (attacker m,
// destination d, deployment S, model) instance. A PairOutcomes bundles
// non-owning views of those outcomes so each analysis can expose an
// accumulate_into(const PairOutcomes&, Stats&) entry point and the pipeline
// (sim/pair_analysis.h) can compute each outcome exactly once per pair,
// however many analyses are selected.
//
// Which slots an analysis reads:
//   happiness    attacked
//   partitions   partition
//   downgrades   normal, attacked, partition
//   collateral   attacked_empty, attacked
//   root causes  normal, attacked, attacked_empty
// Unused slots may stay null; each accumulate_into asserts what it needs.
//
// Fused changed-set contract (security 3rd, standard ladder)
// ----------------------------------------------------------
// Every analysis counts sources one at a time with a per-AS rule (the
// add_source overloads in each analysis header). Under security 3rd with
// the standard LP ladder, those rules read only five facts about v — a
// SourceKey: v's happiness status in `attacked` and in `attacked_empty`,
// whether its route is secure in `normal` and in `attacked`, and whether v
// is outside the deployment. The partition class is the attacked_empty
// status itself (App. E.1: PartitionContext::classify reads only v's own
// S = emptyset word; security_third_class). So a pair's counters depend
// only on how many sources carry each of the 128 keys (SourceKeyCounts),
// and each analysis's accumulate_keys evaluates its rule once per key.
//
// The twin-lane seeded delta (routing::compute_routing_seeded_twin_into)
// starts from the per-destination baselines `normal` ({d, kNoAs, model}
// under S) and `insecure_empty` ({d, kNoAs, kInsecure} under S = emptyset)
// and lists in ws.changed every AS whose packed word may differ in either
// lane: each at most once, m always, d never. Every unlisted v has
// attacked[v] == normal[v] and attacked_empty[v] == insecure_empty[v], so
// its key is its *baseline key* — its key over (normal, normal,
// insecure_empty). A pair's counts are therefore
//   baseline_key_counts (every v != d, once per destination)
//   - m's baseline key
//   + for each listed v != m: its pair key - its baseline key,
// which pair_key_counts computes in O(changed) instead of O(n). The
// standalone accumulate_into loops remain the oracle for every other path
// (uncached calls, hysteresis, security 1st/2nd, LPk ladders, kInsecure).
#ifndef SBGP_SECURITY_PAIR_OUTCOMES_H
#define SBGP_SECURITY_PAIR_OUTCOMES_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "routing/engine.h"
#include "routing/model.h"
#include "topology/as_graph.h"

namespace sbgp::security {

class PartitionContext;

/// Non-owning view of the routing outcomes computed for one attack instance
/// (m on d) under deployment `dep`. The pointed-to outcomes typically live
/// in a worker's routing::EngineWorkspace and are only valid until the next
/// pair is computed.
struct PairOutcomes {
  const topology::AsGraph* g = nullptr;
  topology::AsId d = topology::kNoAs;
  topology::AsId m = topology::kNoAs;
  const routing::Deployment* dep = nullptr;

  /// Stable state under attack with deployment S (query {d, m, model}).
  const routing::RoutingOutcome* attacked = nullptr;
  /// Stable state under normal conditions with S (query {d, kNoAs, model}).
  const routing::RoutingOutcome* normal = nullptr;
  /// Stable state under attack with S = emptyset ({d, m, kInsecure}).
  const routing::RoutingOutcome* attacked_empty = nullptr;
  /// Deployment-invariant partition classification for (d, m). The fused
  /// pipeline builds this with the standard LP ladder whenever the
  /// downgrade analysis is selected (matching analyze_downgrades).
  const PartitionContext* partition = nullptr;
};

/// The facts about one source that every security-3rd, standard-ladder
/// counting rule reads (see the contract above), packed into 7 bits.
struct SourceKey {
  /// Number of distinct keys (2 + 2 + 1 + 1 + 1 bits).
  static constexpr std::size_t kCount = 128;

  routing::HappyStatus attacked = routing::HappyStatus::kDisconnected;
  routing::HappyStatus attacked_empty = routing::HappyStatus::kDisconnected;
  bool secure_normal = false;    // secure route in `normal`
  bool secure_attacked = false;  // secure route in `attacked`
  bool outside = false;          // neither secure nor simplex in S

  [[nodiscard]] constexpr std::uint8_t code() const noexcept {
    return static_cast<std::uint8_t>(
        static_cast<unsigned>(attacked) |
        static_cast<unsigned>(attacked_empty) << 2 |
        static_cast<unsigned>(secure_normal) << 4 |
        static_cast<unsigned>(secure_attacked) << 5 |
        static_cast<unsigned>(outside) << 6);
  }
  [[nodiscard]] static constexpr SourceKey decode(std::size_t code) noexcept {
    return {static_cast<routing::HappyStatus>(code & 3u),
            static_cast<routing::HappyStatus>((code >> 2) & 3u),
            ((code >> 4) & 1u) != 0, ((code >> 5) & 1u) != 0,
            ((code >> 6) & 1u) != 0};
  }
};

/// How many sources carry each key (indexed by SourceKey::code()).
using SourceKeyCounts = std::array<std::uint32_t, SourceKey::kCount>;

/// Per-destination totals: the baseline key of every AS v != d over
/// (normal, normal, insecure_empty), counted. Throws std::invalid_argument
/// when the outcomes are not sized alike or d is out of range.
[[nodiscard]] SourceKeyCounts baseline_key_counts(
    const routing::RoutingOutcome& normal,
    const routing::RoutingOutcome& insecure_empty,
    const routing::Deployment& dep, topology::AsId d);

/// One pair's key counts over every source v != d, m, from the totals of
/// its destination and the twin delta's changed list (the contract above).
/// Reads po.d, po.m, po.dep, po.normal, po.attacked and po.attacked_empty;
/// `insecure_empty` and `totals` must be the destination's baseline and
/// baseline_key_counts. O(|changed|).
[[nodiscard]] SourceKeyCounts pair_key_counts(
    const PairOutcomes& po, const routing::RoutingOutcome& insecure_empty,
    std::span<const topology::AsId> changed, const SourceKeyCounts& totals);

/// Adds counts[k] copies of rule(key k) to `acc` for every key — the
/// evaluation behind each analysis's accumulate_keys. `rule(one, key)`
/// adds one source's contribution to a zeroed Stats.
template <class Stats, class Rule>
void add_key_counts(const SourceKeyCounts& counts, Stats& acc, Rule rule) {
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    Stats one;
    rule(one, SourceKey::decode(k));
    acc.add_scaled(one, counts[k]);
  }
}

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_PAIR_OUTCOMES_H
