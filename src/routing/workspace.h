// Reusable per-worker buffers for the staged-BFS routing engine.
//
// Aggregate experiments (H_{M,D}(S), Figures 3-16) run millions of
// independent Fix-Routes computations whose per-query state has the same
// shape every time: a handful of per-AS vectors and a frontier queue. An
// EngineWorkspace owns that state across queries so a long-lived worker
// (sim::BatchExecutor) allocates it once and every subsequent query only
// re-initializes values, never memory. The engine, baseline and
// reachability entry points all have workspace-taking variants; the
// original allocating signatures remain as thin wrappers.
#ifndef SBGP_ROUTING_WORKSPACE_H
#define SBGP_ROUTING_WORKSPACE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/bucket_queue.h"
#include "routing/engine.h"
#include "routing/reach.h"
#include "security/pair_outcomes.h"

namespace sbgp::routing {

/// Attacker-independent per-destination state cached across the pairs of
/// one destination group (sim/pair_analysis.h's analyze_sweep). Keyed by a
/// (sweep-context token, destination) pair: the token is minted per sweep
/// (or per campaign cell), so a stale slot from a previous group, sweep,
/// deployment or topology can never be mistaken for a hit. Token 0 means
/// "no caching" and is never a valid key.
struct DestBaselineSlot {
  std::uint64_t context = 0;  // sweep-context token; 0 = empty slot
  AsId destination = kNoAs;
  bool has_normal = false;
  bool has_insecure_empty = false;
  bool has_source_totals = false;
  /// Outcome of {destination, kNoAs, model} under the sweep's deployment —
  /// the `normal` outcome every analysis of the group shares, and the seed
  /// for compute_routing_seeded_into when the model admits it.
  RoutingOutcome normal;
  /// Outcome of {destination, kNoAs, kInsecure} under S = emptyset — the
  /// seed for the S = emptyset *attacked* outcome (always seedable), alone
  /// or as the twin lane next to `normal`.
  RoutingOutcome insecure_empty;
  /// Per-destination totals of the fused security-3rd scoring pass:
  /// security::baseline_key_counts over `normal` and `insecure_empty` —
  /// the summed baseline contribution of every AS v != destination, which
  /// each pair corrects for the ASes its twin delta changed
  /// (security/pair_outcomes.h). Computed lazily, like the outcomes.
  security::SourceKeyCounts source_totals{};
};

/// Long-lived scratch state for routing computations. Not thread-safe: one
/// workspace per worker. Buffers grow to the largest graph seen and are
/// reused (values reset, capacity kept) on every query.
///
/// Slot ownership rules
/// --------------------
/// The engine never decides where a result lives; the caller does, and the
/// conventions below keep one workspace sufficient for every fused
/// analysis:
///   - `primary` is the default target (the convenience overloads compute
///     into it). Nothing else writes it.
///   - `normal` holds a pre-attack state ({d, kNoAs, model}) that the
///     caller computes into it: the standalone downgrade and root-cause
///     analyses, and the fused pipeline when it does not cache per
///     destination. compute_routing_with_hysteresis_into only reads a
///     caller-given pre-attack state, so no engine entry point writes the
///     slot.
///   - `baseline` holds an S = emptyset state for the standalone paths:
///     a workspace-constructed security::PartitionContext (LPk ladders and
///     the classify_sources / analyze_downgrades helpers; security 1st
///     contexts use `reach_d` / `reach_m` instead), compute_baseline's
///     convenience overload, and the standalone analyze_collateral /
///     analyze_root_causes. The fused pipeline writes it only for LPk
///     partitions.
///   - `attacked_empty` is the fused pipeline's single S = emptyset
///     attacked state ({d, m, kInsecure}), computed at most once per pair
///     and read by collateral, root causes and the standard-ladder
///     security 2nd/3rd PartitionContext built over it. Under security
///     3rd in a grouped sweep the twin-lane delta
///     (compute_routing_seeded_twin_into) writes it together with
///     `primary`; under kInsecure the pipeline reads `primary` instead
///     and leaves the slot alone.
///   - `dest_baseline` is owned by the destination-grouped sweep
///     (sim::accumulate_pair_into with a non-zero sweep context); no
///     engine entry point touches it implicitly.
///   - A `result` argument passed to any *_into entry point must not alias
///     a slot the same call reads or clobbers (asserted where cheap).
/// Scratch members (`fixed`, `frontier`, `frontier2`, `touched`, `changed`,
/// `dirty`, `dist`, `rhs`, `seen`, `reach_*`) are invalidated by every
/// compute call; no caller may hold state in them across engine entry
/// points. One exception is read between calls: after a seeded call,
/// `changed` names every AS whose packed word may differ from its baseline
/// in any lane — each at most once, the attacker always, the destination
/// never — until the next compute call (see engine.h's seeded block).
class EngineWorkspace {
 public:
  EngineWorkspace() = default;
  explicit EngineWorkspace(std::size_t num_ases) { reserve(num_ases); }

  /// Pre-grows every buffer for graphs of `num_ases` ASes. Optional: the
  /// compute entry points size buffers on demand.
  void reserve(std::size_t num_ases);

  // --- Result slots -----------------------------------------------------
  // The engine computes into `primary` unless told otherwise; multi-outcome
  // analyses use `normal` (pre-attack state) and `baseline` (LP-ladder
  // S = emptyset state) so one workspace covers every security analysis.
  // The fused pair-analysis pipeline (sim/pair_analysis.h) keeps its
  // S = emptyset *attacked* outcome in `attacked_empty` (see the ownership
  // rules above).
  RoutingOutcome primary;
  RoutingOutcome normal;
  RoutingOutcome baseline;
  RoutingOutcome attacked_empty;

  /// Attacker-independent per-destination cache for grouped sweeps (see
  /// DestBaselineSlot above).
  DestBaselineSlot dest_baseline;

  // --- Staged-BFS engine scratch ---------------------------------------
  std::vector<std::uint8_t> fixed;  // per-AS "route fixed" flags
  BucketQueue frontier;             // stage frontier (bucket queue)

  // --- Seeded-engine delta scratch (compute_routing_seeded_into) --------
  BucketQueue frontier2;            // 2nd stage frontier (customer delta)
  std::vector<AsId> touched;           // peer-phase candidate list
  std::vector<AsId> changed;           // ASes whose word may differ (below)
  std::vector<AsId> dirty;             // provider-delta distance-change list
  std::vector<std::uint16_t> dist;     // provider-delta working lengths
  std::vector<std::uint32_t> rhs;      // provider-delta one-step lookaheads
  std::vector<std::uint64_t> seen;     // per-AS epoch stamps
  std::vector<std::uint8_t> seen_bits; // per-phase marks within an epoch
  std::uint64_t seen_epoch = 0;        // bumped once per seeded call

  // --- Perceivable-reachability scratch (partition analysis) ------------
  PerceivableDistances reach_d;  // distances toward the destination
  PerceivableDistances reach_m;  // distances toward the attacker
};

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_WORKSPACE_H
