// Fused per-pair analysis pipeline.
//
// The paper's evaluation derives many statistics — happiness bounds
// (Figures 4-12), partition shares (Figures 3, 6), protocol downgrades
// (Figure 13), collateral flips and root causes (Table 3, Figure 16) —
// from the *same* stable routing outcomes of each (attacker, destination,
// deployment, model) instance. Running each analysis standalone pays for
// the routing engine up to four times per pair; the fused pipeline computes
// every needed outcome exactly once per pair (into a worker's
// EngineWorkspace slots) and feeds all selected analyses from it via their
// security::accumulate_into entry points.
//
// Engine computations per pair, fused vs. standalone, all five analyses:
//   standalone  happiness 1 + partitions 1 + downgrades 3 + collateral 2
//               + root causes 3 = 10
//   fused       attacked + normal + S = emptyset attacked = 3 (the
//               standard-LP partition context for security 2nd/3rd reads
//               the S = emptyset attacked outcome; LPk and security 1st
//               partitions add their own invariant state, 4)
//
// On top of the fusing, the sweep API is *destination-grouped*: a SweepPlan
// organizes the pairs as DestinationGroup units so that every attacker of
// one destination runs on a workspace whose dest_baseline slot caches the
// attacker-independent outcomes ({d, kNoAs, model} under S, and
// {d, kNoAs, kInsecure} under S = emptyset). Those baselines are computed
// at most once per (destination, worker) and every attacked outcome the
// model admits is then derived incrementally from them
// (routing::compute_routing_seeded_into) — bit-for-bit identical to the
// full engine, several times cheaper per pair. The S = emptyset attacked
// outcome is computed at most once per pair and shared by collateral, root
// causes, and the partition and downgrade contexts. Under security 3rd
// (standard-ladder partitions or none), where one twin-lane delta derives
// both attacked outcomes, the pair is also scored without a pass over
// every AS: per-destination source-key totals, corrected for the ASes the
// delta changed, feed each analysis's accumulate_keys
// (security/pair_outcomes.h).
//
// Determinism contract: PairStats is all integers, so per-worker partials
// merge to bit-for-bit identical totals for any thread count (see
// BatchExecutor), and group-wise merging yields exactly the flat sweep's
// totals.
#ifndef SBGP_SIM_PAIR_ANALYSIS_H
#define SBGP_SIM_PAIR_ANALYSIS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "routing/model.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "sim/traffic.h"
#include "topology/as_graph.h"
#include "util/checked.h"

namespace sbgp::routing {
class EngineWorkspace;
}  // namespace sbgp::routing

namespace sbgp::sim {

using routing::AsId;
using routing::Deployment;
using routing::LocalPrefPolicy;
using routing::SecurityModel;
using topology::AsGraph;

class BatchExecutor;

/// One per-pair analysis of the paper's evaluation.
enum class Analysis : std::uint8_t {
  kHappiness = 1u << 0,   // happy-source bounds (Section 4.1)
  kPartitions = 1u << 1,  // doomed/protectable/immune (Sections 4.3-4.4)
  kDowngrades = 1u << 2,  // protocol downgrades (Section 5.3.1)
  kCollateral = 1u << 3,  // collateral benefits/damages (Section 6.1)
  kRootCause = 1u << 4,   // root-cause decomposition (Section 6.2)
};

/// Bitmask of analyses to fuse over one routing computation per pair.
class AnalysisSet {
 public:
  constexpr AnalysisSet() = default;
  constexpr AnalysisSet(Analysis a)  // NOLINT: implicit by design
      : bits_(static_cast<std::uint8_t>(a)) {}

  [[nodiscard]] static constexpr AnalysisSet all() {
    return AnalysisSet(Analysis::kHappiness) | Analysis::kPartitions |
           Analysis::kDowngrades | Analysis::kCollateral | Analysis::kRootCause;
  }

  [[nodiscard]] constexpr bool contains(Analysis a) const {
    return (bits_ & static_cast<std::uint8_t>(a)) != 0;
  }
  [[nodiscard]] constexpr bool intersects(AnalysisSet o) const {
    return (bits_ & o.bits_) != 0;
  }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }

  [[nodiscard]] constexpr AnalysisSet operator|(AnalysisSet o) const {
    AnalysisSet s;
    s.bits_ = bits_ | o.bits_;
    return s;
  }
  constexpr AnalysisSet& operator|=(AnalysisSet o) {
    bits_ |= o.bits_;
    return *this;
  }
  [[nodiscard]] constexpr bool operator==(const AnalysisSet&) const = default;

 private:
  std::uint8_t bits_ = 0;
};

[[nodiscard]] constexpr AnalysisSet operator|(Analysis a, Analysis b) {
  return AnalysisSet(a) | AnalysisSet(b);
}

/// What to compute for every pair. The deployment is passed separately so
/// one config can sweep many deployments.
struct PairAnalysisConfig {
  AnalysisSet analyses;
  SecurityModel model = SecurityModel::kSecurityThird;
  /// LP ladder for the *partition* analysis only (Appendix K); the routing
  /// engine and the downgrade immunity check always use the standard
  /// ladder, matching the standalone analyses.
  LocalPrefPolicy lp = LocalPrefPolicy::standard();
  /// Section 8 extension: compute the under-attack outcome with sticky
  /// secure routes (compute_routing_with_hysteresis).
  bool hysteresis = false;
};

/// Accumulated statistics of every analysis over a set of pairs. Only the
/// members of the selected analyses are populated; all counters are exact
/// integers, so merging per-worker partials is thread-count-independent.
///
/// Every analysis is accumulated twice: the classic pair-counted totals
/// and a traffic-weighted mirror (w_*) where each pair contributes its
/// sim/traffic.h weight-many copies. `weight` is the sum of pair weights —
/// the weighted analogue of `pairs`. Under a weight-1 model the mirrors
/// are bit-for-bit copies of the unweighted counters.
struct PairStats {
  std::size_t pairs = 0;
  security::HappyTotals happiness;
  security::PartitionCounts partitions;
  security::DowngradeStats downgrades;
  security::CollateralStats collateral;
  security::RootCauseStats root_causes;

  std::size_t weight = 0;  // sum of pair weights
  security::HappyTotals w_happiness;
  security::PartitionCounts w_partitions;
  security::DowngradeStats w_downgrades;
  security::CollateralStats w_collateral;
  security::RootCauseStats w_root_causes;

  PairStats& operator+=(const PairStats& o) {
    pairs += o.pairs;
    happiness += o.happiness;
    partitions += o.partitions;
    downgrades += o.downgrades;
    collateral += o.collateral;
    root_causes += o.root_causes;
    // Weighted sums can approach 2^64 (sim/traffic.h); merge them checked.
    util::add_scaled_checked(weight, o.weight, 1, "PairStats::weight");
    w_happiness.add_scaled(o.w_happiness, 1);
    w_partitions.add_scaled(o.w_partitions, 1);
    w_downgrades.add_scaled(o.w_downgrades, 1);
    w_collateral.add_scaled(o.w_collateral, 1);
    w_root_causes.add_scaled(o.w_root_causes, 1);
    return *this;
  }
  [[nodiscard]] bool operator==(const PairStats&) const = default;
};

/// One (attacker, destination) instance of a pair sweep.
struct AttackPair {
  AsId attacker;
  AsId destination;
  std::size_t dest_index;  // index of the destination in the sampled set
};

/// Flattens attackers x destinations into the pair list, skipping
/// attacker == destination instances (an AS cannot hijack its own prefix).
/// Throws std::invalid_argument if either set is empty or no valid pair
/// remains. Mostly superseded by make_sweep_plan for sweeps; still the
/// right shape for callers that schedule pairs themselves.
[[nodiscard]] std::vector<AttackPair> make_attack_pairs(
    const std::vector<AsId>& attackers, const std::vector<AsId>& destinations);

/// All attackers targeting one destination — the scheduling unit of
/// analyze_sweep. Attackers never contain the destination itself.
struct DestinationGroup {
  AsId destination = routing::kNoAs;
  std::size_t dest_index = 0;  // index in the sampled destination set
  std::vector<AsId> attackers;
  /// Per-pair traffic weights, parallel to `attackers`. Empty means every
  /// pair weighs 1 (the classic unweighted sweep); otherwise the size must
  /// match `attackers` (analyze_sweep throws on a mismatch).
  std::vector<std::uint64_t> weights;
};

/// A pair sweep, grouped by destination. Groups keep the destination
/// set's order (one group per destination, possibly with no attackers
/// left after the == skip) so per-destination results align with the
/// original sample.
struct SweepPlan {
  std::vector<DestinationGroup> groups;

  [[nodiscard]] std::size_t num_pairs() const {
    std::size_t n = 0;
    for (const auto& grp : groups) n += grp.attackers.size();
    return n;
  }
};

/// Groups attackers x destinations by destination, skipping
/// attacker == destination instances. Throws std::invalid_argument if
/// either set is empty or no valid pair remains.
[[nodiscard]] SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                                        const std::vector<AsId>& destinations);

/// Traffic-weighted variant: additionally fills each group's `weights` with
/// pair_weight(traffic, attacker, destination). When the model is trivial
/// (uniform, scale 1) the weights stay empty, so the plan — and everything
/// downstream — is bit-for-bit the unweighted plan. Throws
/// std::invalid_argument on an invalid traffic model or an empty pair set.
[[nodiscard]] SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                                        const std::vector<AsId>& destinations,
                                        const TrafficModel& traffic);

/// Mints a fresh sweep-context token (process-wide, never 0, never
/// reused). Pass it to accumulate_pair_into for every pair of one
/// (deployment, config, destination-grouped) sweep to activate the
/// per-destination baseline cache in the workspace's dest_baseline slot;
/// analyze_sweep and the campaign scheduler do this internally.
[[nodiscard]] std::uint64_t next_sweep_context();

/// Runs every selected analysis for the single pair (m on d), computing
/// each required routing outcome at most once into `ws`, and adds the
/// results to `acc`. Requires d != m and a non-empty analysis set (throws
/// std::invalid_argument otherwise; partition/downgrade analyses also
/// reject SecurityModel::kInsecure, matching PartitionContext).
///
/// `sweep_context` controls the attacker-independent baseline cache in
/// ws.dest_baseline: 0 disables it (every outcome computed from scratch);
/// a token from next_sweep_context() lets consecutive calls with the same
/// (token, d) reuse the no-attack baselines and derive attacked outcomes
/// incrementally. The caller must mint a fresh token whenever the graph,
/// deployment or config changes; results are bit-for-bit identical either
/// way.
/// Traffic-weighted variant: the pair additionally contributes `weight`
/// copies of its per-analysis counts to the w_* mirrors (and `weight` to
/// acc.weight). The unweighted counters are accumulated identically to the
/// unweighted overload — a weight-1 call leaves acc bit-for-bit as if the
/// unweighted overload had run with mirrors kept equal.
void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                          const PairAnalysisConfig& cfg, const Deployment& dep,
                          routing::EngineWorkspace& ws,
                          std::uint64_t sweep_context, std::uint64_t weight,
                          PairStats& acc);

/// Unit-weight overload.
inline void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                                 const PairAnalysisConfig& cfg,
                                 const Deployment& dep,
                                 routing::EngineWorkspace& ws,
                                 std::uint64_t sweep_context, PairStats& acc) {
  accumulate_pair_into(g, d, m, cfg, dep, ws, sweep_context, 1, acc);
}

/// Uncached convenience overload (sweep_context = 0, weight 1).
inline void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                                 const PairAnalysisConfig& cfg,
                                 const Deployment& dep,
                                 routing::EngineWorkspace& ws,
                                 PairStats& acc) {
  accumulate_pair_into(g, d, m, cfg, dep, ws, 0, 1, acc);
}

/// Worker cap / executor choice for a batch call (shared by the runners,
/// the fused pipeline and the experiment suite).
struct RunnerOptions {
  /// Worker cap for this call: 0 = every worker of the executor. (Results
  /// are bit-for-bit independent of this value — batch calls accumulate
  /// per-worker integer partials and merge them deterministically.)
  std::size_t threads = 0;
  /// Executor to run on; nullptr = the process-wide BatchExecutor::shared().
  /// Workers and their routing workspaces persist across calls.
  BatchExecutor* executor = nullptr;
};

/// Result of one destination-grouped sweep. `per_destination[i]` holds the
/// merged stats of plan.groups[i] (zero-valued for attacker-less groups);
/// `total` is their sum, bit-for-bit equal to the historical flat sweep.
struct SweepResult {
  PairStats total;
  std::vector<PairStats> per_destination;
};

/// Fused destination-grouped sweep on a BatchExecutor: schedules whole
/// groups (chunks of one destination's attackers) so each worker computes
/// the attacker-independent baselines once per destination and derives
/// every admissible attacked outcome incrementally from them. Results are
/// bit-for-bit independent of thread count, chunking and group order.
/// Throws std::invalid_argument on an empty plan, a pair-less plan, or a
/// group whose attackers contain its own destination.
[[nodiscard]] SweepResult analyze_sweep(const AsGraph& g,
                                        const SweepPlan& plan,
                                        const PairAnalysisConfig& cfg,
                                        const Deployment& dep,
                                        const RunnerOptions& opts = {});

}  // namespace sbgp::sim

#endif  // SBGP_SIM_PAIR_ANALYSIS_H
