// Declarative experiment suite over the fused pair-analysis pipeline.
//
// A Table-3- or Figure-16-style study is a cross product: scenario x
// rollout step x security model x LP policy x analysis set, evaluated over
// sampled (attacker, destination) pairs. An ExperimentSpec names one cell
// of that product; run_experiment_suite sweeps a list of specs on the
// BatchExecutor and returns labeled PairStats rows, computing every routing
// outcome once per pair regardless of how many analyses a spec selects.
// Scenarios are referenced by registry name (deployment/scenario.h), so a
// whole suite is data the caller can build programmatically or hard-code.
#ifndef SBGP_SIM_EXPERIMENT_H
#define SBGP_SIM_EXPERIMENT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "deployment/scenario.h"
#include "routing/model.h"
#include "sim/pair_analysis.h"
#include "sim/traffic.h"
#include "topology/as_graph.h"
#include "topology/tier.h"

namespace sbgp::sim {

/// Selects the last step of a scenario's rollout.
inline constexpr std::size_t kLastRolloutStep = static_cast<std::size_t>(-1);

/// One experiment: a deployment (scenario + rollout step), a policy model,
/// an analysis selection, and the pair sample to evaluate on.
struct ExperimentSpec {
  /// Row label; composed from the fields below when empty.
  std::string label;

  // --- deployment -------------------------------------------------------
  std::string scenario = "t1-t2";  // deployment::scenario_registry() name
  std::size_t rollout_step = kLastRolloutStep;
  deployment::StubMode stub_mode = deployment::StubMode::kFullSbgp;

  // --- policy / analyses ------------------------------------------------
  SecurityModel model = SecurityModel::kSecurityThird;
  LocalPrefPolicy lp = LocalPrefPolicy::standard();
  AnalysisSet analyses;
  bool hysteresis = false;  // Section 8 sticky-route variant

  // --- pair sample ------------------------------------------------------
  // Explicit sets win when non-empty; otherwise `num_attackers` non-stub
  // ASes and `num_destinations` arbitrary ASes are sampled with
  // `sample_seed` (and sample_seed + 1), mirroring the benches.
  std::vector<AsId> attackers;
  std::vector<AsId> destinations;
  std::size_t num_attackers = 40;
  std::size_t num_destinations = 40;
  std::uint64_t sample_seed = 4242;

  // --- traffic ----------------------------------------------------------
  /// Per-pair weight model feeding the w_* mirrors of PairStats. The
  /// default (uniform, scale 1) reproduces the classic unweighted sweep
  /// bit for bit.
  TrafficModel traffic;
};

/// Stable 64-bit fingerprint of an experiment spec (util::Fingerprint over
/// every field, in declaration order — including the label, which is
/// emitted into result rows). Identical across processes and platforms;
/// any single-field change yields a different value. The spec half of a
/// campaign-cache key (sim/campaign_cache.h).
[[nodiscard]] std::uint64_t spec_fingerprint(const ExperimentSpec& spec);

/// One result row of a suite run.
struct ExperimentRow {
  std::string label;       // spec label (or the composed default)
  std::string step_label;  // rollout step label, e.g. "T1+37xT2+stubs"
  SecurityModel model = SecurityModel::kInsecure;
  bool hysteresis = false;
  std::size_t num_non_stub_secure = 0;  // the x-axis of Figures 7/8/11
  std::size_t total_secure = 0;         // |S| including stubs and simplex
  std::size_t num_attackers = 0;
  std::size_t num_destinations = 0;
  PairStats stats;

  [[nodiscard]] bool operator==(const ExperimentRow&) const = default;
};

/// One spec resolved against a topology: the deployment to attack, the
/// sampled pair sets, the fused-pipeline config, and the result-row header
/// (stats still zero). `deployment` points into the owning resolver's
/// rollout cache and is valid for the resolver's lifetime.
struct ResolvedExperiment {
  PairAnalysisConfig cfg;
  const Deployment* deployment = nullptr;
  std::vector<AsId> attackers;
  std::vector<AsId> destinations;
  TrafficModel traffic;
  ExperimentRow header;
};

/// Resolves ExperimentSpecs against one topology, building each scenario's
/// rollout once per (scenario, stub mode) and reusing it across specs —
/// the per-topology stage shared by run_experiment_suite and the
/// multi-topology campaign driver (sim/campaign.h).
class ExperimentResolver {
 public:
  /// `sample_salt` perturbs the pair-sampling seeds: 0 (the default, used
  /// by every generated topology) samples with spec.sample_seed exactly as
  /// before; a non-zero salt — file-backed topologies pass their per-trial
  /// seed — mixes it into the effective seed so campaigns on a fixed graph
  /// still draw fresh pairs every trial.
  explicit ExperimentResolver(const AsGraph& g,
                              const topology::TierInfo& tiers,
                              std::uint64_t sample_salt = 0)
      : g_(g), tiers_(tiers), sample_salt_(sample_salt) {}

  ExperimentResolver(const ExperimentResolver&) = delete;
  ExperimentResolver& operator=(const ExperimentResolver&) = delete;

  /// Resolves one spec: builds or reuses the rollout, samples the pair
  /// sets, and fills the row header. Throws std::invalid_argument (naming
  /// the registered scenarios) on unknown scenario names, and on
  /// out-of-range rollout steps, empty analysis sets, pair samples with no
  /// valid (attacker != destination) pair, and uniform traffic models
  /// whose weighted counters could reach 2^53 (scale x (n - 1) x pairs),
  /// where weighted ratios would stop being exact copies of the unweighted
  /// ones.
  [[nodiscard]] ResolvedExperiment resolve(const ExperimentSpec& spec);

 private:
  const AsGraph& g_;
  const topology::TierInfo& tiers_;
  std::uint64_t sample_salt_ = 0;
  std::map<std::pair<std::string, deployment::StubMode>,
           std::vector<deployment::RolloutStep>>
      rollouts_;
};

/// Runs every spec over the fused pipeline. Rollouts are built once per
/// (scenario, stub mode) and reused across specs; rows come back in spec
/// order and are bit-for-bit independent of the thread count. Throws
/// std::invalid_argument on unknown scenario names, out-of-range rollout
/// steps, or empty analysis sets.
[[nodiscard]] std::vector<ExperimentRow> run_experiment_suite(
    const AsGraph& g, const topology::TierInfo& tiers,
    const std::vector<ExperimentSpec>& specs, const RunnerOptions& opts = {});

}  // namespace sbgp::sim

#endif  // SBGP_SIM_EXPERIMENT_H
