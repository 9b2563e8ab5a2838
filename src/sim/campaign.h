// Multi-topology experiment campaigns.
//
// The paper's headline numbers (Table 3, Figures 3-16) are statistics over
// one sampled AS graph; a production-scale reproduction sweeps many
// generated topologies and reports per-trial spread. A CampaignSpec is
// pure data: a topology::topology_registry() name, a trial count, a master
// seed, and the ExperimentSpec list to evaluate on every trial's topology.
//
// Scheduling: run_campaign submits trials in waves. Each wave flattens its
// trials' topology prep plus every (trial, spec, pair) work item — into a
// single BatchExecutor submission. Short specs no longer serialize behind
// long ones at per-spec run() barriers, and topology generation for later
// trials overlaps pair analysis of earlier ones: prep units occupy the
// lowest indices, so workers draining pair chunks of trial t while another
// worker is still generating trial t+1 is the steady state, not a special
// case. A fixed campaign (no target_stderr, no wave_size) is one wave —
// exactly the old single-submission schedule. With target_stderr set the
// wave barriers become sequential stopping points: after each wave every
// still-running spec folds the wave's per-trial metric values into its
// running util::Accumulators (Accumulator::merge, in wave order), and a
// spec whose every metric has std_error() <= target_stderr stops
// scheduling further trials — "as few trials as the precision target
// allows" instead of "as many as we budgeted".
//
// Determinism contract: trial t's topology is generated from
// topology::trial_seed(seed, topology, t) — reproducible in isolation —
// and all accumulation is per-worker integer partials merged in worker
// order, so per-trial rows are bit-for-bit identical to independent
// run_experiment_suite calls on the same generated topologies, for any
// worker count.
//
// Fault tolerance: by default a throwing unit fails only its own (trial,
// spec) cell (BatchExecutor::run_isolated); every other cell completes,
// is checkpointed into the cache the moment it finishes, and the failures
// come back as structured CampaignResult::failed_cells. Since failures
// are never cached and surviving rows never depend on them, a crashed,
// killed, or fault-injected run followed by a re-run with the same
// cache_dir converges to rows byte-identical to an undisturbed run.
// Sharded execution (shard i of N by cache-key fingerprint) and
// merge-only assembly build distributed campaigns on the same cache.
#ifndef SBGP_SIM_CAMPAIGN_H
#define SBGP_SIM_CAMPAIGN_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.h"
#include "sim/fault_injection.h"
#include "util/stats.h"

namespace sbgp::sim {

/// A whole multi-topology study as data: every trial generates a fresh
/// topology from the named registry entry and evaluates every experiment
/// spec on it. Experiment specs must sample their pair sets (explicit
/// attacker/destination AS lists are topology-specific and rejected).
struct CampaignSpec {
  std::string label;                     // defaults to the topology name
  std::string topology = "default-10k";  // topology::topology_registry() name
  std::size_t trials = 3;
  std::uint64_t seed = 20130812;  // master seed -> per-trial topology seeds
  std::vector<ExperimentSpec> experiments;
  /// When non-empty, a CampaignCache directory (sim/campaign_cache.h):
  /// run_campaign consults it per (trial, spec) cell before enqueuing the
  /// cell's pair grid — hits skip engine work entirely (a trial whose
  /// every cell hits is not even generated) — and persists every computed
  /// cell the moment it completes (fsync + atomic rename, so a killed
  /// process loses only in-flight cells and an identical re-run resumes
  /// from the hits). Rows served from cache are byte-identical to
  /// recomputed ones (the store round-trips raw integer counters).
  std::string cache_dir;
  /// Fail fast (the pre-isolation behavior): the first throwing unit
  /// aborts the whole batch and run_campaign rethrows it. Default is
  /// failure isolation — a throwing unit fails only its own (trial, spec)
  /// cell, every other cell completes and persists, and the failures come
  /// back in CampaignResult::failed_cells.
  bool strict = false;
  /// Sharded execution: with shard_count >= 2, this process computes only
  /// the (trial, spec) cells whose cache-key fingerprint maps to
  /// shard_index (cache_key_fingerprint(key) mod shard_count — stable
  /// across processes and platforms), and emits rows for those cells
  /// only. Requires cache_dir: N shards share one directory, and a
  /// merge_only run assembles the full row set from it. shard_count 0 or
  /// 1 = unsharded.
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  /// Assemble the final rows purely from cache hits: no topology is
  /// generated and no engine runs. Cells absent from the cache are
  /// reported in CampaignResult::failed_cells ("not in cache") instead of
  /// computed. Requires cache_dir; ignores sharding (a merge covers every
  /// cell).
  bool merge_only = false;
  /// Deterministic fault injection (sim/fault_injection.h) for tests and
  /// CI resilience jobs. When disabled (the default), the SBGP_FAULTS
  /// environment variable is consulted instead. Faults never change
  /// surviving results — failed cells are never cached and never emitted —
  /// and the spec takes no part in any fingerprint.
  FaultSpec fault_spec;
  /// Sequential stopping target (0 = disabled, the fixed-trial-count
  /// behavior). When > 0 the campaign runs adaptively: after every wave a
  /// spec whose 9 campaign_metrics all have accumulator std_error() <=
  /// target_stderr (with at least 2 trials) stops scheduling further
  /// trials and its aggregated row reports StoppingReason::kConverged.
  /// Specs still unconverged when the trial budget runs out report
  /// kBudget. Adaptive runs cannot be sharded or merge_only (stopping is
  /// a global decision), and the adaptive configuration is mixed into the
  /// per-cell cache fingerprints so cached cells are never served across
  /// different adaptive configs — fixed runs keep their existing keys.
  double target_stderr = 0.0;
  /// Trials per wave (0 = default: the whole budget in one wave when
  /// stopping is off — the classic schedule — or 4 when adaptive).
  /// Setting wave_size on a fixed campaign only partitions the schedule;
  /// the emitted rows are identical for any wave size.
  std::size_t wave_size = 0;
  /// Adaptive trial budget (0 = use `trials`). Only meaningful with
  /// target_stderr > 0; a spec that never converges stops here with
  /// StoppingReason::kBudget.
  std::size_t max_trials = 0;
};

/// Why a spec's trial scheduling ended. Serialized as the aggregated
/// `stopping_reason` column ("fixed" / "converged" / "budget").
enum class StoppingReason {
  kFixed,      // stopping disabled: ran the requested trial count
  kConverged,  // every metric's std_error() reached target_stderr
  kBudget,     // adaptive, but the trial budget ran out first
};

[[nodiscard]] std::string_view to_string(StoppingReason reason);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] StoppingReason parse_stopping_reason(std::string_view name);

/// Order-sensitive fingerprint of every result-affecting campaign field:
/// label, topology, trials, seed, the experiment list (count plus each
/// spec's fingerprint), and the adaptive config (target_stderr, wave_size,
/// max_trials). Execution-only knobs — cache_dir, strict, sharding,
/// merge_only, fault injection — take no part, by the same rule as
/// ExperimentSpec's fingerprint: equal fingerprints must imply equal rows.
[[nodiscard]] std::uint64_t spec_fingerprint(const CampaignSpec& campaign);

/// One (trial, experiment spec) result: the same row run_experiment_suite
/// would produce on that trial's topology, plus the campaign coordinates
/// that make the row self-describing in serialized form.
struct CampaignTrialRow {
  std::string topology;
  std::size_t trial = 0;
  std::uint64_t topology_seed = 0;  // topology::trial_seed(...) of this trial
  std::size_t spec_index = 0;       // index into CampaignSpec::experiments
  ExperimentRow row;

  [[nodiscard]] bool operator==(const CampaignTrialRow&) const = default;
};

/// Cross-trial summary of one derived metric.
struct MetricSummary {
  double mean = 0.0;
  double std_error = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] bool operator==(const MetricSummary&) const = default;
};

/// The derived per-row metrics a campaign aggregates across trials, in
/// campaign_metric_names() order. Metrics of unselected analyses are zero.
inline constexpr std::size_t kNumCampaignMetrics = 9;

/// Column names: happy_lower, happy_upper, doomed, protectable, immune,
/// downgraded, collateral_benefits, collateral_damages, metric_change.
[[nodiscard]] const std::array<std::string_view, kNumCampaignMetrics>&
campaign_metric_names();

/// Derived metric values of one row's statistics (fractions of the
/// relevant source populations; 0 when the analysis was not selected).
[[nodiscard]] std::array<double, kNumCampaignMetrics> campaign_metrics(
    const PairStats& stats);

/// Traffic-weighted counterparts: the same 9 ratios computed over the w_*
/// mirrors of PairStats. Under a uniform traffic model every ratio is the
/// identical double to its unweighted counterpart (the scale cancels
/// exactly — both operands stay below 2^53, which ExperimentResolver
/// enforces by rejecting larger uniform scales).
[[nodiscard]] std::array<double, kNumCampaignMetrics>
campaign_weighted_metrics(const PairStats& stats);

/// Index of a named metric in campaign_metric_names() order; throws
/// std::invalid_argument (listing the names) for unknown names.
[[nodiscard]] std::size_t campaign_metric_index(std::string_view name);

/// One experiment spec aggregated across every trial of a campaign.
struct CampaignRow {
  std::string label;  // trial 0's row label (step labels can vary per trial)
  std::string topology;
  std::size_t spec_index = 0;
  std::size_t trials = 0;  // trials that produced a row (failed ones don't)
  /// Cells of this spec that failed (or, merge-only, were missing) and
  /// therefore contribute nothing to the summaries. trials +
  /// failed_trials == the trials this spec actually scheduled (the full
  /// campaign trial count unless adaptive stopping ended it early).
  std::size_t failed_trials = 0;
  /// Why scheduling ended for this spec: kFixed unless the campaign ran
  /// adaptively (CampaignSpec::target_stderr > 0). With kConverged,
  /// `trials` is the realized count — how few trials the precision target
  /// needed, not how many were budgeted.
  StoppingReason stopping = StoppingReason::kFixed;
  std::array<MetricSummary, kNumCampaignMetrics> metrics;
  /// Traffic-weighted summaries (campaign_weighted_metrics across trials).
  /// Equal to `metrics` — value for value — whenever every experiment ran
  /// a uniform traffic model, including everything read back from files
  /// written before the weighted columns existed.
  std::array<MetricSummary, kNumCampaignMetrics> weighted_metrics;

  [[nodiscard]] bool operator==(const CampaignRow&) const = default;
};

/// One (trial, spec) cell that did not produce a row: a unit of the cell
/// threw (the first failure's message is kept), its trial's preparation
/// failed, or — in merge-only mode — the cell was absent from the cache.
struct FailedCell {
  std::size_t trial = 0;
  std::size_t spec_index = 0;
  std::string error;

  [[nodiscard]] bool operator==(const FailedCell&) const = default;
};

/// Everything a campaign produced: per-trial rows in (trial-major, spec
/// order) and one aggregated row per experiment spec.
struct CampaignResult {
  std::string label;
  std::string topology;
  std::uint64_t seed = 0;
  std::vector<CampaignTrialRow> trial_rows;
  std::vector<CampaignRow> rows;
  /// Cache outcome of this run (both 0 when CampaignSpec::cache_dir was
  /// empty): hits + misses == the cells this run was responsible for (all
  /// trials x experiments unsharded; this shard's cells otherwise), and
  /// misses is the number of cells that ran on the engine (or, merge-only,
  /// were found missing).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Cells that produced no row, in (trial, spec) order. Empty on a clean
  /// run, and always empty in strict mode (the failure was rethrown
  /// instead). Failures are never cached, so re-running the campaign with
  /// the same cache_dir retries exactly these cells.
  std::vector<FailedCell> failed_cells;
  /// Completed cells whose cache install failed (disk full, injected
  /// store fault). Their rows are still returned; only the checkpoint was
  /// lost, so an identical re-run recomputes just those cells.
  std::size_t cache_store_failures = 0;
};

/// Groups per-trial rows by spec index and summarizes every derived metric
/// across trials (mean/stderr/min/max via util::Accumulator). Rows must be
/// grouped as run_campaign emits them (all specs of trial 0, then trial 1,
/// ...); the output has one CampaignRow per distinct spec index.
[[nodiscard]] std::vector<CampaignRow> aggregate_trial_rows(
    const std::vector<CampaignTrialRow>& trial_rows);

/// Streaming result sink: called once per completed per-trial row, in
/// exactly the order CampaignResult::trial_rows will hold them (trial-
/// major, spec order — completed cells are buffered briefly so emission
/// order never depends on worker timing). Calls are serialized (never
/// concurrent) but come from worker threads while the campaign is still
/// running, so a sink wired to a campaign_io appender streams rows to
/// disk as each cell's last unit finishes instead of at end-of-run; for a
/// fixed run the streamed file is byte-identical to the end-of-run
/// writer's. Failed cells emit nothing. The sink must not call back into
/// the campaign.
using RowSink = std::function<void(const CampaignTrialRow&)>;

/// Runs the whole campaign in wave-sized BatchExecutor submissions (see
/// file comment; a fixed campaign is one wave), consulting the result
/// cache first when cache_dir is set and streaming completed rows through
/// `sink` when one is given. Unit failures are isolated per (trial, spec)
/// cell unless campaign.strict is set (then the first failure is
/// rethrown, as every failure during spec validation always is). Throws
/// std::invalid_argument — naming the registered topologies / scenarios —
/// on unknown names, and on empty trial or experiment lists, explicit
/// attacker/destination AS lists, empty analysis sets, bad shard,
/// merge-only or adaptive configurations, or (from trial preparation,
/// strict mode) out-of-range rollout steps.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& campaign,
                                          const RunnerOptions& opts = {},
                                          const RowSink& sink = {});

}  // namespace sbgp::sim

#endif  // SBGP_SIM_CAMPAIGN_H
