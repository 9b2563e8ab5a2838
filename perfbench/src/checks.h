// Correctness checks the benchmark runs before (and around) any timing.
// Each returns an empty string on success and a description of the first
// divergence otherwise; the driver turns any non-empty result into a
// non-zero exit.
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "workloads.h"

namespace sbgp::sim {
class BatchExecutor;
}  // namespace sbgp::sim

namespace perfbench {

using Rows = std::vector<sbgp::sim::CampaignTrialRow>;

/// Per-trial rows as write_trial_rows_csv serializes them.
[[nodiscard]] std::string serialize_rows(const Rows& rows, bool weighted);

/// Exact per-column comparison (sim::diff_trial_rows); the report of the
/// first divergences when the row sets differ.
[[nodiscard]] std::string compare_rows(const Rows& expected,
                                       const Rows& actual);

/// The streamed CSV at `path` must be byte-identical to the end-of-run
/// writer's output for `rows` and read back (read_trial_rows_csv) to
/// exactly `rows`.
[[nodiscard]] std::string check_stream(const std::string& path,
                                       const Rows& rows, bool weighted);

/// Reproduces the committed baselines under `repo_root`:
/// baselines/tiny-500.csv (tiny-500, 2 trials, 6x6, four-spec mix) and
/// baselines/mini-caida.csv (tests/data/mini-caida.txt with
/// gravity,seed=7, 2 trials, 4x4).
[[nodiscard]] std::string preflight(const std::string& repo_root,
                                    sbgp::sim::BatchExecutor& exec);

/// For a seeded sample of destination groups of every spec of trial 0:
/// analyze_sweep's per-destination PairStats must equal a flat loop of
/// full-engine accumulate_pair_into calls (sweep_context 0).
[[nodiscard]] std::string check_sweep_differential(
    const Workload& w, std::uint64_t seed, sbgp::sim::BatchExecutor& exec);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
