// The benchmark's workloads: each is one campaign (sim::CampaignSpec)
// whose every input — topology seeds, pair samples, the as-rel file of the
// file-backed workload — is derived from the run's --seed.
//
//   attack-sweep-10k  default-10k, one all-analyses security-3rd spec at
//                     the last t1-t2 step, many attackers per destination
//   rollout-file-10k  a peering-rich 10k-AS as-rel file written from the
//                     seed and loaded through the file-backed registry;
//                     happiness-only specs over the t1-t2 rollout steps x
//                     security 1st/2nd/3rd, few attackers per destination
//   cache-churn-500   tiny-500, a hundred trials of the four-spec mix of
//                     examples/run_campaign.cpp at 6x6, timed cold into an
//                     empty cache directory
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/campaign.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// The campaign one timed call runs (cache_dir left empty; the driver
  /// sets it per call).
  sbgp::sim::CampaignSpec campaign;
  /// True when the timed call itself is a cold run into an empty cache
  /// directory (cache-churn-500); otherwise the timed call has no cache.
  bool timed_with_cache = false;
  /// File-backed workloads: the as-rel file registered under
  /// campaign.topology by register_inputs().
  std::string topology_file;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The four-spec mix of examples/run_campaign.cpp at samples x samples —
/// the mix the committed baselines were produced with.
[[nodiscard]] std::vector<sbgp::sim::ExperimentSpec> four_spec_mix(
    std::size_t samples);

/// Builds the named workload from `seed`, writing any input file into
/// `work_dir`. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::string& work_dir);

/// Registers the workload's file-backed topology, if it has one (the
/// load the rollout-file workload's set-up time includes).
void register_inputs(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
