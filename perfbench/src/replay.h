// The traced run: the workload replayed stage by stage through the
// library's public functions on one thread, with a span around every call
// — trial generation and tier classification, spec resolution, each
// routing computation and security analysis of every pair (mirroring the
// cached path of sim::accumulate_pair_into), the cache and the per-trial
// CSV writer and reader. No span is recorded inside the library.
//
// The replay's rows must equal the untraced campaign's rows: the replay
// then accounts for exactly the work the campaign did.
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <string>
#include <vector>

#include "checks.h"
#include "sim/pair_analysis.h"
#include "trace.h"
#include "workloads.h"

namespace sbgp::sim {
class BatchExecutor;
}  // namespace sbgp::sim

namespace perfbench {

/// Replays `w` into `tracer`, using scratch files under `work_dir`, and
/// returns the per-trial rows it computed, in campaign order. Cache spans
/// are recorded only for workloads whose timed call uses the cache.
[[nodiscard]] Rows traced_replay(const Workload& w, Tracer& tracer,
                                 const std::string& work_dir);

/// The untraced reference for the replay's sweep stages: every cell of `w`
/// through sim::analyze_sweep on one worker of `exec`, timed around the
/// sweep calls only.
struct SweepBasis {
  double cpu_s = 0.0;   // thread CPU time of the sweep calls
  double wall_s = 0.0;  // wall time of the sweep calls
  std::vector<sbgp::sim::PairStats> cells;  // per cell, campaign order
};
[[nodiscard]] SweepBasis untraced_sweeps(const Workload& w,
                                         sbgp::sim::BatchExecutor& exec);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H
