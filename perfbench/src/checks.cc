#include "checks.h"

#include <fstream>
#include <iterator>
#include <sstream>

#include "routing/workspace.h"
#include "sim/batch_executor.h"
#include "sim/campaign_diff.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/registry.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Destination groups sampled per spec, and attackers kept per group, by
// the sweep differential (full-engine pairs are several times dearer).
constexpr std::size_t kDiffGroups = 2;
constexpr std::size_t kDiffAttackers = 8;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Rows read_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return sbgp::sim::read_trial_rows_csv(in);
}

std::string reproduce(const std::string& what,
                      const sbgp::sim::CampaignSpec& campaign,
                      const std::string& baseline_path,
                      sbgp::sim::BatchExecutor& exec) {
  const auto result = sbgp::sim::run_campaign(campaign, {0, &exec});
  if (!result.failed_cells.empty()) {
    return what + ": " + std::to_string(result.failed_cells.size()) +
           " failed cell(s): " + result.failed_cells.front().error;
  }
  const std::string diff = compare_rows(read_rows(baseline_path),
                                        result.trial_rows);
  return diff.empty()
             ? ""
             : what + " diverges from " + baseline_path + ":\n" + diff;
}

}  // namespace

std::string serialize_rows(const Rows& rows, bool weighted) {
  std::ostringstream out;
  sbgp::sim::write_trial_rows_csv(out, rows, weighted);
  return out.str();
}

std::string compare_rows(const Rows& expected, const Rows& actual) {
  const auto report = sbgp::sim::diff_trial_rows(expected, actual);
  if (report.clean()) return "";
  std::ostringstream out;
  sbgp::sim::print_diff_report(out, report);
  return out.str();
}

std::string check_stream(const std::string& path, const Rows& rows,
                         bool weighted) {
  if (read_file(path) != serialize_rows(rows, weighted)) {
    return "streamed CSV " + path +
           " differs from write_trial_rows_csv of the end-of-run rows";
  }
  const std::string diff = compare_rows(rows, read_rows(path));
  return diff.empty() ? ""
                      : "streamed CSV " + path +
                            " does not round-trip through "
                            "read_trial_rows_csv:\n" +
                            diff;
}

std::string preflight(const std::string& repo_root,
                      sbgp::sim::BatchExecutor& exec) {
  sbgp::sim::CampaignSpec tiny;
  tiny.topology = "tiny-500";
  tiny.trials = 2;
  tiny.seed = 20130812;
  tiny.experiments = four_spec_mix(6);
  if (auto err = reproduce("tiny-500 preflight", tiny,
                           repo_root + "/baselines/tiny-500.csv", exec);
      !err.empty()) {
    return err;
  }

  sbgp::topology::register_topology_file(
      "mini-caida", repo_root + "/tests/data/mini-caida.txt");
  sbgp::sim::CampaignSpec caida = tiny;
  caida.topology = "mini-caida";
  caida.experiments = four_spec_mix(4);
  const auto gravity = sbgp::sim::parse_traffic_model("gravity,seed=7");
  for (auto& spec : caida.experiments) spec.traffic = gravity;
  return reproduce("mini-caida preflight", caida,
                   repo_root + "/baselines/mini-caida.csv", exec);
}

std::string check_sweep_differential(const Workload& w, std::uint64_t seed,
                                     sbgp::sim::BatchExecutor& exec) {
  const auto& c = w.campaign;
  const auto topo = sbgp::topology::generate_trial(c.topology, c.seed, 0);
  const auto tiers = topo.classify();
  sbgp::sim::ExperimentResolver resolver(topo.graph, tiers, topo.sample_salt);
  sbgp::routing::EngineWorkspace ws;
  std::uint64_t rng = sbgp::util::splitmix64(seed ^ 0xD1FFull);
  for (std::size_t s = 0; s < c.experiments.size(); ++s) {
    const auto re = resolver.resolve(c.experiments[s]);
    const auto plan =
        sbgp::sim::make_sweep_plan(re.attackers, re.destinations, re.traffic);
    sbgp::sim::SweepPlan sample;
    for (std::size_t k = 0; k < kDiffGroups; ++k) {
      rng = sbgp::util::splitmix64(rng);
      auto grp = plan.groups[rng % plan.groups.size()];
      if (grp.attackers.size() > kDiffAttackers) {
        grp.attackers.resize(kDiffAttackers);
        if (!grp.weights.empty()) grp.weights.resize(kDiffAttackers);
      }
      sample.groups.push_back(std::move(grp));
    }
    if (sample.num_pairs() == 0) continue;
    const auto swept = sbgp::sim::analyze_sweep(topo.graph, sample, re.cfg,
                                                *re.deployment, {0, &exec});
    for (std::size_t gi = 0; gi < sample.groups.size(); ++gi) {
      const auto& grp = sample.groups[gi];
      sbgp::sim::PairStats flat;
      for (std::size_t k = 0; k < grp.attackers.size(); ++k) {
        const std::uint64_t weight = grp.weights.empty() ? 1 : grp.weights[k];
        sbgp::sim::accumulate_pair_into(topo.graph, grp.destination,
                                        grp.attackers[k], re.cfg,
                                        *re.deployment, ws, 0, weight, flat);
      }
      if (!(flat == swept.per_destination[gi])) {
        return "analyze_sweep differs from the full engine for spec " +
               std::to_string(s) + ", destination " +
               std::to_string(grp.destination);
      }
    }
  }
  return "";
}

}  // namespace perfbench
