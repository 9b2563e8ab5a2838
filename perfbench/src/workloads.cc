#include "workloads.h"

#include <fstream>
#include <stdexcept>

#include "topology/io.h"
#include "topology/registry.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using sbgp::routing::SecurityModel;
using sbgp::sim::Analysis;
using sbgp::sim::AnalysisSet;
using sbgp::sim::ExperimentSpec;

// Attack sweep: 48 non-stub attackers x 48 destinations, so each
// destination's baselines amortize over many seeded attacks. A pair's
// cost depends mostly on its destination, so the run needs many
// destinations to be steady across seeds. One trial: a generated
// topology's trials all sample with the same seed, so extra trials would
// repeat the sample instead of averaging it.
constexpr std::size_t kSweepAttackers = 48;
constexpr std::size_t kSweepDestinations = 48;
constexpr std::size_t kSweepTrials = 1;

// Rollout file: 8 attackers x 48 destinations per spec — few attackers
// per destination, so baselines and full recomputes dominate.
constexpr std::size_t kRolloutAttackers = 8;
constexpr std::size_t kRolloutDestinations = 48;
constexpr std::size_t kRolloutSteps = 3;  // t1-t2: 13, 37, all Tier 2s

// Cache churn: many small cells (100 trials x 4 specs), so per-cell
// cache and I/O costs show. A call takes about half a second, so a run
// gets enough repetitions for a steady median despite fsync noise.
constexpr std::size_t kChurnTrials = 100;
constexpr std::size_t kChurnSamples = 6;

// Name the rollout file's topology is registered under.
constexpr const char* kRolloutTopology = "perfbench-rollout";

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return sbgp::util::splitmix64(seed * 0x9E3779B97F4A7C15ull + stream);
}

ExperimentSpec spec(const char* scenario, SecurityModel model,
                    AnalysisSet analyses, std::size_t attackers,
                    std::size_t destinations, std::uint64_t sample_seed) {
  ExperimentSpec s;
  s.scenario = scenario;
  s.model = model;
  s.analyses = analyses;
  s.num_attackers = attackers;
  s.num_destinations = destinations;
  s.sample_seed = sample_seed;
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "attack-sweep-10k", "rollout-file-10k", "cache-churn-500"};
  return names;
}

std::vector<ExperimentSpec> four_spec_mix(std::size_t samples) {
  const std::uint64_t seed = ExperimentSpec{}.sample_seed;
  return {
      spec("t1-t2", SecurityModel::kSecurityThird, AnalysisSet::all(),
           samples, samples, seed),
      spec("t1-t2", SecurityModel::kSecurityFirst,
           Analysis::kHappiness | Analysis::kPartitions, samples, samples,
           seed),
      spec("top13-t2-stubs", SecurityModel::kSecuritySecond,
           Analysis::kHappiness, samples, samples, seed),
      spec("empty", SecurityModel::kInsecure, Analysis::kHappiness, samples,
           samples, seed),
  };
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir) {
  Workload w;
  w.name = name;
  w.campaign.label = name;
  w.campaign.seed = derive(seed, 1);
  const std::uint64_t sample_seed = derive(seed, 2);
  if (name == "attack-sweep-10k") {
    w.campaign.topology = "default-10k";
    w.campaign.trials = kSweepTrials;
    w.campaign.experiments = {spec("t1-t2", SecurityModel::kSecurityThird,
                                   AnalysisSet::all(), kSweepAttackers,
                                   kSweepDestinations, sample_seed)};
  } else if (name == "rollout-file-10k") {
    // A fresh peering-rich graph per seed, written as a CAIDA serial-2
    // file: the campaign then runs on the real-data ingestion path.
    auto params = sbgp::topology::topology_params("peering-rich");
    params.seed = derive(seed, 3);
    const auto topo = sbgp::topology::generate_internet(params);
    w.topology_file = work_dir + "/rollout-as-rel.txt";
    {
      std::ofstream out(w.topology_file);
      sbgp::topology::write_as_rel(out, topo.graph);
      if (!out) {
        throw std::runtime_error("cannot write " + w.topology_file);
      }
    }
    w.campaign.topology = kRolloutTopology;
    w.campaign.trials = 1;
    // Full deployment first: its security 1st spec leads, and with most
    // destinations signed it is full recomputes, whose cost hardly depends
    // on which eight attackers were drawn — so the first row is steady.
    for (std::size_t step = kRolloutSteps; step-- > 0;) {
      for (const auto model :
           {SecurityModel::kSecurityFirst, SecurityModel::kSecuritySecond,
            SecurityModel::kSecurityThird}) {
        // Each spec draws its own pair sample: with so few attackers per
        // spec, one shared sample would make the run's cost hinge on
        // eight ASes.
        auto s = spec("t1-t2", model, Analysis::kHappiness, kRolloutAttackers,
                      kRolloutDestinations,
                      derive(sample_seed, w.campaign.experiments.size()));
        s.rollout_step = step;
        w.campaign.experiments.push_back(std::move(s));
      }
    }
  } else if (name == "cache-churn-500") {
    w.campaign.topology = "tiny-500";
    w.campaign.trials = kChurnTrials;
    w.campaign.experiments = four_spec_mix(kChurnSamples);
    for (auto& s : w.campaign.experiments) s.sample_seed = sample_seed;
    w.timed_with_cache = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

void register_inputs(const Workload& w) {
  if (!w.topology_file.empty()) {
    sbgp::topology::register_topology_file(w.campaign.topology,
                                           w.topology_file);
  }
}

}  // namespace perfbench
