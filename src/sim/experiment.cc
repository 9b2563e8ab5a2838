#include "sim/experiment.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "sim/runner.h"
#include "util/hash.h"
#include "util/rng.h"

namespace sbgp::sim {

namespace {

std::string compose_label(const ExperimentSpec& spec,
                          const deployment::RolloutStep& step) {
  std::string label = spec.scenario;
  label += '/';
  label += step.label;
  label += ' ';
  label += to_string(spec.model);
  if (spec.hysteresis) label += " +hysteresis";
  return label;
}

}  // namespace

std::uint64_t spec_fingerprint(const ExperimentSpec& spec) {
  util::Fingerprint fp;
  fp.mix(std::string_view(spec.label))
      .mix(std::string_view(spec.scenario))
      .mix(static_cast<std::uint64_t>(spec.rollout_step))
      .mix(static_cast<std::uint64_t>(spec.stub_mode))
      .mix(static_cast<std::uint64_t>(spec.model))
      .mix(static_cast<std::uint64_t>(spec.lp.kind))
      .mix(static_cast<std::uint64_t>(spec.lp.k));
  std::uint64_t analysis_bits = 0;
  std::uint64_t bit = 1;
  for (const Analysis a : {Analysis::kHappiness, Analysis::kPartitions,
                           Analysis::kDowngrades, Analysis::kCollateral,
                           Analysis::kRootCause}) {
    if (spec.analyses.contains(a)) analysis_bits |= bit;
    bit <<= 1;
  }
  fp.mix(analysis_bits).mix(spec.hysteresis);
  fp.mix(static_cast<std::uint64_t>(spec.attackers.size()));
  for (const AsId a : spec.attackers) fp.mix(static_cast<std::uint64_t>(a));
  fp.mix(static_cast<std::uint64_t>(spec.destinations.size()));
  for (const AsId d : spec.destinations) fp.mix(static_cast<std::uint64_t>(d));
  return fp.mix(static_cast<std::uint64_t>(spec.num_attackers))
      .mix(static_cast<std::uint64_t>(spec.num_destinations))
      .mix(spec.sample_seed)
      .mix(static_cast<std::uint64_t>(spec.traffic.kind))
      .mix(spec.traffic.seed)
      .mix(spec.traffic.max_mass)
      .mix(spec.traffic.scale)
      .value();
}

ResolvedExperiment ExperimentResolver::resolve(const ExperimentSpec& spec) {
  if (spec.analyses.empty()) {
    throw std::invalid_argument("ExperimentResolver: spec '" + spec.label +
                                "' selects no analyses");
  }
  // Rollout construction touches every stub of every secured ISP; cache per
  // (scenario, stub mode) so sweeping models/analyses stays cheap.
  auto key = std::make_pair(spec.scenario, spec.stub_mode);
  auto it = rollouts_.find(key);
  if (it == rollouts_.end()) {
    it = rollouts_
             .emplace(std::move(key),
                      deployment::build_scenario(spec.scenario, g_, tiers_,
                                                 spec.stub_mode))
             .first;
  }
  const auto& steps = it->second;
  const std::size_t index = spec.rollout_step == kLastRolloutStep
                                ? steps.size() - 1
                                : spec.rollout_step;
  if (index >= steps.size()) {
    throw std::invalid_argument("ExperimentResolver: rollout step " +
                                std::to_string(spec.rollout_step) +
                                " out of range for scenario '" +
                                spec.scenario + "'");
  }
  const deployment::RolloutStep& step = steps[index];

  validate_traffic_model(spec.traffic);

  ResolvedExperiment re;
  // Salt 0 (every generated topology) keeps the historical sampling seeds
  // bit for bit; a file-backed topology's per-trial salt perturbs them so
  // repeated trials on the same graph draw fresh pairs.
  const std::uint64_t effective_seed =
      sample_salt_ == 0 ? spec.sample_seed
                        : util::splitmix64(spec.sample_seed ^ sample_salt_);
  re.attackers = !spec.attackers.empty()
                     ? spec.attackers
                     : sample_ases(non_stub_ases(g_), spec.num_attackers,
                                   effective_seed);
  re.destinations = !spec.destinations.empty()
                        ? spec.destinations
                        : sample_ases(all_ases(g_), spec.num_destinations,
                                      effective_seed + 1);
  if (re.attackers.empty() || re.destinations.empty() ||
      (re.attackers.size() == 1 && re.destinations.size() == 1 &&
       re.attackers.front() == re.destinations.front())) {
    throw std::invalid_argument("ExperimentResolver: spec '" + spec.label +
                                "' has no valid (attacker, destination) pair");
  }

  if (spec.traffic.kind == TrafficModel::Kind::kUniform) {
    // Uniform weights promise weighted ratios identical to the unweighted
    // ones (campaign.h), which holds only while every weighted counter is
    // an exact double: scale x (n - 1) sources x pairs must stay below
    // 2^53.
    std::uint64_t pairs = 0;
    for (const AsId d : re.destinations) {
      for (const AsId m : re.attackers) pairs += m != d ? 1 : 0;
    }
    std::uint64_t bound = 0;
    if (__builtin_mul_overflow(spec.traffic.scale, g_.num_ases() - 1,
                               &bound) ||
        __builtin_mul_overflow(bound, pairs, &bound) ||
        bound >= std::uint64_t{1} << 53) {
      throw std::invalid_argument(
          "ExperimentResolver: spec '" + spec.label + "' uniform scale " +
          std::to_string(spec.traffic.scale) + " x " +
          std::to_string(g_.num_ases() - 1) + " sources x " +
          std::to_string(pairs) +
          " pairs reaches 2^53: weighted ratios would no longer equal the "
          "unweighted ones exactly");
    }
  }

  re.cfg.analyses = spec.analyses;
  re.cfg.model = spec.model;
  re.cfg.lp = spec.lp;
  re.cfg.hysteresis = spec.hysteresis;
  re.deployment = &step.deployment;
  re.traffic = spec.traffic;

  re.header.label = spec.label.empty() ? compose_label(spec, step) : spec.label;
  re.header.step_label = step.label;
  re.header.model = spec.model;
  re.header.hysteresis = spec.hysteresis;
  re.header.num_non_stub_secure = step.num_non_stub_secure;
  re.header.total_secure = step.total_secure;
  re.header.num_attackers = re.attackers.size();
  re.header.num_destinations = re.destinations.size();
  return re;
}

std::vector<ExperimentRow> run_experiment_suite(
    const AsGraph& g, const topology::TierInfo& tiers,
    const std::vector<ExperimentSpec>& specs, const RunnerOptions& opts) {
  ExperimentResolver resolver(g, tiers);
  std::vector<ExperimentRow> rows;
  rows.reserve(specs.size());
  for (const auto& spec : specs) {
    ResolvedExperiment re = resolver.resolve(spec);
    ExperimentRow row = std::move(re.header);
    row.stats =
        analyze_sweep(
            g, make_sweep_plan(re.attackers, re.destinations, re.traffic),
            re.cfg, *re.deployment, opts)
            .total;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace sbgp::sim
