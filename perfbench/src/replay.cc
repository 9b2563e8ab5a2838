#include "replay.h"

#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "routing/workspace.h"
#include "security/pair_outcomes.h"
#include "sim/batch_executor.h"
#include "sim/campaign_cache.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "topology/registry.h"

namespace perfbench {

namespace {

using sbgp::routing::AsId;
using sbgp::routing::EngineWorkspace;
using sbgp::routing::kNoAs;
using sbgp::routing::Query;
using sbgp::routing::RoutingOutcome;
using sbgp::routing::SecurityModel;
using sbgp::sim::Analysis;
using sbgp::sim::AnalysisSet;
using sbgp::sim::PairStats;

namespace fs = std::filesystem;

// The outcome slots each analysis reads (security/pair_outcomes.h), as in
// the fused pipeline.
constexpr AnalysisSet kNeedsAttacked =
    Analysis::kHappiness | Analysis::kDowngrades | Analysis::kCollateral |
    Analysis::kRootCause;
constexpr AnalysisSet kNeedsNormal =
    Analysis::kDowngrades | Analysis::kRootCause;
constexpr AnalysisSet kNeedsAttackedEmpty =
    Analysis::kCollateral | Analysis::kRootCause;

/// The attacker-independent outcomes of one destination group, computed
/// on first use — the replay's copy of the workspace's dest_baseline slot.
struct DestBaselines {
  AsId destination = kNoAs;
  bool has_normal = false;
  bool has_insecure_empty = false;
  RoutingOutcome normal;
  RoutingOutcome insecure_empty;
};

/// Runs one analysis's accumulate_into under its span and folds the local
/// counts into both the plain and the weighted totals.
template <typename Stats>
void accumulate(Tracer& tr, std::string_view stage,
                const sbgp::security::PairOutcomes& po, std::uint64_t weight,
                Stats& total, Stats& w_total) {
  const ScopedSpan span(tr, stage);
  Stats local;
  sbgp::security::accumulate_into(po, local);
  total += local;
  w_total.add_scaled(local, weight);
}

/// One pair, stage by stage: the cached-baseline path of
/// sim::accumulate_pair_into, with every routing computation and analysis
/// in its own span.
void replay_pair(const sbgp::topology::AsGraph& g, AsId d, AsId m,
                 const sbgp::sim::PairAnalysisConfig& cfg,
                 const sbgp::routing::Deployment& dep, EngineWorkspace& ws,
                 DestBaselines& db, std::uint64_t weight, PairStats& acc,
                 Tracer& tr) {
  ++acc.pairs;
  acc.weight += weight;
  if (db.destination != d) {
    db.destination = d;
    db.has_normal = false;
    db.has_insecure_empty = false;
  }
  const auto ensure_normal = [&]() -> const RoutingOutcome& {
    if (!db.has_normal) {
      const ScopedSpan span(tr, "routing.baseline_normal");
      sbgp::routing::compute_routing_into(g, {d, kNoAs, cfg.model}, dep, ws,
                                          db.normal);
      db.has_normal = true;
    }
    return db.normal;
  };

  sbgp::security::PairOutcomes po;
  po.g = &g;
  po.d = d;
  po.m = m;
  po.dep = &dep;

  if (cfg.analyses.intersects(kNeedsAttacked)) {
    const Query q{d, m, cfg.model};
    if (sbgp::routing::routing_seed_applicable(q, dep)) {
      const RoutingOutcome& normal = ensure_normal();
      const ScopedSpan span(tr, "routing.attacked_seeded");
      sbgp::routing::compute_routing_seeded_into(g, q, dep, ws, normal,
                                                 ws.primary);
    } else {
      const ScopedSpan span(tr, "routing.attacked_full");
      sbgp::routing::compute_routing_into(g, q, dep, ws, ws.primary);
    }
    po.attacked = &ws.primary;
  }
  if (cfg.analyses.intersects(kNeedsNormal)) po.normal = &ensure_normal();

  const bool wants_partitions = cfg.analyses.contains(Analysis::kPartitions);
  const bool wants_downgrades = cfg.analyses.contains(Analysis::kDowngrades);
  const bool lp_standard =
      cfg.lp.kind == sbgp::routing::LocalPrefPolicy::Kind::kStandard;
  std::optional<sbgp::security::PartitionContext> partition;
  if (wants_partitions) {
    {
      const ScopedSpan span(tr, "security.partition_context");
      partition.emplace(g, d, m, cfg.model, cfg.lp, ws);
    }
    po.partition = &*partition;
    accumulate(tr, "security.accumulate.partitions", po, weight,
               acc.partitions, acc.w_partitions);
  }
  if (wants_downgrades && (!partition || !lp_standard)) {
    const ScopedSpan span(tr, "security.partition_context");
    partition.emplace(g, d, m, cfg.model,
                      sbgp::routing::LocalPrefPolicy::standard(), ws);
  }

  if (cfg.analyses.intersects(kNeedsAttackedEmpty)) {
    if (partition && (wants_downgrades || lp_standard) &&
        cfg.model != SecurityModel::kSecurityFirst) {
      // The standard-LP partition state is the S = emptyset attacked
      // outcome (ws.baseline), as in the fused pipeline.
      po.attacked_empty = &ws.baseline;
    } else {
      if (!db.has_insecure_empty) {
        const ScopedSpan span(tr, "routing.baseline_insecure");
        sbgp::routing::compute_routing_into(
            g, {d, kNoAs, SecurityModel::kInsecure}, {}, ws,
            db.insecure_empty);
        db.has_insecure_empty = true;
      }
      const ScopedSpan span(tr, "routing.empty_seeded");
      sbgp::routing::compute_routing_seeded_into(
          g, {d, m, SecurityModel::kInsecure}, {}, ws, db.insecure_empty,
          ws.attacked_empty);
      po.attacked_empty = &ws.attacked_empty;
    }
  }

  if (cfg.analyses.contains(Analysis::kHappiness)) {
    accumulate(tr, "security.accumulate.happiness", po, weight,
               acc.happiness, acc.w_happiness);
  }
  if (wants_downgrades) {
    po.partition = &*partition;
    accumulate(tr, "security.accumulate.downgrades", po, weight,
               acc.downgrades, acc.w_downgrades);
  }
  if (cfg.analyses.contains(Analysis::kCollateral)) {
    accumulate(tr, "security.accumulate.collateral", po, weight,
               acc.collateral, acc.w_collateral);
  }
  if (cfg.analyses.contains(Analysis::kRootCause)) {
    accumulate(tr, "security.accumulate.root_causes", po, weight,
               acc.root_causes, acc.w_root_causes);
  }
}

/// One cell's destination-grouped sweep on the calling thread — the
/// replay's counterpart of sim::analyze_sweep.
PairStats replay_sweep(const sbgp::topology::AsGraph& g,
                       const sbgp::sim::ResolvedExperiment& re,
                       EngineWorkspace& ws, Tracer& tr) {
  if (re.cfg.hysteresis) {
    throw std::invalid_argument(
        "traced replay: hysteresis specs are not mirrored");
  }
  const ScopedSpan span(tr, "sim.sweep");
  const auto plan =
      sbgp::sim::make_sweep_plan(re.attackers, re.destinations, re.traffic);
  PairStats total;
  DestBaselines db;
  for (const auto& grp : plan.groups) {
    PairStats group_stats;
    for (std::size_t k = 0; k < grp.attackers.size(); ++k) {
      const std::uint64_t weight = grp.weights.empty() ? 1 : grp.weights[k];
      replay_pair(g, grp.destination, grp.attackers[k], re.cfg,
                  *re.deployment, ws, db, weight, group_stats, tr);
    }
    total += group_stats;
  }
  return total;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Rows traced_replay(const Workload& w, Tracer& tr, const std::string& work_dir) {
  const auto& c = w.campaign;
  const ScopedSpan root(tr, "replay");
  if (!w.topology_file.empty()) {
    const ScopedSpan span(tr, "topology.load_file");
    register_inputs(w);
  }
  std::optional<sbgp::sim::CampaignCache> cache;
  if (w.timed_with_cache) {
    const std::string dir = work_dir + "/replay-cache";
    fs::remove_all(dir);
    cache.emplace(dir);
  }
  const std::string stream_path = work_dir + "/replay-stream.csv";
  std::ofstream stream(stream_path);
  sbgp::sim::TrialRowCsvAppender appender(stream);

  const std::uint64_t topo_fp =
      sbgp::topology::topology_fingerprint(c.topology);
  std::vector<sbgp::sim::CacheKey> keys;
  Rows rows;
  EngineWorkspace ws;
  for (std::size_t t = 0; t < c.trials; ++t) {
    sbgp::topology::GeneratedTopology topo;
    {
      const ScopedSpan span(tr, "topology.generate_trial");
      topo = sbgp::topology::generate_trial(c.topology, c.seed, t);
    }
    sbgp::topology::TierInfo tiers;
    {
      const ScopedSpan span(tr, "topology.classify");
      tiers = topo.classify();
    }
    sbgp::sim::ExperimentResolver resolver(topo.graph, tiers, topo.sample_salt);
    const std::uint64_t trial_seed =
        sbgp::topology::trial_seed(c.seed, c.topology, t);
    for (std::size_t s = 0; s < c.experiments.size(); ++s) {
      const sbgp::sim::CacheKey key{
          topo_fp, trial_seed, sbgp::sim::spec_fingerprint(c.experiments[s])};
      if (cache) {
        const ScopedSpan span(tr, "sim.cache_lookup");
        if (cache->lookup(key).has_value()) {
          throw std::logic_error(
              "traced replay: unexpected hit in a fresh cache");
        }
      }
      sbgp::sim::ResolvedExperiment re;
      {
        const ScopedSpan span(tr, "deployment.resolve");
        re = resolver.resolve(c.experiments[s]);
      }
      sbgp::sim::CampaignTrialRow row;
      row.topology = c.topology;
      row.trial = t;
      row.topology_seed = trial_seed;
      row.spec_index = s;
      row.row = re.header;
      row.row.stats = replay_sweep(topo.graph, re, ws, tr);
      if (cache) {
        const ScopedSpan span(tr, "sim.cache_store");
        cache->store(key, row);
      }
      {
        const ScopedSpan span(tr, "sim.io_write");
        appender.append(row);
      }
      keys.push_back(key);
      rows.push_back(std::move(row));
    }
  }
  stream.close();
  if (!stream) throw std::runtime_error("cannot write " + stream_path);
  tr.count("sim.io_write.bytes", fs::file_size(stream_path));
  {
    const ScopedSpan span(tr, "sim.io_read");
    std::ifstream in(stream_path);
    if (sbgp::sim::read_trial_rows_csv(in) != rows) {
      throw std::runtime_error("traced replay: streamed rows do not read back");
    }
  }
  if (cache) {
    for (const auto& key : keys) {
      tr.count("sim.cache_store.bytes",
               fs::file_size(cache->dir() + "/" +
                             sbgp::sim::cache_entry_name(key)));
      const ScopedSpan span(tr, "sim.cache_lookup");
      if (cache->lookup(key).has_value()) tr.count("sim.cache_lookup.hits", 1);
    }
  }
  return rows;
}

SweepBasis untraced_sweeps(const Workload& w, sbgp::sim::BatchExecutor& exec) {
  const auto& c = w.campaign;
  SweepBasis basis;
  for (std::size_t t = 0; t < c.trials; ++t) {
    const auto topo = sbgp::topology::generate_trial(c.topology, c.seed, t);
    const auto tiers = topo.classify();
    sbgp::sim::ExperimentResolver resolver(topo.graph, tiers, topo.sample_salt);
    for (const auto& spec : c.experiments) {
      const auto re = resolver.resolve(spec);
      const auto plan = sbgp::sim::make_sweep_plan(re.attackers,
                                                   re.destinations, re.traffic);
      const double cpu0 = thread_cpu_s();
      const auto wall0 = std::chrono::steady_clock::now();
      auto res = sbgp::sim::analyze_sweep(topo.graph, plan, re.cfg,
                                          *re.deployment, {1, &exec});
      basis.wall_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
      basis.cpu_s += thread_cpu_s() - cpu0;
      basis.cells.push_back(res.total);
    }
  }
  return basis;
}

}  // namespace perfbench
