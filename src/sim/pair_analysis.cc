#include "sim/pair_analysis.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "routing/workspace.h"
#include "security/pair_outcomes.h"
#include "sim/batch_executor.h"

namespace sbgp::sim {

namespace {

// Which outcome slots each analysis reads (see security/pair_outcomes.h).
constexpr AnalysisSet kNeedsAttacked =
    Analysis::kHappiness | Analysis::kDowngrades | Analysis::kCollateral |
    Analysis::kRootCause;
constexpr AnalysisSet kNeedsNormal =
    Analysis::kDowngrades | Analysis::kRootCause;
constexpr AnalysisSet kNeedsAttackedEmpty =
    Analysis::kCollateral | Analysis::kRootCause;

}  // namespace

std::vector<AttackPair> make_attack_pairs(
    const std::vector<AsId>& attackers,
    const std::vector<AsId>& destinations) {
  if (attackers.empty() || destinations.empty()) {
    throw std::invalid_argument(
        "make_attack_pairs: empty attacker/destination set");
  }
  std::vector<AttackPair> pairs;
  pairs.reserve(attackers.size() * destinations.size());
  for (const AsId m : attackers) {
    for (std::size_t di = 0; di < destinations.size(); ++di) {
      if (m != destinations[di]) pairs.push_back({m, destinations[di], di});
    }
  }
  if (pairs.empty()) {
    throw std::invalid_argument(
        "make_attack_pairs: every attacker equals every destination");
  }
  return pairs;
}

SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                          const std::vector<AsId>& destinations) {
  if (attackers.empty() || destinations.empty()) {
    throw std::invalid_argument(
        "make_sweep_plan: empty attacker/destination set");
  }
  SweepPlan plan;
  plan.groups.reserve(destinations.size());
  std::size_t pairs = 0;
  for (std::size_t di = 0; di < destinations.size(); ++di) {
    DestinationGroup grp;
    grp.destination = destinations[di];
    grp.dest_index = di;
    grp.attackers.reserve(attackers.size());
    for (const AsId m : attackers) {
      if (m != destinations[di]) grp.attackers.push_back(m);
    }
    pairs += grp.attackers.size();
    plan.groups.push_back(std::move(grp));
  }
  if (pairs == 0) {
    throw std::invalid_argument(
        "make_sweep_plan: every attacker equals every destination");
  }
  return plan;
}

SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                          const std::vector<AsId>& destinations,
                          const TrafficModel& traffic) {
  validate_traffic_model(traffic);
  SweepPlan plan = make_sweep_plan(attackers, destinations);
  if (traffic.is_trivial()) return plan;
  for (auto& grp : plan.groups) {
    grp.weights.reserve(grp.attackers.size());
    for (const AsId m : grp.attackers) {
      grp.weights.push_back(pair_weight(traffic, m, grp.destination));
    }
  }
  return plan;
}

std::uint64_t next_sweep_context() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                          const PairAnalysisConfig& cfg, const Deployment& dep,
                          routing::EngineWorkspace& ws,
                          std::uint64_t sweep_context, std::uint64_t weight,
                          PairStats& acc) {
  if (cfg.analyses.empty()) {
    throw std::invalid_argument("accumulate_pair_into: empty analysis set");
  }
  if (d == m) {
    throw std::invalid_argument(
        "accumulate_pair_into: attacker == destination");
  }
  ++acc.pairs;
  util::add_scaled_checked(acc.weight, weight, 1, "PairStats::weight");

  // Per-destination baseline cache. A hit requires the exact (token, d)
  // pair; the token is minted per sweep, so deployments, configs and
  // graphs can never be confused across calls.
  routing::DestBaselineSlot& db = ws.dest_baseline;
  const bool cached = sweep_context != 0;
  if (cached && (db.context != sweep_context || db.destination != d)) {
    db.context = sweep_context;
    db.destination = d;
    db.has_normal = false;
    db.has_insecure_empty = false;
    db.has_source_totals = false;
  }
  const auto ensure_normal = [&]() -> const routing::RoutingOutcome& {
    const routing::Query nq{d, routing::kNoAs, cfg.model};
    if (!cached) {
      routing::compute_routing_into(g, nq, dep, ws, ws.normal);
      return ws.normal;
    }
    if (!db.has_normal) {
      routing::compute_routing_into(g, nq, dep, ws, db.normal);
      db.has_normal = true;
    }
    return db.normal;
  };

  const auto ensure_insecure_empty = [&]() -> const routing::RoutingOutcome& {
    if (!db.has_insecure_empty) {
      routing::compute_routing_into(
          g, {d, routing::kNoAs, SecurityModel::kInsecure}, {}, ws,
          db.insecure_empty);
      db.has_insecure_empty = true;
    }
    return db.insecure_empty;
  };

  security::PairOutcomes po;
  po.g = &g;
  po.d = d;
  po.m = m;
  po.dep = &dep;

  // Security 2nd/3rd partitions under the standard ladder — including the
  // downgrade immunity check, which always uses it (matching
  // analyze_downgrades) — classify off the S = emptyset attacked state.
  const bool wants_partitions = cfg.analyses.contains(Analysis::kPartitions);
  const bool wants_downgrades = cfg.analyses.contains(Analysis::kDowngrades);
  const bool lp_standard = cfg.lp.kind == LocalPrefPolicy::Kind::kStandard;
  const bool empty_classifies = cfg.model == SecurityModel::kSecuritySecond ||
                                cfg.model == SecurityModel::kSecurityThird;
  const bool needs_empty =
      cfg.analyses.intersects(kNeedsAttackedEmpty) ||
      (empty_classifies &&
       (wants_downgrades || (wants_partitions && lp_standard)));

  // Set on the twin path when every selected analysis can be scored from
  // the source-key counts (security/pair_outcomes.h): LPk partitions read
  // neighbors' words, so they keep the full passes.
  bool score_changed = false;
  if (cfg.analyses.intersects(kNeedsAttacked)) {
    const routing::Query q{d, m, cfg.model};
    if (cfg.hysteresis) {
      // Hysteresis pins routes of the pre-attack state, which is exactly
      // `normal` (the cached per-destination baseline on the sweep path).
      const auto& normal = ensure_normal();
      routing::compute_routing_with_hysteresis_into(g, q, dep, ws, normal,
                                                    ws.primary);
      po.normal = &normal;
    } else if (cached && needs_empty &&
               cfg.model == SecurityModel::kSecurityThird) {
      // Security 3rd: the attacked state and its S = emptyset twin share
      // every route type and length (App. E.1), so one twin-lane delta
      // derives both from their cached baselines.
      routing::compute_routing_seeded_twin_into(
          g, q, dep, ws, ensure_normal(), ensure_insecure_empty(), ws.primary,
          ws.attacked_empty);
      po.normal = &db.normal;
      po.attacked_empty = &ws.attacked_empty;
      score_changed = !wants_partitions || lp_standard;
    } else if (cached && routing::routing_seed_applicable(q, dep)) {
      // Monotone case: derive the attacked state incrementally from the
      // cached baseline (bit-for-bit identical to the full engine).
      routing::compute_routing_seeded_into(g, q, dep, ws, ensure_normal(),
                                           ws.primary);
    } else {
      routing::compute_routing_into(g, q, dep, ws, ws.primary);
    }
    po.attacked = &ws.primary;
  }
  if (cfg.analyses.intersects(kNeedsNormal) && po.normal == nullptr) {
    po.normal = &ensure_normal();
  }
  if (needs_empty && po.attacked_empty == nullptr) {
    if (cfg.model == SecurityModel::kInsecure && po.attacked != nullptr) {
      // The engine ignores the deployment under kInsecure (and hysteresis
      // pins nothing there), so the attacked state already is the
      // S = emptyset attacked state.
      po.attacked_empty = po.attacked;
    } else {
      const routing::Query eq{d, m, SecurityModel::kInsecure};
      if (cached) {
        // The insecure S = emptyset instance is always seedable (security
        // never ranks), so the attacked-empty outcome also amortizes to an
        // incremental derivation per attacker.
        routing::compute_routing_seeded_into(g, eq, {}, ws,
                                             ensure_insecure_empty(),
                                             ws.attacked_empty);
      } else {
        routing::compute_routing_into(g, eq, {}, ws, ws.attacked_empty);
      }
      po.attacked_empty = &ws.attacked_empty;
    }
  }

  // The twin delta left its changed list in ws.changed: swap those ASes'
  // baseline keys for their pair keys in the destination's totals.
  std::optional<security::SourceKeyCounts> keys;
  if (score_changed) {
    if (!db.has_source_totals) {
      db.source_totals =
          security::baseline_key_counts(db.normal, db.insecure_empty, dep, d);
      db.has_source_totals = true;
    }
    keys = security::pair_key_counts(po, db.insecure_empty, ws.changed,
                                     db.source_totals);
  }
  // One analysis's counters for this pair, from the keys or a full pass.
  const auto score = [&](auto& total, auto& weighted) {
    std::remove_cvref_t<decltype(total)> local;
    if (keys) {
      security::accumulate_keys(*keys, local);
    } else {
      security::accumulate_into(po, local);
    }
    total += local;
    weighted.add_scaled(local, weight);
  };

  // LPk ladders and security 1st build their own invariant state (into
  // ws.baseline or the reach buffers, which no outcome above touches).
  // Key-scored pairs need no context: a source's class is in its key.
  std::optional<security::PartitionContext> partition;
  const auto make_partition = [&](LocalPrefPolicy lp) {
    if (empty_classifies && lp.kind == LocalPrefPolicy::Kind::kStandard) {
      partition.emplace(g, d, m, cfg.model, *po.attacked_empty);
    } else {
      partition.emplace(g, d, m, cfg.model, lp, ws);
    }
    po.partition = &*partition;
  };
  if (wants_partitions) {
    if (!keys) make_partition(cfg.lp);
    score(acc.partitions, acc.w_partitions);
  }
  if (wants_downgrades && !keys && (!partition || !lp_standard)) {
    make_partition(LocalPrefPolicy::standard());
  }

  if (cfg.analyses.contains(Analysis::kHappiness)) {
    score(acc.happiness, acc.w_happiness);
  }
  if (wants_downgrades) score(acc.downgrades, acc.w_downgrades);
  if (cfg.analyses.contains(Analysis::kCollateral)) {
    score(acc.collateral, acc.w_collateral);
  }
  if (cfg.analyses.contains(Analysis::kRootCause)) {
    score(acc.root_causes, acc.w_root_causes);
  }
}

SweepResult analyze_sweep(const AsGraph& g, const SweepPlan& plan,
                          const PairAnalysisConfig& cfg, const Deployment& dep,
                          const RunnerOptions& opts) {
  if (plan.groups.empty()) {
    throw std::invalid_argument("analyze_sweep: empty plan");
  }
  std::size_t pairs = 0;
  for (const auto& grp : plan.groups) {
    for (const AsId m : grp.attackers) {
      if (m == grp.destination) {
        throw std::invalid_argument(
            "analyze_sweep: group attackers contain the destination");
      }
    }
    if (!grp.weights.empty() && grp.weights.size() != grp.attackers.size()) {
      throw std::invalid_argument(
          "analyze_sweep: group weights do not match its attackers");
    }
    pairs += grp.attackers.size();
  }
  if (pairs == 0) {
    throw std::invalid_argument("analyze_sweep: plan has no pairs");
  }

  // Scheduling unit: a chunk of one group's attackers. Chunks keep load
  // balanced across workers while staying large enough that the
  // per-(destination, worker) baselines amortize.
  struct Unit {
    std::size_t group;
    std::size_t begin;
    std::size_t end;
  };
  constexpr std::size_t kChunk = 16;
  std::vector<Unit> units;
  units.reserve(pairs / kChunk + plan.groups.size());
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const std::size_t count = plan.groups[gi].attackers.size();
    for (std::size_t b = 0; b < count; b += kChunk) {
      units.push_back({gi, b, std::min(b + kChunk, count)});
    }
  }

  BatchExecutor& exec =
      opts.executor != nullptr ? *opts.executor : BatchExecutor::shared();
  const std::size_t workers = exec.effective_workers(opts.threads);
  const std::uint64_t token = next_sweep_context();

  // Per-worker, per-group partials folded in worker order: all counters
  // are integers, so the result is independent of thread count, chunk
  // interleaving and group order.
  std::vector<std::vector<PairStats>> accs(
      workers, std::vector<PairStats>(plan.groups.size()));
  exec.run(
      units.size(),
      [&](std::size_t worker, std::size_t i) {
        const Unit& u = units[i];
        const DestinationGroup& grp = plan.groups[u.group];
        routing::EngineWorkspace& ws = exec.workspace(worker);
        PairStats& acc = accs[worker][u.group];
        for (std::size_t k = u.begin; k < u.end; ++k) {
          const std::uint64_t w = grp.weights.empty() ? 1 : grp.weights[k];
          accumulate_pair_into(g, grp.destination, grp.attackers[k], cfg, dep,
                               ws, token, w, acc);
        }
      },
      workers);

  SweepResult res;
  res.per_destination.assign(plan.groups.size(), PairStats{});
  for (const auto& worker_accs : accs) {
    for (std::size_t gi = 0; gi < worker_accs.size(); ++gi) {
      res.per_destination[gi] += worker_accs[gi];
    }
  }
  for (const PairStats& s : res.per_destination) res.total += s;
  return res;
}

}  // namespace sbgp::sim
