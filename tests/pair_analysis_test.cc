// Fused-pipeline equivalence: analyze_sweep must return bit-for-bit the
// statistics of the standalone per-pair analyses, for every combination of
// selected analyses, every security model, and both stub modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "deployment/scenario.h"
#include "routing/engine.h"
#include "routing/workspace.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "sim/pair_analysis.h"
#include "sim/runner.h"
#include "test_support.h"
#include "topology/generator.h"
#include "topology/registry.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;

void expect_happiness_eq(const security::HappyTotals& a,
                         const security::HappyTotals& b) {
  EXPECT_EQ(a.happy_lower, b.happy_lower);
  EXPECT_EQ(a.happy_upper, b.happy_upper);
  EXPECT_EQ(a.sources, b.sources);
}

void expect_partitions_eq(const security::PartitionCounts& a,
                          const security::PartitionCounts& b) {
  EXPECT_EQ(a.doomed, b.doomed);
  EXPECT_EQ(a.protectable, b.protectable);
  EXPECT_EQ(a.immune, b.immune);
  EXPECT_EQ(a.sources, b.sources);
}

void expect_downgrades_eq(const security::DowngradeStats& a,
                          const security::DowngradeStats& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.secure_normal, b.secure_normal);
  EXPECT_EQ(a.downgraded, b.downgraded);
  EXPECT_EQ(a.secure_kept, b.secure_kept);
  EXPECT_EQ(a.kept_and_immune, b.kept_and_immune);
}

void expect_collateral_eq(const security::CollateralStats& a,
                          const security::CollateralStats& b) {
  EXPECT_EQ(a.insecure_sources, b.insecure_sources);
  EXPECT_EQ(a.benefits, b.benefits);
  EXPECT_EQ(a.damages, b.damages);
  EXPECT_EQ(a.benefits_upper, b.benefits_upper);
  EXPECT_EQ(a.damages_upper, b.damages_upper);
}

void expect_root_causes_eq(const security::RootCauseStats& a,
                           const security::RootCauseStats& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.secure_normal, b.secure_normal);
  EXPECT_EQ(a.downgraded, b.downgraded);
  EXPECT_EQ(a.secure_wasted, b.secure_wasted);
  EXPECT_EQ(a.secure_protecting, b.secure_protecting);
  EXPECT_EQ(a.collateral_benefits, b.collateral_benefits);
  EXPECT_EQ(a.collateral_damages, b.collateral_damages);
  EXPECT_EQ(a.happy_baseline, b.happy_baseline);
  EXPECT_EQ(a.happy_deployed, b.happy_deployed);
}

constexpr Analysis kAllAnalyses[] = {
    Analysis::kHappiness, Analysis::kPartitions, Analysis::kDowngrades,
    Analysis::kCollateral, Analysis::kRootCause};

/// The analyses of subset `combo` (bit b selects kAllAnalyses[b]).
AnalysisSet analyses_of(std::uint8_t combo) {
  AnalysisSet set;
  for (std::size_t b = 0; b < 5; ++b) {
    if ((combo & (1u << b)) != 0) set |= kAllAnalyses[b];
  }
  return set;
}

/// Every counter of an analysis outside `selected`, and its weighted
/// mirror, must stay zero: a scoring pass fills only what was asked for.
void expect_unselected_zero(AnalysisSet selected, const PairStats& s) {
  if (!selected.contains(Analysis::kHappiness)) {
    EXPECT_EQ(s.happiness, security::HappyTotals{});
    EXPECT_EQ(s.w_happiness, security::HappyTotals{});
  }
  if (!selected.contains(Analysis::kPartitions)) {
    EXPECT_EQ(s.partitions, security::PartitionCounts{});
    EXPECT_EQ(s.w_partitions, security::PartitionCounts{});
  }
  if (!selected.contains(Analysis::kDowngrades)) {
    EXPECT_EQ(s.downgrades, security::DowngradeStats{});
    EXPECT_EQ(s.w_downgrades, security::DowngradeStats{});
  }
  if (!selected.contains(Analysis::kCollateral)) {
    EXPECT_EQ(s.collateral, security::CollateralStats{});
    EXPECT_EQ(s.w_collateral, security::CollateralStats{});
  }
  if (!selected.contains(Analysis::kRootCause)) {
    EXPECT_EQ(s.root_causes, security::RootCauseStats{});
    EXPECT_EQ(s.w_root_causes, security::RootCauseStats{});
  }
}

class PairAnalysisTest : public ::testing::Test {
 protected:
  PairAnalysisTest() : topo_(topology::generate_small_internet(250, 17)) {
    tiers_ = topo_.classify();
    attackers_ = sample_ases(non_stub_ases(topo_.graph), 3, 5);
    destinations_ = sample_ases(all_ases(topo_.graph), 3, 6);
  }

  /// Legacy reference: every statistic computed with the standalone
  /// analyses over the same pair list.
  PairStats standalone(SecurityModel model, const Deployment& dep) const {
    PairStats s;
    for (const auto& p : make_attack_pairs(attackers_, destinations_)) {
      const AsId d = p.destination;
      const AsId m = p.attacker;
      ++s.pairs;
      const auto out = routing::compute_routing(topo_.graph, {d, m, model},
                                                dep);
      const auto c = security::count_happy(out, d, m);
      s.happiness.happy_lower += c.happy_lower;
      s.happiness.happy_upper += c.happy_upper;
      s.happiness.sources += c.sources;
      // Partitions and downgrades are undefined under kInsecure.
      if (model != SecurityModel::kInsecure) {
        routing::EngineWorkspace ws;
        s.partitions += security::PartitionContext(
                            topo_.graph, d, m, model,
                            routing::LocalPrefPolicy::standard(), ws)
                            .counts();
        s.downgrades +=
            security::analyze_downgrades(topo_.graph, d, m, model, dep);
      }
      s.collateral +=
          security::analyze_collateral(topo_.graph, d, m, model, dep);
      s.root_causes +=
          security::analyze_root_causes(topo_.graph, d, m, model, dep);
    }
    return s;
  }

  topology::GeneratedTopology topo_;
  topology::TierInfo tiers_;
  std::vector<AsId> attackers_;
  std::vector<AsId> destinations_;
};

TEST_F(PairAnalysisTest, EveryCombinationMatchesStandaloneAnalyses) {
  for (const auto mode :
       {deployment::StubMode::kFullSbgp, deployment::StubMode::kSimplex}) {
    const auto rollout = deployment::t1_t2_rollout(topo_.graph, tiers_, mode);
    const Deployment& dep = rollout.back().deployment;
    const auto check = [&](SecurityModel model, const PairStats& expected,
                           std::uint8_t combo) {
      PairAnalysisConfig cfg;
      cfg.model = model;
      cfg.analyses = analyses_of(combo);
      SCOPED_TRACE(::testing::Message()
                   << "model=" << to_string(model) << " stub mode="
                   << static_cast<int>(mode) << " combo=" << int(combo));
      const PairStats fused =
          analyze_sweep(topo_.graph,
                        make_sweep_plan(attackers_, destinations_), cfg, dep)
              .total;
      EXPECT_EQ(fused.pairs, expected.pairs);
      if (cfg.analyses.contains(Analysis::kHappiness)) {
        expect_happiness_eq(fused.happiness, expected.happiness);
      }
      if (cfg.analyses.contains(Analysis::kPartitions)) {
        expect_partitions_eq(fused.partitions, expected.partitions);
      }
      if (cfg.analyses.contains(Analysis::kDowngrades)) {
        expect_downgrades_eq(fused.downgrades, expected.downgrades);
      }
      if (cfg.analyses.contains(Analysis::kCollateral)) {
        expect_collateral_eq(fused.collateral, expected.collateral);
      }
      if (cfg.analyses.contains(Analysis::kRootCause)) {
        expect_root_causes_eq(fused.root_causes, expected.root_causes);
      }
      expect_unselected_zero(cfg.analyses, fused);
    };
    for (const auto model : routing::kAllSecurityModels) {
      const PairStats expected = standalone(model, dep);
      // All 31 non-empty subsets of the five analyses.
      for (std::uint8_t combo = 1; combo < 32; ++combo) {
        check(model, expected, combo);
      }
    }
    // kInsecure reuses the attacked state as the S = emptyset attacked
    // state. Its 7 combos of happiness, collateral and root causes (the
    // analyses defined there; partitions and downgrades are bits 1-2).
    const PairStats expected = standalone(SecurityModel::kInsecure, dep);
    for (std::uint8_t combo = 1; combo < 32; ++combo) {
      if ((combo & 0b00110u) == 0) {
        check(SecurityModel::kInsecure, expected, combo);
      }
    }
  }
}

TEST(PairAnalysisTiny500, ChangedSetScoringMatchesUncachedCalls) {
  // Security 3rd sweeps score each pair from its destination's source-key
  // totals and the twin delta's changed list; uncached calls
  // (sweep_context 0) run the full per-analysis passes. 8 attackers per
  // destination, so the totals serve several pairs, and gravity weights,
  // so the w_* mirrors are checked with non-trivial weights too.
  const auto topo = topology::generate_trial("tiny-500", 20130812, 0);
  const auto tiers = topo.classify();
  const auto attackers = sample_ases(non_stub_ases(topo.graph), 8, 31);
  const auto destinations = sample_ases(all_ases(topo.graph), 8, 32);
  TrafficModel traffic;
  traffic.kind = TrafficModel::Kind::kGravity;
  traffic.seed = 5;
  const SweepPlan plan = make_sweep_plan(attackers, destinations, traffic);
  routing::EngineWorkspace ws;
  for (const auto mode :
       {deployment::StubMode::kFullSbgp, deployment::StubMode::kSimplex}) {
    const auto rollout = deployment::t1_t2_rollout(topo.graph, tiers, mode);
    for (std::size_t step = 0; step < rollout.size(); ++step) {
      const Deployment& dep = rollout[step].deployment;
      for (std::uint8_t combo = 1; combo < 32; ++combo) {
        PairAnalysisConfig cfg;
        cfg.model = SecurityModel::kSecurityThird;
        cfg.analyses = analyses_of(combo);
        SCOPED_TRACE(::testing::Message()
                     << "stub mode=" << static_cast<int>(mode)
                     << " step=" << step << " combo=" << int(combo));
        PairStats uncached;
        for (const auto& grp : plan.groups) {
          for (std::size_t k = 0; k < grp.attackers.size(); ++k) {
            accumulate_pair_into(topo.graph, grp.destination, grp.attackers[k],
                                 cfg, dep, ws, 0, grp.weights[k], uncached);
          }
        }
        const PairStats grouped =
            analyze_sweep(topo.graph, plan, cfg, dep).total;
        EXPECT_EQ(grouped, uncached);
        expect_unselected_zero(cfg.analyses, grouped);
      }
    }
  }
}

TEST_F(PairAnalysisTest, InsecurePartitionsAndDowngradesThrow) {
  const Deployment dep(topo_.graph.num_ases());
  for (const Analysis a : {Analysis::kPartitions, Analysis::kDowngrades}) {
    PairAnalysisConfig cfg;
    cfg.model = SecurityModel::kInsecure;
    cfg.analyses = a | Analysis::kCollateral;
    EXPECT_THROW((void)analyze_sweep(topo_.graph,
                                     make_sweep_plan(attackers_, destinations_),
                                     cfg, dep),
                 std::invalid_argument);
  }
}

TEST_F(PairAnalysisTest, LpkPartitionsFuseWithStandardLadderDowngrades) {
  // A non-standard partition ladder must not leak into the downgrade
  // immunity check (which is specified over the standard ladder) or into
  // the shared S = emptyset outcome of the collateral analysis.
  util::Rng rng(9);
  const auto dep = test::random_deployment(topo_.graph.num_ases(), 0.4, rng);
  const auto lp = routing::LocalPrefPolicy::lp_k(2);

  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecuritySecond;
  cfg.lp = lp;
  cfg.analyses = Analysis::kPartitions | Analysis::kDowngrades |
                 Analysis::kCollateral;
  const auto fused =
      analyze_sweep(topo_.graph, make_sweep_plan(attackers_, destinations_),
                    cfg, dep)
          .total;

  security::PartitionCounts parts;
  security::DowngradeStats downgrades;
  security::CollateralStats collateral;
  for (const auto& p : make_attack_pairs(attackers_, destinations_)) {
    routing::EngineWorkspace ws;
    parts += security::PartitionContext(topo_.graph, p.destination,
                                        p.attacker, cfg.model, lp, ws)
                 .counts();
    downgrades += security::analyze_downgrades(topo_.graph, p.destination,
                                               p.attacker, cfg.model, dep);
    collateral += security::analyze_collateral(topo_.graph, p.destination,
                                               p.attacker, cfg.model, dep);
  }
  expect_partitions_eq(fused.partitions, parts);
  expect_downgrades_eq(fused.downgrades, downgrades);
  expect_collateral_eq(fused.collateral, collateral);
}

TEST_F(PairAnalysisTest, HysteresisMatchesStandaloneEngine) {
  const auto rollout = deployment::t1_t2_rollout(
      topo_.graph, tiers_, deployment::StubMode::kFullSbgp);
  const Deployment& dep = rollout.back().deployment;
  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecurityThird;
  cfg.analyses = Analysis::kHappiness;
  cfg.hysteresis = true;
  const auto fused =
      analyze_sweep(topo_.graph, make_sweep_plan(attackers_, destinations_),
                    cfg, dep)
          .total;

  security::HappyTotals expected;
  for (const auto& p : make_attack_pairs(attackers_, destinations_)) {
    const auto out = routing::compute_routing_with_hysteresis(
        topo_.graph, {p.destination, p.attacker, cfg.model}, dep);
    const auto c = security::count_happy(out, p.destination, p.attacker);
    expected.happy_lower += c.happy_lower;
    expected.happy_upper += c.happy_upper;
    expected.sources += c.sources;
  }
  expect_happiness_eq(fused.happiness, expected);
}

TEST_F(PairAnalysisTest, PerDestinationSumsToAggregate) {
  util::Rng rng(21);
  const auto dep = test::random_deployment(topo_.graph.num_ases(), 0.3, rng);
  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecurityThird;
  cfg.analyses = Analysis::kHappiness | Analysis::kRootCause;
  const auto result = analyze_sweep(
      topo_.graph, make_sweep_plan(attackers_, destinations_), cfg, dep);
  ASSERT_EQ(result.per_destination.size(), destinations_.size());
  PairStats merged;
  for (const auto& s : result.per_destination) merged += s;
  EXPECT_EQ(merged.pairs, result.total.pairs);
  expect_happiness_eq(merged.happiness, result.total.happiness);
  expect_root_causes_eq(merged.root_causes, result.total.root_causes);
}

// --- sweep plans -------------------------------------------------------------

TEST(SweepPlanTest, GroupsByDestinationAndSkipsSelfAttacks) {
  const std::vector<AsId> attackers = {1, 2, 3};
  const std::vector<AsId> destinations = {2, 3, 4};
  const auto plan = make_sweep_plan(attackers, destinations);
  ASSERT_EQ(plan.groups.size(), 3u);  // one group per destination, in order
  EXPECT_EQ(plan.num_pairs(), 7u);    // 9 minus (2,2) and (3,3)
  for (std::size_t i = 0; i < plan.groups.size(); ++i) {
    const auto& grp = plan.groups[i];
    EXPECT_EQ(grp.destination, destinations[i]);
    EXPECT_EQ(grp.dest_index, i);
    for (const auto m : grp.attackers) EXPECT_NE(m, grp.destination);
  }
  EXPECT_EQ(plan.groups[0].attackers, (std::vector<AsId>{1, 3}));
  EXPECT_EQ(plan.groups[1].attackers, (std::vector<AsId>{1, 2}));
  EXPECT_EQ(plan.groups[2].attackers, (std::vector<AsId>{1, 2, 3}));
}

TEST(SweepPlanTest, ThrowsWhenNoValidPairRemains) {
  const std::vector<AsId> only = {5};
  EXPECT_THROW((void)make_sweep_plan(only, only), std::invalid_argument);
  EXPECT_THROW((void)make_sweep_plan({}, {1}), std::invalid_argument);
  EXPECT_THROW((void)make_sweep_plan({1}, {}), std::invalid_argument);
}

TEST(SweepPlanTest, AnalyzeSweepRejectsBadPlans) {
  const auto topo = topology::generate_small_internet(100, 4);
  const Deployment dep(topo.graph.num_ases());
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  EXPECT_THROW((void)analyze_sweep(topo.graph, SweepPlan{}, cfg, dep),
               std::invalid_argument);
  SweepPlan pairless;
  pairless.groups.push_back({7, 0, {}, {}});
  EXPECT_THROW((void)analyze_sweep(topo.graph, pairless, cfg, dep),
               std::invalid_argument);
  SweepPlan self_attack;
  self_attack.groups.push_back({7, 0, {7, 8}, {}});
  EXPECT_THROW((void)analyze_sweep(topo.graph, self_attack, cfg, dep),
               std::invalid_argument);
}

TEST(SweepPlanTest, MergedStatsIndependentOfGroupOrder) {
  const auto topo = topology::generate_small_internet(220, 11);
  util::Rng rng(13);
  const auto dep = test::random_deployment(topo.graph.num_ases(), 0.4, rng);
  const auto attackers = sample_ases(non_stub_ases(topo.graph), 4, 5);
  const auto destinations = sample_ases(all_ases(topo.graph), 4, 6);
  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecurityThird;
  cfg.analyses = AnalysisSet::all();

  const auto plan = make_sweep_plan(attackers, destinations);
  SweepPlan reversed = plan;
  std::reverse(reversed.groups.begin(), reversed.groups.end());

  const auto forward = analyze_sweep(topo.graph, plan, cfg, dep);
  const auto backward = analyze_sweep(topo.graph, reversed, cfg, dep);
  EXPECT_EQ(forward.total, backward.total);
  ASSERT_EQ(backward.per_destination.size(), plan.groups.size());
  for (std::size_t i = 0; i < plan.groups.size(); ++i) {
    EXPECT_EQ(forward.per_destination[i],
              backward.per_destination[plan.groups.size() - 1 - i])
        << "group " << i;
  }
}

// --- pair sampling edge cases ----------------------------------------------

TEST(AttackPairs, SkipsAttackerEqualsDestination) {
  const std::vector<AsId> attackers = {1, 2, 3};
  const std::vector<AsId> destinations = {2, 3, 4};
  const auto pairs = make_attack_pairs(attackers, destinations);
  EXPECT_EQ(pairs.size(), 7u);  // 9 minus (2,2) and (3,3)
  for (const auto& p : pairs) EXPECT_NE(p.attacker, p.destination);
}

TEST(AttackPairs, ThrowsWhenNoValidPairRemains) {
  const std::vector<AsId> only = {5};
  EXPECT_THROW((void)make_attack_pairs(only, only), std::invalid_argument);
  EXPECT_THROW((void)make_attack_pairs({}, {1}), std::invalid_argument);
  EXPECT_THROW((void)make_attack_pairs({1}, {}), std::invalid_argument);
}

TEST(AttackPairs, OverlappingSetsMatchManuallyFilteredRunners) {
  // Regression: every runner must skip attacker == destination pairs
  // rather than evaluating or crashing on them.
  const auto topo = topology::generate_small_internet(200, 3);
  util::Rng rng(7);
  const auto dep = test::random_deployment(topo.graph.num_ases(), 0.5, rng);
  const auto overlap = sample_ases(non_stub_ases(topo.graph), 5, 1);
  // Same set on both sides: 5x5 = 25 raw pairs, 20 valid.
  EXPECT_EQ(make_attack_pairs(overlap, overlap).size(), 20u);
  const auto metric =
      estimate_metric(topo.graph, overlap, overlap,
                      SecurityModel::kSecuritySecond, dep);
  security::HappyTotals expected;
  for (const auto m : overlap) {
    for (const auto d : overlap) {
      if (m == d) continue;
      const auto out = routing::compute_routing(
          topo.graph, {d, m, SecurityModel::kSecuritySecond}, dep);
      const auto c = security::count_happy(out, d, m);
      expected.happy_lower += c.happy_lower;
      expected.happy_upper += c.happy_upper;
      expected.sources += c.sources;
    }
  }
  EXPECT_DOUBLE_EQ(metric.lower, expected.bounds().lower);
  EXPECT_DOUBLE_EQ(metric.upper, expected.bounds().upper);
}

TEST(AttackPairs, AccumulatePairRejectsBadInputs) {
  const auto topo = topology::generate_small_internet(100, 4);
  routing::EngineWorkspace ws;
  PairStats acc;
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  EXPECT_THROW(accumulate_pair_into(topo.graph, 7, 7, cfg,
                                    Deployment(topo.graph.num_ases()), ws,
                                    acc),
               std::invalid_argument);
  PairAnalysisConfig empty_cfg;
  EXPECT_THROW(accumulate_pair_into(topo.graph, 7, 8, empty_cfg,
                                    Deployment(topo.graph.num_ases()), ws,
                                    acc),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbgp::sim
