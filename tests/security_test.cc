#include <gtest/gtest.h>

#include <cstddef>

#include "routing/engine.h"
#include "security/case_studies.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/pair_outcomes.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "test_support.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace sbgp::security {
namespace {

using cases::CollateralBenefit;
using cases::CollateralBenefitStrict;
using cases::CollateralDamage;
using cases::Figure2;
using routing::compute_routing;
using routing::Deployment;
using routing::HappyStatus;
using routing::kNoAs;
using routing::Query;
using routing::SecurityModel;
using test::random_deployment;
using test::random_gr_graph;
using topology::AsGraph;
using topology::AsId;

// ---------------------------------------------------------------------------
// Source keys (the changed-set scoring of security/pair_outcomes.h).
// ---------------------------------------------------------------------------

TEST(SourceKey, EveryCodeRoundTrips) {
  // accumulate_keys decodes each code and re-applies the counting rules, so
  // the 7-bit packing must be a bijection on [0, kCount).
  for (std::size_t k = 0; k < SourceKey::kCount; ++k) {
    EXPECT_EQ(SourceKey::decode(k).code(), k);
  }
}

// ---------------------------------------------------------------------------
// Happiness counting.
// ---------------------------------------------------------------------------

TEST(Happiness, CountsStrictAndOptimistic) {
  const auto g = Figure2::graph();
  const auto out = compute_routing(
      g, Query{Figure2::kLevel3, Figure2::kAttacker, SecurityModel::kInsecure},
      {});
  const auto c = count_happy(out, Figure2::kLevel3, Figure2::kAttacker);
  EXPECT_EQ(c.sources, Figure2::kN - 2);
  EXPECT_LE(c.happy_lower, c.happy_upper);
  // DoD is strictly happy; eNom/Cogent/PCCW fall to the bogus route.
  EXPECT_EQ(c.happy_lower, 1u);
  EXPECT_EQ(c.happy_upper, 1u);
}

TEST(Happiness, NormalConditionsEveryoneHappy) {
  const auto topo = topology::generate_small_internet(300, 2);
  const auto out = compute_routing(
      topo.graph, Query{0, kNoAs, SecurityModel::kInsecure}, {});
  const auto c = count_happy(out, 0, kNoAs);
  EXPECT_EQ(c.sources, topo.graph.num_ases() - 1);
  EXPECT_EQ(c.happy_lower, c.sources);  // connected graph, no attacker
}

TEST(Happiness, MetricBoundsArithmetic) {
  MetricBounds a{0.2, 0.4};
  a += MetricBounds{0.4, 0.4};
  a /= 2.0;
  EXPECT_DOUBLE_EQ(a.lower, 0.3);
  EXPECT_DOUBLE_EQ(a.upper, 0.4);
  const auto d = MetricBounds{0.5, 0.6} - MetricBounds{0.1, 0.2};
  EXPECT_DOUBLE_EQ(d.lower, 0.4);
  EXPECT_DOUBLE_EQ(d.upper, 0.4);
}

// ---------------------------------------------------------------------------
// Partitions: case-study expectations.
// ---------------------------------------------------------------------------

TEST(Partition, Figure2Classes) {
  const auto g = Figure2::graph();
  for (const auto model :
       {SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
    const auto cls =
        classify_sources(g, Figure2::kLevel3, Figure2::kAttacker, model);
    // Cogent always prefers the bogus customer route over its peer route.
    EXPECT_EQ(cls[Figure2::kCogent], PartitionClass::kDoomed);
    // The single-homed stub can never hear the attacker.
    EXPECT_EQ(cls[Figure2::kDod], PartitionClass::kImmune);
    // PCCW's only d-route is via its provider; the bogus one is via its
    // customer: doomed as well.
    EXPECT_EQ(cls[Figure2::kPccw], PartitionClass::kDoomed);
  }
  // Security 1st: Cogent becomes protectable (Section 4.3.1).
  const auto first = classify_sources(g, Figure2::kLevel3, Figure2::kAttacker,
                                      SecurityModel::kSecurityFirst);
  EXPECT_EQ(first[Figure2::kCogent], PartitionClass::kProtectable);
  EXPECT_EQ(first[Figure2::kDod], PartitionClass::kImmune);
}

TEST(Partition, SecondDiffersFromThirdOnLengthTies) {
  // v has a 2-hop customer route to d and a 3-hop customer route to m:
  // protectable under security 2nd (same LP class), immune under 3rd
  // (strictly shorter).
  topology::AsGraphBuilder b(5);
  b.add_customer_provider(0, 4);  // d=0 customer of w=4
  b.add_customer_provider(4, 2);  // w customer of v=2
  b.add_customer_provider(3, 1);  // m=3 customer of q=1
  b.add_customer_provider(1, 2);  // q customer of v
  const auto g = b.build();
  // Routes at v: to d [w, d] length 2; to m [q, m, d] length 3.
  const auto second =
      classify_sources(g, 0, 3, SecurityModel::kSecuritySecond);
  EXPECT_EQ(second[2], PartitionClass::kProtectable);
  const auto third = classify_sources(g, 0, 3, SecurityModel::kSecurityThird);
  EXPECT_EQ(third[2], PartitionClass::kImmune);
}

TEST(Partition, RejectsBaselineModel) {
  const auto g = Figure2::graph();
  EXPECT_THROW(classify_sources(g, 0, 5, SecurityModel::kInsecure),
               std::invalid_argument);
  EXPECT_THROW(
      classify_sources(g, 0, 0, SecurityModel::kSecurityThird),
      std::invalid_argument);
}

TEST(Partition, SharesSumToOne) {
  util::Rng rng(5);
  const auto g = random_gr_graph(40, rng);
  for (const auto model : routing::kAllSecurityModels) {
    const auto s = partition_shares(g, 3, 17, model);
    EXPECT_NEAR(s.doomed + s.protectable + s.immune, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Partitions: exhaustive validation over every deployment (small graphs).
// ---------------------------------------------------------------------------

class PartitionExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionExhaustive, ImmuneAndDoomedHoldForEveryDeployment) {
  // Exact invariants for the security 1st and 3rd classifications: immune
  // sources are strictly happy and doomed sources never happy under EVERY
  // possible deployment. (The security 2nd classification follows the
  // paper's Appendix E.2 pruned-PR heuristic and is checked separately.)
  util::Rng rng(GetParam());
  const std::uint32_t n = 10;
  const AsGraph g = random_gr_graph(n, rng, /*peer_density=*/0.5);
  const AsId d = static_cast<AsId>(rng.next_below(n));
  AsId m = static_cast<AsId>(rng.next_below(n));
  if (m == d) m = (m + 1) % n;

  for (const auto model : {SecurityModel::kSecurityFirst,
                           SecurityModel::kSecurityThird}) {
    const auto cls = classify_sources(g, d, m, model);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      Deployment dep(n);
      for (AsId v = 0; v < n; ++v) {
        if (mask & (1u << v)) dep.secure.insert(v);
      }
      const auto out = compute_routing(g, Query{d, m, model}, dep);
      for (AsId v = 0; v < n; ++v) {
        if (v == d || v == m) continue;
        const auto status = out.happy(v);
        if (cls[v] == PartitionClass::kImmune) {
          ASSERT_EQ(status, HappyStatus::kHappy)
              << to_string(model) << " AS " << v << " mask " << mask;
        } else if (cls[v] == PartitionClass::kDoomed) {
          ASSERT_NE(status, HappyStatus::kHappy)
              << to_string(model) << " AS " << v << " mask " << mask;
          ASSERT_NE(status, HappyStatus::kEither)
              << to_string(model) << " AS " << v << " mask " << mask;
        }
      }
    }
  }
}

TEST_P(PartitionExhaustive, SecuritySecondConsistentWithBaselineOutcome) {
  // The Appendix E.2 classification is anchored in the S = emptyset stable
  // state: immune sources must be strictly happy there and doomed sources
  // strictly unhappy. Additionally, perceivable-level certainty implies
  // the same verdict: a source with no perceivable legitimate route at all
  // must be doomed.
  util::Rng rng(GetParam() * 7 + 1);
  const std::uint32_t n = 12;
  const AsGraph g = random_gr_graph(n, rng, /*peer_density=*/0.5);
  for (int trial = 0; trial < 4; ++trial) {
    const AsId d = static_cast<AsId>(rng.next_below(n));
    AsId m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const auto cls = classify_sources(g, d, m, SecurityModel::kSecuritySecond);
    const auto base = compute_routing(
        g, Query{d, m, SecurityModel::kInsecure}, {});
    const auto reach_d = routing::perceivable_distances(g, d, 0, m);
    for (AsId v = 0; v < n; ++v) {
      if (v == d || v == m) continue;
      if (cls[v] == PartitionClass::kImmune) {
        EXPECT_EQ(base.happy(v), HappyStatus::kHappy) << v;
      }
      if (cls[v] == PartitionClass::kDoomed && base.has_route(v)) {
        EXPECT_EQ(base.happy(v), HappyStatus::kUnhappy) << v;
      }
      if (!reach_d.reachable(v)) {
        EXPECT_EQ(cls[v], PartitionClass::kDoomed) << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionExhaustive,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Theorem 3.1: no protocol downgrades under security 1st.
// ---------------------------------------------------------------------------

TEST(Downgrade, Figure2Accounting) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  const auto stats =
      analyze_downgrades(g, Figure2::kLevel3, Figure2::kAttacker,
                         SecurityModel::kSecuritySecond, dep);
  // eNom and Cogent had secure routes; eNom and Cogent both downgrade; only
  // DoD keeps its secure route and it is immune.
  EXPECT_EQ(stats.secure_normal, 3u);
  EXPECT_EQ(stats.downgraded, 2u);
  EXPECT_EQ(stats.secure_kept, 1u);
  EXPECT_EQ(stats.kept_and_immune, 1u);

  const auto first = analyze_downgrades(g, Figure2::kLevel3,
                                        Figure2::kAttacker,
                                        SecurityModel::kSecurityFirst, dep);
  EXPECT_EQ(first.downgraded, 0u);
}

class DowngradeTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DowngradeTheorem, NoDowngradesUnderSecurityFirstForStubAttackers) {
  // Theorem 3.1 applies to sources whose secure route avoids m; choosing a
  // stub attacker guarantees m transits no one's normal route.
  util::Rng rng(GetParam());
  const std::uint32_t n = 60;
  const AsGraph g = random_gr_graph(n, rng);
  std::vector<AsId> stubs;
  for (AsId v = 0; v < n; ++v) {
    if (g.is_stub(v)) stubs.push_back(v);
  }
  ASSERT_FALSE(stubs.empty());
  for (int trial = 0; trial < 4; ++trial) {
    const AsId m = stubs[rng.next_below(stubs.size())];
    AsId d = static_cast<AsId>(rng.next_below(n));
    if (d == m) d = (d + 1) % n;
    const auto dep = random_deployment(n, 0.5, rng);
    const auto stats =
        analyze_downgrades(g, d, m, SecurityModel::kSecurityFirst, dep);
    EXPECT_EQ(stats.downgraded, 0u) << "d=" << d << " m=" << m;
  }
}

TEST_P(DowngradeTheorem, DowngradesArePossibleUnderSecondAndThird) {
  // Sanity check the counter itself: across seeds, the 2nd/3rd models do
  // produce downgrades somewhere (Figure 2 behaviour).
  util::Rng rng(GetParam() * 1000 + 5);
  std::size_t total = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint32_t n = 60;
    const AsGraph g = random_gr_graph(n, rng);
    const AsId m = static_cast<AsId>(rng.next_below(n));
    AsId d = static_cast<AsId>(rng.next_below(n));
    if (d == m) d = (d + 1) % n;
    const auto dep = random_deployment(n, 0.6, rng);
    for (const auto model :
         {SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
      total += analyze_downgrades(g, d, m, model, dep).downgraded;
    }
  }
  EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DowngradeTheorem,
                         ::testing::Values(7, 13, 29));

// ---------------------------------------------------------------------------
// Theorem 6.1: monotonicity in the security 3rd model.
// ---------------------------------------------------------------------------

class MonotonicityTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonotonicityTheorem, SecurityThirdIsMonotone) {
  util::Rng rng(GetParam());
  const std::uint32_t n = 50;
  const AsGraph g = random_gr_graph(n, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const AsId m = static_cast<AsId>(rng.next_below(n));
    AsId d = static_cast<AsId>(rng.next_below(n));
    if (d == m) d = (d + 1) % n;
    // S subset of T.
    Deployment small(n);
    Deployment big(n);
    for (AsId v = 0; v < n; ++v) {
      const double r = rng.next_double();
      if (r < 0.3) small.secure.insert(v);
      if (r < 0.6) big.secure.insert(v);
    }
    const auto out_s = compute_routing(
        g, Query{d, m, SecurityModel::kSecurityThird}, small);
    const auto out_t =
        compute_routing(g, Query{d, m, SecurityModel::kSecurityThird}, big);
    for (AsId v = 0; v < n; ++v) {
      if (v == d || v == m) continue;
      // Both the optimistic and the strict statuses may only improve.
      if (out_s.reaches_destination(v)) {
        EXPECT_TRUE(out_t.reaches_destination(v)) << v;
      }
      if (out_s.happy(v) == HappyStatus::kHappy) {
        EXPECT_EQ(out_t.happy(v), HappyStatus::kHappy) << v;
      }
    }
  }
}

TEST_P(MonotonicityTheorem, FirstAndSecondAreNotMonotoneSomewhere) {
  // The collateral-damage fixture witnesses non-monotonicity: S = empty
  // versus the fixture deployment flips v from happy to unhappy.
  const auto g = CollateralDamage::graph();
  const auto dep = CollateralDamage::deployment();
  for (const auto model :
       {SecurityModel::kSecurityFirst, SecurityModel::kSecuritySecond}) {
    const auto empty = compute_routing(
        g, Query{CollateralDamage::kD, CollateralDamage::kM, model}, {});
    const auto full = compute_routing(
        g, Query{CollateralDamage::kD, CollateralDamage::kM, model}, dep);
    EXPECT_EQ(empty.happy(CollateralDamage::kV), HappyStatus::kHappy);
    EXPECT_EQ(full.happy(CollateralDamage::kV), HappyStatus::kUnhappy)
        << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTheorem,
                         ::testing::Values(3, 17, 71));

// ---------------------------------------------------------------------------
// Collateral phenomena (Table 3).
// ---------------------------------------------------------------------------

TEST(Collateral, DamageCountedInSecond) {
  const auto g = CollateralDamage::graph();
  const auto stats =
      analyze_collateral(g, CollateralDamage::kD, CollateralDamage::kM,
                         SecurityModel::kSecuritySecond,
                         CollateralDamage::deployment());
  EXPECT_GE(stats.damages, 1u);
  EXPECT_EQ(stats.benefits, 0u);
}

TEST(Collateral, NoDamageInThird) {
  const auto g = CollateralDamage::graph();
  const auto stats =
      analyze_collateral(g, CollateralDamage::kD, CollateralDamage::kM,
                         SecurityModel::kSecurityThird,
                         CollateralDamage::deployment());
  EXPECT_EQ(stats.damages, 0u);
}

TEST(Collateral, StrictBenefitCountedInSecond) {
  const auto g = CollateralBenefitStrict::graph();
  const auto stats = analyze_collateral(
      g, CollateralBenefitStrict::kD, CollateralBenefitStrict::kM,
      SecurityModel::kSecuritySecond, CollateralBenefitStrict::deployment());
  EXPECT_GE(stats.benefits, 1u);
  EXPECT_EQ(stats.damages, 0u);
}

TEST(Collateral, ThirdModelDamageNeverOccursOnRandomGraphs) {
  // Theorem 6.1 again, this time through the collateral counter.
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t n = 40;
    const AsGraph g = random_gr_graph(n, rng);
    const AsId m = static_cast<AsId>(rng.next_below(n));
    AsId d = static_cast<AsId>(rng.next_below(n));
    if (d == m) d = (d + 1) % n;
    const auto dep = random_deployment(n, 0.5, rng);
    const auto stats =
        analyze_collateral(g, d, m, SecurityModel::kSecurityThird, dep);
    EXPECT_EQ(stats.damages, 0u);
  }
}

// ---------------------------------------------------------------------------
// Root-cause decomposition.
// ---------------------------------------------------------------------------

TEST(RootCause, BucketsAreConsistent) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint32_t n = 50;
    const AsGraph g = random_gr_graph(n, rng);
    const AsId m = static_cast<AsId>(rng.next_below(n));
    AsId d = static_cast<AsId>(rng.next_below(n));
    if (d == m) d = (d + 1) % n;
    const auto dep = random_deployment(n, 0.5, rng);
    for (const auto model : routing::kAllSecurityModels) {
      const auto rc = analyze_root_causes(g, d, m, model, dep);
      EXPECT_EQ(rc.sources, n - 2);
      // The three fates of normal-time secure routes partition them.
      EXPECT_EQ(rc.secure_normal,
                rc.downgraded + rc.secure_wasted + rc.secure_protecting);
      EXPECT_LE(rc.collateral_benefits + rc.collateral_damages, rc.sources);
      if (model == SecurityModel::kSecurityFirst) {
        // Stub attackers are not guaranteed here, so only check the
        // decomposition arithmetic, not downgrade-freedom.
        EXPECT_GE(rc.happy_deployed + rc.sources, rc.happy_baseline);
      }
      if (model == SecurityModel::kSecurityThird) {
        // Monotone model: the metric cannot drop.
        EXPECT_GE(rc.happy_deployed, rc.happy_baseline);
      }
    }
  }
}

TEST(RootCause, Figure2Numbers) {
  const auto g = Figure2::graph();
  const auto rc = analyze_root_causes(g, Figure2::kLevel3, Figure2::kAttacker,
                                      SecurityModel::kSecuritySecond,
                                      Figure2::deployment());
  EXPECT_EQ(rc.secure_normal, 3u);
  EXPECT_EQ(rc.downgraded, 2u);
  EXPECT_EQ(rc.secure_wasted, 1u);  // DoD was happy even at S = empty
  EXPECT_EQ(rc.secure_protecting, 0u);
  EXPECT_DOUBLE_EQ(rc.metric_change(), 0.0);
}

}  // namespace
}  // namespace sbgp::security
