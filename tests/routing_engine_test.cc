#include "routing/engine.h"

#include <gtest/gtest.h>

#include "routing/model.h"
#include "test_support.h"
#include "topology/as_graph.h"

namespace sbgp::routing {
namespace {

using test::CollateralBenefit;
using test::CollateralDamage;
using test::ExportDamage;
using test::Figure2;
using topology::AsGraphBuilder;

Query attack(AsId d, AsId m, SecurityModel model) { return {d, m, model}; }
Query normal(AsId d, SecurityModel model) { return {d, kNoAs, model}; }

// ---------------------------------------------------------------------------
// Basic mechanics on tiny graphs.
// ---------------------------------------------------------------------------

TEST(Engine, DirectProviderGetsCustomerRoute) {
  AsGraphBuilder b(2);
  b.add_customer_provider(/*customer=*/0, /*provider=*/1);
  const auto g = b.build();
  const auto out = compute_routing(g, normal(0, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.type(1), RouteType::kCustomer);
  EXPECT_EQ(out.length(1), 1);
  EXPECT_TRUE(out.reaches_destination(1));
  EXPECT_EQ(out.happy(1), HappyStatus::kHappy);
  EXPECT_EQ(out.type(0), RouteType::kOrigin);
}

TEST(Engine, CustomerOfDestinationGetsProviderRoute) {
  AsGraphBuilder b(2);
  b.add_customer_provider(1, 0);  // 1 buys from 0 = d
  const auto g = b.build();
  const auto out = compute_routing(g, normal(0, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.type(1), RouteType::kProvider);
  EXPECT_EQ(out.length(1), 1);
}

TEST(Engine, PeerOfDestinationGetsPeerRoute) {
  AsGraphBuilder b(2);
  b.add_peer_peer(0, 1);
  const auto g = b.build();
  const auto out = compute_routing(g, normal(0, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.type(1), RouteType::kPeer);
}

TEST(Engine, ValleyFreePathsOnly) {
  // 0 = d; 1 peers d; 2 peers 1. Peer routes do not propagate to peers, so
  // 2 must be disconnected.
  AsGraphBuilder b(3);
  b.add_peer_peer(0, 1);
  b.add_peer_peer(1, 2);
  const auto g = b.build();
  const auto out = compute_routing(g, normal(0, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.type(2), RouteType::kNone);
  EXPECT_EQ(out.happy(2), HappyStatus::kDisconnected);
}

TEST(Engine, CustomerRoutePreferredOverShorterPeerAndProvider) {
  // v(3) has: customer route via 1 (length 2), peer route via d... build:
  // d=0; 1 customer of 3 with route to d; 3 peers 0; 3 buys from 0? Cannot
  // have two edges; use separate nodes.
  //   d=0, c=1 (customer of v with customer route to d), v=2 peers d.
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);  // d customer of c -> c has route "d"
  b.add_customer_provider(1, 2);  // c customer of v
  b.add_peer_peer(2, 0);          // v peers d: 1-hop peer route
  const auto g = b.build();
  const auto out = compute_routing(g, normal(0, SecurityModel::kInsecure), {});
  // LP: the 2-hop customer route beats the 1-hop peer route.
  EXPECT_EQ(out.type(2), RouteType::kCustomer);
  EXPECT_EQ(out.length(2), 2);
}

TEST(Engine, ShorterRouteWinsWithinClass) {
  // v(0) has two customers: 1 with a direct route to d(3), and 2 reaching d
  // through 4. Both give customer routes; the shorter one wins.
  AsGraphBuilder b(5);
  b.add_customer_provider(1, 0);
  b.add_customer_provider(2, 0);
  b.add_customer_provider(3, 1);  // d=3 customer of 1
  b.add_customer_provider(4, 2);
  b.add_customer_provider(3, 4);
  const auto g = b.build();
  const auto out = compute_routing(g, normal(3, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.type(0), RouteType::kCustomer);
  EXPECT_EQ(out.length(0), 2);
}

TEST(Engine, AttackerBogusRouteCountsExtraHop) {
  // d=0, m=1, both customers of provider 2: the bogus route "m, d" looks
  // one hop longer, so 2 strictly prefers the legitimate route.
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 2);
  b.add_customer_provider(1, 2);
  const auto g = b.build();
  const auto out =
      compute_routing(g, attack(0, 1, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.happy(2), HappyStatus::kHappy);
  EXPECT_EQ(out.length(2), 1);
}

TEST(Engine, EqualInsecureRoutesAreEither) {
  // v(4) reaches d via p1 and m via p2 with identical type and length:
  // via p1 the legitimate [p1, w, d] and via p2 the bogus [p2, m, d].
  AsGraphBuilder b(6);
  b.add_customer_provider(0, 5);  // d=0 customer of w=5
  b.add_customer_provider(5, 2);  // w customer of p1=2
  b.add_customer_provider(1, 3);  // m=1 customer of p2=3
  b.add_customer_provider(4, 2);  // v=4 buys from p1
  b.add_customer_provider(4, 3);  // v buys from p2
  const auto g = b.build();
  const auto out =
      compute_routing(g, attack(0, 1, SecurityModel::kInsecure), {});
  EXPECT_EQ(out.happy(2), HappyStatus::kHappy);    // p1: 2-hop legit
  EXPECT_EQ(out.happy(3), HappyStatus::kUnhappy);  // p2: 2-hop bogus
  EXPECT_EQ(out.length(2), 2);
  EXPECT_EQ(out.length(3), 2);
  // v: two 3-hop provider routes, one to each root: knife's edge.
  EXPECT_EQ(out.happy(4), HappyStatus::kEither);
  EXPECT_TRUE(out.reaches_destination(4));
  EXPECT_TRUE(out.reaches_attacker(4));
}

TEST(Engine, QueryValidation) {
  AsGraphBuilder b(2);
  b.add_peer_peer(0, 1);
  const auto g = b.build();
  EXPECT_THROW(compute_routing(g, normal(5, SecurityModel::kInsecure), {}),
               std::invalid_argument);
  EXPECT_THROW(compute_routing(g, attack(0, 0, SecurityModel::kInsecure), {}),
               std::invalid_argument);
  EXPECT_THROW(compute_routing(g, attack(0, 7, SecurityModel::kInsecure), {}),
               std::invalid_argument);
}

TEST(Engine, BaselineIgnoresDeployment) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  const auto with_dep = compute_routing(
      g, attack(Figure2::kLevel3, Figure2::kAttacker, SecurityModel::kInsecure),
      dep);
  const auto without = compute_routing(
      g, attack(Figure2::kLevel3, Figure2::kAttacker, SecurityModel::kInsecure),
      {});
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_EQ(with_dep.type(v), without.type(v));
    EXPECT_EQ(with_dep.happy(v), without.happy(v));
    EXPECT_FALSE(with_dep.secure_route(v));
  }
}

TEST(Engine, EmptyDeploymentMakesAllModelsAgree) {
  const auto g = CollateralDamage::graph();
  const Query base =
      attack(CollateralDamage::kD, CollateralDamage::kM,
             SecurityModel::kInsecure);
  const auto baseline = compute_routing(g, base, {});
  for (const auto model : kAllSecurityModels) {
    const auto out = compute_routing(
        g, attack(CollateralDamage::kD, CollateralDamage::kM, model), {});
    for (AsId v = 0; v < g.num_ases(); ++v) {
      EXPECT_EQ(out.type(v), baseline.type(v)) << to_string(model) << " " << v;
      EXPECT_EQ(out.length(v), baseline.length(v));
      EXPECT_EQ(out.happy(v), baseline.happy(v));
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 2: protocol downgrade attack on a Tier 1 destination.
// ---------------------------------------------------------------------------

TEST(Engine, Figure2NormalConditionsSecureRoutes) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  const auto out = compute_routing(
      g, normal(Figure2::kLevel3, SecurityModel::kSecuritySecond), dep);
  // eNom has a secure one-hop provider route to Level3.
  EXPECT_EQ(out.type(Figure2::kENom), RouteType::kProvider);
  EXPECT_EQ(out.length(Figure2::kENom), 1);
  EXPECT_TRUE(out.secure_route(Figure2::kENom));
  // Cogent holds a secure peer route; PCCW (insecure) cannot validate.
  EXPECT_TRUE(out.secure_route(Figure2::kCogent));
  EXPECT_FALSE(out.secure_route(Figure2::kPccw));
  EXPECT_EQ(out.type(Figure2::kPccw), RouteType::kProvider);
}

TEST(Engine, Figure2DowngradeWhenSecuritySecondOrThird) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  for (const auto model :
       {SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
    const auto out = compute_routing(
        g, attack(Figure2::kLevel3, Figure2::kAttacker, model), dep);
    // eNom downgrades to the bogus 4-hop peer route via Cogent.
    EXPECT_EQ(out.type(Figure2::kENom), RouteType::kPeer) << to_string(model);
    EXPECT_EQ(out.length(Figure2::kENom), 4);
    EXPECT_FALSE(out.secure_route(Figure2::kENom));
    EXPECT_EQ(out.happy(Figure2::kENom), HappyStatus::kUnhappy);
    // Cogent prefers the bogus customer route over its peer route to d.
    EXPECT_EQ(out.happy(Figure2::kCogent), HappyStatus::kUnhappy);
    EXPECT_EQ(out.type(Figure2::kCogent), RouteType::kCustomer);
    // The single-homed stub is immune.
    EXPECT_EQ(out.happy(Figure2::kDod), HappyStatus::kHappy);
    EXPECT_TRUE(out.secure_route(Figure2::kDod));
  }
}

TEST(Engine, Figure2NoDowngradeWhenSecurityFirst) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  const auto out = compute_routing(
      g, attack(Figure2::kLevel3, Figure2::kAttacker,
                SecurityModel::kSecurityFirst),
      dep);
  // eNom keeps its secure provider route (Theorem 3.1).
  EXPECT_EQ(out.type(Figure2::kENom), RouteType::kProvider);
  EXPECT_TRUE(out.secure_route(Figure2::kENom));
  EXPECT_EQ(out.happy(Figure2::kENom), HappyStatus::kHappy);
  // Cogent now clings to its secure peer route despite the bogus customer
  // route being cheaper.
  EXPECT_EQ(out.type(Figure2::kCogent), RouteType::kPeer);
  EXPECT_TRUE(out.secure_route(Figure2::kCogent));
  EXPECT_EQ(out.happy(Figure2::kCogent), HappyStatus::kHappy);
}

// ---------------------------------------------------------------------------
// Collateral damage via longer secure routes (Figure 14 mechanism).
// ---------------------------------------------------------------------------

TEST(Engine, CollateralDamageHappensInSecondAndFirst) {
  const auto g = CollateralDamage::graph();
  const auto dep = CollateralDamage::deployment();
  const Query q0 = attack(CollateralDamage::kD, CollateralDamage::kM,
                          SecurityModel::kInsecure);
  const auto before = compute_routing(g, q0, {});
  EXPECT_EQ(before.happy(CollateralDamage::kV), HappyStatus::kHappy);

  for (const auto model :
       {SecurityModel::kSecurityFirst, SecurityModel::kSecuritySecond}) {
    const auto after = compute_routing(
        g, attack(CollateralDamage::kD, CollateralDamage::kM, model), dep);
    // P1 switched to the long secure route...
    EXPECT_TRUE(after.secure_route(CollateralDamage::kP1)) << to_string(model);
    EXPECT_EQ(after.length(CollateralDamage::kP1), 5);
    // ...so the insecure victim v now prefers the bogus path: damage.
    EXPECT_EQ(after.happy(CollateralDamage::kV), HappyStatus::kUnhappy)
        << to_string(model);
  }
}

TEST(Engine, NoCollateralDamageInThird) {
  const auto g = CollateralDamage::graph();
  const auto dep = CollateralDamage::deployment();
  const auto after =
      compute_routing(g,
                      attack(CollateralDamage::kD, CollateralDamage::kM,
                             SecurityModel::kSecurityThird),
                      dep);
  // Security 3rd keeps the short insecure customer route (SP above SecP).
  EXPECT_FALSE(after.secure_route(CollateralDamage::kP1));
  EXPECT_EQ(after.length(CollateralDamage::kP1), 2);
  EXPECT_EQ(after.happy(CollateralDamage::kV), HappyStatus::kHappy);
}

// ---------------------------------------------------------------------------
// Collateral benefit via secure tiebreak (Figure 15 mechanism).
// ---------------------------------------------------------------------------

TEST(Engine, CollateralBenefitInThird) {
  const auto g = CollateralBenefit::graph();
  const auto dep = CollateralBenefit::deployment();
  const Query q = attack(CollateralBenefit::kD, CollateralBenefit::kM,
                         SecurityModel::kSecurityThird);
  const auto before = compute_routing(g, q, {});
  // Two equal-length peer routes: only the tie break decides.
  EXPECT_EQ(before.happy(CollateralBenefit::kX), HappyStatus::kEither);
  EXPECT_EQ(before.happy(CollateralBenefit::kCb), HappyStatus::kEither);

  const auto after = compute_routing(g, q, dep);
  EXPECT_TRUE(after.secure_route(CollateralBenefit::kX));
  EXPECT_EQ(after.happy(CollateralBenefit::kX), HappyStatus::kHappy);
  // The insecure customer benefits collaterally.
  EXPECT_FALSE(after.secure_route(CollateralBenefit::kCb));
  EXPECT_EQ(after.happy(CollateralBenefit::kCb), HappyStatus::kHappy);
}

// ---------------------------------------------------------------------------
// Export-rule collateral damage (Figure 17 mechanism, security 1st).
// ---------------------------------------------------------------------------

TEST(Engine, ExportDamageOnlyInFirst) {
  const auto g = ExportDamage::graph();
  const auto dep = ExportDamage::deployment();
  const auto before = compute_routing(
      g, attack(ExportDamage::kD, ExportDamage::kM, SecurityModel::kInsecure),
      {});
  // Before deployment Orange rides Optus's exported customer route.
  EXPECT_EQ(before.type(ExportDamage::kOrange), RouteType::kPeer);
  EXPECT_EQ(before.happy(ExportDamage::kOrange), HappyStatus::kHappy);

  const auto first = compute_routing(
      g,
      attack(ExportDamage::kD, ExportDamage::kM, SecurityModel::kSecurityFirst),
      dep);
  // Optus moves to the secure provider route, which Ex forbids exporting to
  // a peer; Orange is left with only the bogus provider route.
  EXPECT_EQ(first.type(ExportDamage::kOptus), RouteType::kProvider);
  EXPECT_TRUE(first.secure_route(ExportDamage::kOptus));
  EXPECT_EQ(first.happy(ExportDamage::kOrange), HappyStatus::kUnhappy);

  for (const auto model :
       {SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
    const auto out = compute_routing(
        g, attack(ExportDamage::kD, ExportDamage::kM, model), dep);
    // LP keeps Optus on the customer route; Orange stays protected.
    EXPECT_EQ(out.type(ExportDamage::kOptus), RouteType::kCustomer)
        << to_string(model);
    EXPECT_EQ(out.happy(ExportDamage::kOrange), HappyStatus::kHappy);
  }
}

// ---------------------------------------------------------------------------
// Simplex S*BGP semantics (Section 5.3.2).
// ---------------------------------------------------------------------------

TEST(Engine, SimplexStubSignsButDoesNotValidate) {
  // d (simplex stub) <- p (secure). p's route to d can be secure.
  AsGraphBuilder b(2);
  b.add_customer_provider(0, 1);  // d=0 buys from p=1
  const auto g = b.build();
  Deployment dep(2);
  dep.simplex.insert(0);
  dep.secure.insert(1);
  const auto out =
      compute_routing(g, normal(0, SecurityModel::kSecuritySecond), dep);
  EXPECT_TRUE(out.secure_route(1));
}

TEST(Engine, SimplexSourceDoesNotPreferSecure) {
  // v is a simplex stub with two providers: p1 offers a longer secure route
  // to d, p2 a shorter insecure bogus route. Lacking validation, v takes
  // the short bogus one even under security 1st.
  AsGraphBuilder b(6);
  b.add_customer_provider(5, 1);  // w=5 customer of p1=1
  b.add_customer_provider(0, 5);  // d=0 customer of w
  b.add_customer_provider(2, 3);  // m=2 customer of p2=3
  b.add_customer_provider(4, 1);  // v=4 buys from p1
  b.add_customer_provider(4, 3);  // v buys from p2
  const auto g = b.build();
  Deployment dep(6);
  for (const AsId x : {0u, 1u, 5u}) dep.secure.insert(x);
  dep.simplex.insert(4);
  const auto out =
      compute_routing(g, attack(0, 2, SecurityModel::kSecurityFirst), dep);
  EXPECT_TRUE(out.secure_route(1));
  // v: via p1 length 3 (secure but unvalidatable), via p2 length 3 bogus:
  // equal-length insecure tie -> EITHER, not protected.
  EXPECT_EQ(out.happy(4), HappyStatus::kEither);
  EXPECT_FALSE(out.secure_route(4));
}

}  // namespace
}  // namespace sbgp::routing
