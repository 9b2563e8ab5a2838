// Direct tests of the reference path-vector simulator's event machinery
// (withdrawals, link failures, incremental re-convergence). Its routing
// correctness is covered by the equivalence suite; these tests pin down
// the dynamic behaviours the wedgie analysis depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "routing/reference.h"
#include "test_support.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace sbgp::routing {
namespace {

using test::random_deployment;
using test::random_gr_graph;
using topology::AsGraphBuilder;

TEST(Reference, WithdrawalPropagatesDisconnection) {
  // d(0) <- 1 <- 2: killing the 0-1 link must leave both 1 and 2 routeless.
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);
  b.add_customer_provider(1, 2);
  const auto g = b.build();
  ReferenceSimulator ref(g, Deployment(3));
  const Query q{0, kNoAs, SecurityModel::kInsecure};
  ASSERT_TRUE(ref.run(q, 1).converged);
  ASSERT_TRUE(ref.chosen(2).has_value());

  ref.set_link_enabled(0, 1, false);
  ASSERT_TRUE(ref.run(q, 2).converged);
  EXPECT_FALSE(ref.chosen(1).has_value());
  EXPECT_FALSE(ref.chosen(2).has_value());

  ref.set_link_enabled(0, 1, true);
  ASSERT_TRUE(ref.run(q, 3).converged);
  ASSERT_TRUE(ref.chosen(2).has_value());
  EXPECT_EQ(ref.chosen(2)->path, (std::vector<AsId>{1, 0}));
}

TEST(Reference, SetLinkEnabledValidatesAdjacency) {
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);
  const auto g = b.build();
  ReferenceSimulator ref(g, Deployment(3));
  EXPECT_THROW(ref.set_link_enabled(0, 2, false), std::invalid_argument);
}

TEST(Reference, IncrementalReconvergenceMatchesFreshRun) {
  // Converge, fail a random link, re-converge incrementally; the state
  // must equal a fresh simulation on the graph minus that link.
  util::Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint32_t n = 30;
    const auto g = random_gr_graph(n, rng, 0.4);
    const auto dep = random_deployment(n, 0.5, rng);
    const AsId d = static_cast<AsId>(rng.next_below(n));
    AsId m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Query q{d, m, SecurityModel::kSecuritySecond};

    // Pick an existing link not incident to the roots.
    AsId a = kNoAs;
    AsId bnode = kNoAs;
    for (AsId v = 0; v < n && a == kNoAs; ++v) {
      if (v == d || v == m) continue;
      for (const AsId u : g.neighbors(v)) {
        if (u != d && u != m) {
          a = v;
          bnode = u;
          break;
        }
      }
    }
    ASSERT_NE(a, kNoAs);

    ReferenceSimulator incremental(g, dep);
    ASSERT_TRUE(incremental.run(q, 1).converged);
    incremental.set_link_enabled(a, bnode, false);
    ASSERT_TRUE(incremental.run(q, 2).converged);

    ReferenceSimulator fresh(g, dep);
    fresh.set_link_enabled(a, bnode, false);
    ASSERT_TRUE(fresh.run(q, 3).converged);

    for (AsId v = 0; v < n; ++v) {
      ASSERT_EQ(incremental.chosen(v).has_value(), fresh.chosen(v).has_value())
          << "trial " << trial << " AS " << v;
      if (incremental.chosen(v).has_value()) {
        EXPECT_EQ(incremental.chosen(v)->path, fresh.chosen(v)->path)
            << "trial " << trial << " AS " << v;
      }
    }
  }
}

TEST(Reference, RouteTypeAndAttackerAccessors) {
  using test::Figure2;
  const auto g = Figure2::graph();
  ReferenceSimulator ref(g, Figure2::deployment());
  const Query q{Figure2::kLevel3, Figure2::kAttacker,
                SecurityModel::kSecuritySecond};
  // The stable state is unique (Theorem 2.1), so every activation order
  // must converge to the same routes — including the full Figure 2 paths:
  // eNom downgrades to the bogus route via Cogent and PCCW, while DoD keeps
  // its secure route straight to Level3.
  const std::vector<AsId> bogus{Figure2::kCogent, Figure2::kPccw,
                                Figure2::kAttacker, Figure2::kLevel3};
  const std::vector<AsId> legit{Figure2::kLevel3};
  for (const std::uint64_t seed : {1, 5, 9, 123}) {
    SCOPED_TRACE("activation seed " + std::to_string(seed));
    ref.reset();
    ASSERT_TRUE(ref.run(q, seed).converged);
    EXPECT_EQ(ref.route_type(Figure2::kLevel3), RouteType::kOrigin);
    EXPECT_EQ(ref.route_type(Figure2::kENom), RouteType::kPeer);
    EXPECT_TRUE(ref.routes_to_attacker(Figure2::kENom));
    EXPECT_FALSE(ref.routes_to_attacker(Figure2::kDod));
    EXPECT_TRUE(ref.secure_route(Figure2::kDod));
    EXPECT_FALSE(ref.secure_route(Figure2::kENom));
    ASSERT_TRUE(ref.chosen(Figure2::kENom).has_value());
    EXPECT_EQ(ref.chosen(Figure2::kENom)->path, bogus);
    ASSERT_TRUE(ref.chosen(Figure2::kDod).has_value());
    EXPECT_EQ(ref.chosen(Figure2::kDod)->path, legit);
  }
}

TEST(Reference, RejectsBadQueries) {
  AsGraphBuilder b(2);
  b.add_peer_peer(0, 1);
  const auto g = b.build();
  ReferenceSimulator ref(g, Deployment(2));
  EXPECT_THROW(ref.run({5, kNoAs, SecurityModel::kInsecure}, 1),
               std::invalid_argument);
  EXPECT_THROW(ref.run({0, 0, SecurityModel::kInsecure}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      ReferenceSimulator(g, Deployment(2), LocalPrefPolicy::standard(),
                         std::vector<SecurityModel>(5)),
      std::invalid_argument);
}

TEST(Reference, ResetClearsState) {
  AsGraphBuilder b(2);
  b.add_customer_provider(0, 1);
  const auto g = b.build();
  ReferenceSimulator ref(g, Deployment(2));
  ASSERT_TRUE(ref.run({0, kNoAs, SecurityModel::kInsecure}, 1).converged);
  ASSERT_TRUE(ref.chosen(1).has_value());
  ref.reset();
  EXPECT_FALSE(ref.chosen(1).has_value());
  // A new query on the same simulator works after reset.
  ASSERT_TRUE(ref.run({1, kNoAs, SecurityModel::kInsecure}, 1).converged);
  EXPECT_TRUE(ref.chosen(0).has_value());
}

TEST(Reference, SwitchingQueriesResetsImplicitly) {
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);
  b.add_customer_provider(2, 1);
  const auto g = b.build();
  ReferenceSimulator ref(g, Deployment(3));
  ASSERT_TRUE(ref.run({0, kNoAs, SecurityModel::kInsecure}, 1).converged);
  EXPECT_EQ(ref.route_type(0), RouteType::kOrigin);
  ASSERT_TRUE(ref.run({2, kNoAs, SecurityModel::kInsecure}, 1).converged);
  EXPECT_EQ(ref.route_type(2), RouteType::kOrigin);
  ASSERT_TRUE(ref.chosen(0).has_value());
  EXPECT_EQ(ref.chosen(0)->path, (std::vector<AsId>{1, 2}));
}

}  // namespace
}  // namespace sbgp::routing
