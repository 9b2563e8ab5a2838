// Workspace-reuse correctness: every workspace-taking variant must produce
// exactly the state its allocating wrapper produces, including when one
// workspace is reused across many different queries, models and graphs —
// the BatchExecutor steady state.
#include "routing/workspace.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "routing/baseline.h"
#include "routing/engine.h"
#include "routing/reach.h"
#include "security/partition.h"
#include "test_support.h"
#include "topology/generator.h"
#include "topology/registry.h"

namespace sbgp::routing {
namespace {

using test::random_deployment;
using test::random_gr_graph;

void expect_same_outcome(const RoutingOutcome& a, const RoutingOutcome& b) {
  ASSERT_EQ(a.num_ases(), b.num_ases());
  for (AsId v = 0; v < a.num_ases(); ++v) {
    EXPECT_EQ(a.type(v), b.type(v)) << "AS " << v;
    EXPECT_EQ(a.length(v), b.length(v)) << "AS " << v;
    EXPECT_EQ(a.reaches_destination(v), b.reaches_destination(v)) << "AS " << v;
    EXPECT_EQ(a.reaches_attacker(v), b.reaches_attacker(v)) << "AS " << v;
    EXPECT_EQ(a.secure_route(v), b.secure_route(v)) << "AS " << v;
  }
}

TEST(EngineWorkspace, MatchesAllocatingEngineAcrossReuse) {
  util::Rng rng(123);
  EngineWorkspace ws;  // deliberately shared across every query below
  for (int round = 0; round < 4; ++round) {
    const auto g = random_gr_graph(120 + 40 * round, rng);
    const auto dep = random_deployment(g.num_ases(), 0.4, rng);
    for (const auto model :
         {SecurityModel::kInsecure, SecurityModel::kSecurityFirst,
          SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
      const Query q{/*destination=*/static_cast<AsId>(round),
                    /*attacker=*/static_cast<AsId>(g.num_ases() - 1 - round),
                    model};
      const auto fresh = compute_routing(g, q, dep);
      const auto& reused = compute_routing(g, q, dep, ws);
      expect_same_outcome(fresh, reused);
    }
  }
}

TEST(EngineWorkspace, BaselineMatchesAllocatingVariant) {
  util::Rng rng(42);
  EngineWorkspace ws;
  const auto g = random_gr_graph(140, rng);
  for (const auto lp :
       {LocalPrefPolicy::standard(), LocalPrefPolicy::lp_k(2),
        LocalPrefPolicy::lp_k(5)}) {
    const auto fresh = compute_baseline(g, 2, 77, lp);
    const auto& reused = compute_baseline(g, 2, 77, lp, ws);
    expect_same_outcome(fresh, reused);
  }
}

TEST(EngineWorkspace, ReachMatchesAllocatingVariant) {
  util::Rng rng(11);
  EngineWorkspace ws;
  const auto g = random_gr_graph(130, rng);
  const auto fresh = perceivable_distances(g, 5, 0, 60);
  perceivable_distances_into(g, 5, 0, 60, ws.reach_d, ws.frontier);
  EXPECT_EQ(fresh.customer, ws.reach_d.customer);
  EXPECT_EQ(fresh.peer, ws.reach_d.peer);
  EXPECT_EQ(fresh.provider, ws.reach_d.provider);
  // Reuse the same buffers for a different root.
  const auto fresh2 = perceivable_distances(g, 60, 1, kNoAs);
  perceivable_distances_into(g, 60, 1, kNoAs, ws.reach_d, ws.frontier);
  EXPECT_EQ(fresh2.customer, ws.reach_d.customer);
  EXPECT_EQ(fresh2.peer, ws.reach_d.peer);
  EXPECT_EQ(fresh2.provider, ws.reach_d.provider);
}

/// For security 2nd/3rd, a context over the S = emptyset attacked outcome
/// ({d, m, kInsecure}, no deployment) must classify exactly like the
/// workspace context that computes its own standard-ladder baseline.
void expect_outcome_context_matches(const topology::AsGraph& g, AsId d, AsId m,
                                    EngineWorkspace& ws) {
  RoutingOutcome empty_attacked;
  compute_routing_into(g, {d, m, SecurityModel::kInsecure}, {}, ws,
                       empty_attacked);
  for (const auto model :
       {SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
    SCOPED_TRACE(std::string(to_string(model)) + " d=" + std::to_string(d) +
                 " m=" + std::to_string(m));
    const security::PartitionContext from_outcome(g, d, m, model,
                                                  empty_attacked);
    const security::PartitionContext from_ws(
        g, d, m, model, LocalPrefPolicy::standard(), ws);
    for (AsId v = 0; v < g.num_ases(); ++v) {
      ASSERT_EQ(from_ws.classify(v), from_outcome.classify(v)) << "AS " << v;
    }
    EXPECT_EQ(from_ws.counts(), from_outcome.counts());
  }
}

TEST(EngineWorkspace, PartitionContextMatchesClassifySources) {
  util::Rng rng(31);
  EngineWorkspace ws;
  const auto g = random_gr_graph(160, rng);
  for (const auto model : kAllSecurityModels) {
    const auto cls = security::classify_sources(g, 4, 90, model);
    const security::PartitionContext ctx(
        g, 4, 90, model, LocalPrefPolicy::standard(), ws);
    for (AsId v = 0; v < g.num_ases(); ++v) {
      EXPECT_EQ(cls[v], ctx.classify(v)) << "AS " << v;
    }
    const auto counts = ctx.counts();
    EXPECT_EQ(counts.sources, g.num_ases() - 2);
    EXPECT_EQ(counts.doomed + counts.protectable + counts.immune,
              counts.sources);
  }
  expect_outcome_context_matches(g, 4, 90, ws);
  for (int i = 0; i < 8; ++i) {
    const auto d = static_cast<AsId>(rng.next_below(g.num_ases()));
    auto m = static_cast<AsId>(rng.next_below(g.num_ases()));
    if (m == d) m = (m + 1) % g.num_ases();
    expect_outcome_context_matches(g, d, m, ws);
  }
}

TEST(EngineWorkspace, OutcomeContextMatchesWorkspaceContextOnTiny500) {
  const auto topo = topology::generate_trial("tiny-500", 20130812, 0);
  const auto& g = topo.graph;
  util::Rng rng(500);
  EngineWorkspace ws;
  for (int i = 0; i < 8; ++i) {
    const auto d = static_cast<AsId>(rng.next_below(g.num_ases()));
    auto m = static_cast<AsId>(rng.next_below(g.num_ases()));
    if (m == d) m = (m + 1) % g.num_ases();
    expect_outcome_context_matches(g, d, m, ws);
  }
}

TEST(EngineWorkspace, OutcomeContextRejectsInvalidInputs) {
  util::Rng rng(17);
  EngineWorkspace ws;
  const auto g = random_gr_graph(60, rng);
  RoutingOutcome empty_attacked;
  compute_routing_into(g, {3, 40, SecurityModel::kInsecure}, {}, ws,
                       empty_attacked);
  using security::PartitionContext;
  EXPECT_THROW(PartitionContext(g, 3, 40, SecurityModel::kSecurityFirst,
                                empty_attacked),
               std::invalid_argument);
  EXPECT_THROW(
      PartitionContext(g, 3, 40, SecurityModel::kInsecure, empty_attacked),
      std::invalid_argument);
  EXPECT_THROW(
      PartitionContext(g, 3, 3, SecurityModel::kSecurityThird, empty_attacked),
      std::invalid_argument);
  const RoutingOutcome wrong_size(g.num_ases() + 1);
  EXPECT_THROW(
      PartitionContext(g, 3, 40, SecurityModel::kSecuritySecond, wrong_size),
      std::invalid_argument);
}

TEST(EngineWorkspace, OutcomeResetClearsPreviousState) {
  RoutingOutcome out(5);
  out.fix(3, RouteType::kCustomer, 2, true, true, true);
  out.reset(5);
  EXPECT_EQ(out.type(3), RouteType::kNone);
  EXPECT_EQ(out.length(3), kNoRouteLength);
  EXPECT_FALSE(out.reaches_destination(3));
  EXPECT_FALSE(out.reaches_attacker(3));
  EXPECT_FALSE(out.secure_route(3));
  // Shrink and regrow keeps values consistent.
  out.reset(2);
  EXPECT_EQ(out.num_ases(), 2u);
  out.reset(9);
  EXPECT_EQ(out.num_ases(), 9u);
  for (AsId v = 0; v < 9; ++v) EXPECT_EQ(out.type(v), RouteType::kNone);
}

}  // namespace
}  // namespace sbgp::routing
