// Tests for the Section 8 extension implementations (hysteresis) and for
// the perceivable-route distance machinery (Definition B.1).
#include <gtest/gtest.h>

#include "routing/engine.h"
#include "routing/reach.h"
#include "security/case_studies.h"
#include "test_support.h"
#include "topology/generator.h"
#include "topology/registry.h"
#include "util/hash.h"
#include "util/rng.h"

namespace sbgp::routing {
namespace {

using security::cases::CollateralBenefitStrict;
using security::cases::Figure2;
using test::random_deployment;
using test::random_gr_graph;
using topology::AsGraphBuilder;

// ---------------------------------------------------------------------------
// Hysteresis (Section 8 "one could add hysteresis to S*BGP").
// ---------------------------------------------------------------------------

TEST(Hysteresis, StopsTheFigure2Downgrade) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  for (const auto model :
       {SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
    const Query q{Figure2::kLevel3, Figure2::kAttacker, model};
    const auto plain = compute_routing(g, q, dep);
    EXPECT_FALSE(plain.secure_route(Figure2::kENom)) << to_string(model);
    const auto sticky = compute_routing_with_hysteresis(g, q, dep);
    // eNom holds on to its secure provider route; Cogent to its secure
    // peer route — no downgrades.
    EXPECT_TRUE(sticky.secure_route(Figure2::kENom)) << to_string(model);
    EXPECT_EQ(sticky.happy(Figure2::kENom), HappyStatus::kHappy);
    EXPECT_TRUE(sticky.secure_route(Figure2::kCogent));
    EXPECT_EQ(sticky.happy(Figure2::kCogent), HappyStatus::kHappy);
  }
}

TEST(Hysteresis, NeverDowngradesOnRandomGraphs) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t n = 60;
    const auto g = random_gr_graph(n, rng);
    // Stub attackers keep normal-time routes attacker-free, so every
    // secure route must survive.
    std::vector<AsId> stubs;
    for (AsId v = 0; v < n; ++v) {
      if (g.is_stub(v)) stubs.push_back(v);
    }
    ASSERT_FALSE(stubs.empty());
    const AsId m = stubs[rng.next_below(stubs.size())];
    AsId d = static_cast<AsId>(rng.next_below(n));
    if (d == m) d = (d + 1) % n;
    const auto dep = random_deployment(n, 0.5, rng);
    for (const auto model : kAllSecurityModels) {
      const Query q{d, m, model};
      const auto normal = compute_routing(g, {d, kNoAs, model}, dep);
      const auto sticky = compute_routing_with_hysteresis(g, q, dep);
      for (AsId v = 0; v < n; ++v) {
        if (v == d || v == m) continue;
        if (normal.secure_route(v)) {
          EXPECT_TRUE(sticky.secure_route(v))
              << to_string(model) << " AS " << v;
          EXPECT_EQ(sticky.happy(v), HappyStatus::kHappy);
        }
      }
    }
  }
}

TEST(Hysteresis, MatchesPlainEngineUnderSecurityFirst) {
  // Theorem 3.1 says security 1st already has the hysteresis property for
  // attacker-free secure routes; the two computations must agree on
  // happiness wherever the attacker is off-path.
  util::Rng rng(99);
  const std::uint32_t n = 50;
  const auto g = random_gr_graph(n, rng);
  std::vector<AsId> stubs;
  for (AsId v = 0; v < n; ++v) {
    if (g.is_stub(v)) stubs.push_back(v);
  }
  const AsId m = stubs[0];
  const AsId d = m == 0 ? 1 : 0;
  const auto dep = random_deployment(n, 0.5, rng);
  const Query q{d, m, SecurityModel::kSecurityFirst};
  const auto plain = compute_routing(g, q, dep);
  const auto sticky = compute_routing_with_hysteresis(g, q, dep);
  for (AsId v = 0; v < n; ++v) {
    if (v == d || v == m) continue;
    EXPECT_EQ(plain.secure_route(v), sticky.secure_route(v)) << v;
    EXPECT_EQ(plain.happy(v), sticky.happy(v)) << v;
  }
}

// Golden packed-word hashes of the hysteresis engine. Which secure route an
// AS pins decides whether the attacker sits on it, so every byte of the
// attacked state depends on the representative route the engine follows
// from the normal state; no committed baseline has a hysteresis row, so
// these constants are what pins that choice. Each config hashes (FNV-1a,
// byte-wise over every packed word of every queried outcome) 120 random
// attacked (d, m) pairs on one tiny-500 trial under one random deployment.
TEST(Hysteresis, GoldenPackedWordHashes) {
  struct Config {
    std::uint64_t trial;
    int secure_percent;
    SecurityModel model;
    std::uint64_t hash;
  };
  const Config configs[] = {
      {0, 50, SecurityModel::kSecurityFirst, 0x978369a2a683cba9ull},
      {0, 50, SecurityModel::kSecuritySecond, 0xaee07e78dcc5d003ull},
      {0, 50, SecurityModel::kSecurityThird, 0xef9e6ebae21c6fefull},
      {0, 90, SecurityModel::kSecurityFirst, 0xb5546f79c131edb8ull},
      {0, 90, SecurityModel::kSecuritySecond, 0x9002413ea8dc4dacull},
      {0, 90, SecurityModel::kSecurityThird, 0xd214362c44a4cf33ull},
      {1, 50, SecurityModel::kSecurityFirst, 0x6441cb3d697970dcull},
      {1, 50, SecurityModel::kSecuritySecond, 0x3cc724f379134e45ull},
      {1, 50, SecurityModel::kSecurityThird, 0x6e838a985424eb3aull},
      {1, 90, SecurityModel::kSecurityFirst, 0x8ac4d53f171267c5ull},
      {1, 90, SecurityModel::kSecuritySecond, 0x81a4dfae1df10ff3ull},
      {1, 90, SecurityModel::kSecurityThird, 0xe10d51a2a28d6c96ull},
  };
  for (const Config& c : configs) {
    const auto topo = topology::generate_trial("tiny-500", 7, c.trial);
    const auto& g = topo.graph;
    const auto n = static_cast<std::uint32_t>(g.num_ases());
    util::Rng rng(1000 * c.trial + c.secure_percent);
    const auto dep = random_deployment(n, c.secure_percent / 100.0, rng);
    std::uint64_t h = util::kFnv1aOffset;
    for (int pair = 0; pair < 120; ++pair) {
      const auto d = static_cast<AsId>(rng.next_below(n));
      auto m = static_cast<AsId>(rng.next_below(n - 1));
      if (m >= d) ++m;
      const auto out =
          compute_routing_with_hysteresis(g, {d, m, c.model}, dep);
      for (AsId v = 0; v < n; ++v) {
        const std::uint32_t word = out.packed_word(v);
        for (int byte = 0; byte < 4; ++byte) {
          h ^= (word >> (8 * byte)) & 0xFFu;
          h *= util::kFnv1aPrime;
        }
      }
    }
    EXPECT_EQ(h, c.hash) << "trial " << c.trial << ", "
                         << c.secure_percent << "% secure, "
                         << to_string(c.model);
  }
}

TEST(Hysteresis, NoAttackIsIdentity) {
  const auto g = Figure2::graph();
  const auto dep = Figure2::deployment();
  const Query q{Figure2::kLevel3, kNoAs, SecurityModel::kSecuritySecond};
  const auto a = compute_routing(g, q, dep);
  const auto b = compute_routing_with_hysteresis(g, q, dep);
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_EQ(a.type(v), b.type(v));
    EXPECT_EQ(a.length(v), b.length(v));
    EXPECT_EQ(a.secure_route(v), b.secure_route(v));
  }
}

// ---------------------------------------------------------------------------
// CollateralBenefitStrict: engine-level behaviour of the Fig 14 benefit.
// ---------------------------------------------------------------------------

TEST(CaseStudies, StrictBenefitEngineLevel) {
  using F = CollateralBenefitStrict;
  const auto g = F::graph();
  const Query q{F::kD, F::kM, SecurityModel::kSecuritySecond};
  const auto before = compute_routing(g, q, {});
  // Before deployment x strictly prefers the bogus customer route.
  EXPECT_EQ(before.type(F::kX), RouteType::kCustomer);
  EXPECT_EQ(before.happy(F::kX), HappyStatus::kUnhappy);
  EXPECT_EQ(before.happy(F::kCb), HappyStatus::kUnhappy);
  const auto after = compute_routing(g, q, F::deployment());
  EXPECT_TRUE(after.secure_route(F::kX));
  EXPECT_EQ(after.type(F::kX), RouteType::kCustomer);
  EXPECT_EQ(after.length(F::kX), 4);
  EXPECT_EQ(after.happy(F::kCb), HappyStatus::kHappy);
  EXPECT_FALSE(after.secure_route(F::kCb));
}

// ---------------------------------------------------------------------------
// Perceivable distances (Definition B.1).
// ---------------------------------------------------------------------------

TEST(Reach, CustomerRoutesClimbProviders) {
  // chain: d(0) <- 1 <- 2 (customer-provider up).
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);
  b.add_customer_provider(1, 2);
  const auto g = b.build();
  const auto dist = perceivable_distances(g, 0);
  EXPECT_EQ(dist.customer[1], 1);
  EXPECT_EQ(dist.customer[2], 2);
  EXPECT_EQ(dist.peer[2], PerceivableDistances::kNoRouteLengthR);
}

TEST(Reach, PeerRoutesAreOneLateralHop) {
  // d(0) <- 1; 1 -- 2 (peer); 2 -- 3 (peer). 2 perceives a peer route of
  // length 2 via 1; 3 does NOT (peer routes are not re-exported to peers).
  AsGraphBuilder b(4);
  b.add_customer_provider(0, 1);
  b.add_peer_peer(1, 2);
  b.add_peer_peer(2, 3);
  const auto g = b.build();
  const auto dist = perceivable_distances(g, 0);
  EXPECT_EQ(dist.peer[2], 2);
  EXPECT_EQ(dist.peer[3], PerceivableDistances::kNoRouteLengthR);
  EXPECT_FALSE(dist.reachable(3));
}

TEST(Reach, ProviderRoutesDescend) {
  // d(0) <- 1 (customer route), 2 is a customer of 1, 3 a customer of 2.
  AsGraphBuilder b(4);
  b.add_customer_provider(0, 1);
  b.add_customer_provider(2, 1);
  b.add_customer_provider(3, 2);
  const auto g = b.build();
  const auto dist = perceivable_distances(g, 0);
  EXPECT_EQ(dist.provider[2], 2);
  EXPECT_EQ(dist.provider[3], 3);
}

TEST(Reach, RootLengthOffsetsBogusOrigin) {
  AsGraphBuilder b(2);
  b.add_customer_provider(0, 1);
  const auto g = b.build();
  const auto dist = perceivable_distances(g, 0, /*root_length=*/1);
  EXPECT_EQ(dist.customer[1], 2);  // the attacker's fake extra hop
}

TEST(Reach, ExclusionRemovesTransit) {
  // d(0) <- x(1) <- 2: excluding x disconnects 2.
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);
  b.add_customer_provider(1, 2);
  const auto g = b.build();
  const auto dist = perceivable_distances(g, 0, 0, /*excluded=*/1);
  EXPECT_FALSE(dist.reachable(2));
}

TEST(Reach, BestPrefersCustomerOverShorterPeer) {
  // v(2): customer route of length 2 and peer route of length... build:
  // d(0) <- w(1) <- v(2) and v peers d.
  AsGraphBuilder b(3);
  b.add_customer_provider(0, 1);
  b.add_customer_provider(1, 2);
  b.add_peer_peer(2, 0);
  const auto g = b.build();
  const auto dist = perceivable_distances(g, 0);
  const auto [type, len] = dist.best(2);
  EXPECT_EQ(type, RouteType::kCustomer);
  EXPECT_EQ(len, 2);
  EXPECT_EQ(dist.peer[2], 1);
}

TEST(Reach, AgreesWithBaselineReachabilityOnRandomGraphs) {
  // Any AS with a perceivable route must get a route in the stable state
  // and vice versa (with no attacker there is no pruning).
  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = random_gr_graph(50, rng);
    const AsId d = static_cast<AsId>(rng.next_below(50));
    const auto dist = perceivable_distances(g, d);
    const auto out = compute_routing(g, {d, kNoAs, SecurityModel::kInsecure}, {});
    for (AsId v = 0; v < 50; ++v) {
      if (v == d) continue;
      EXPECT_EQ(dist.reachable(v), out.has_route(v)) << v;
      if (out.has_route(v)) {
        // The stable route can never be shorter than the best perceivable
        // length of its class.
        const auto per_class = [&] {
          switch (out.type(v)) {
            case RouteType::kCustomer: return dist.customer[v];
            case RouteType::kPeer: return dist.peer[v];
            default: return dist.provider[v];
          }
        }();
        if (per_class != PerceivableDistances::kNoRouteLengthR) {
          EXPECT_GE(out.length(v), per_class) << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sbgp::routing
