// Property suite: the staged engine must agree with the reference
// path-vector simulator on every random graph, model, deployment and
// attack. Agreement is checked on all tie-break-invariant attributes
// (route type, length, security) and on endpoint containment (the
// reference's concrete tie-break must land inside the engine's declared
// {reaches d, reaches m} set). Convergence of the reference under random
// asynchronous activation orders doubles as a check of Theorem 2.1.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "deployment/scenario.h"
#include "routing/baseline.h"
#include "routing/engine.h"
#include "routing/model.h"
#include "routing/reference.h"
#include "routing/workspace.h"
#include "test_support.h"
#include "topology/generator.h"
#include "topology/registry.h"
#include "util/rng.h"

namespace sbgp::routing {
namespace {

using test::random_deployment;
using test::random_gr_graph;
using topology::AsGraph;

/// Compares one engine outcome against one converged reference state.
void expect_equivalent(const AsGraph& g, const RoutingOutcome& eng,
                       const ReferenceSimulator& ref, const Query& q,
                       const std::string& label) {
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (v == q.destination || v == q.attacker) continue;
    SCOPED_TRACE(label + " AS " + std::to_string(v));
    const auto& chosen = ref.chosen(v);
    ASSERT_EQ(eng.has_route(v), chosen.has_value());
    if (!chosen.has_value()) continue;
    EXPECT_EQ(eng.type(v), ref.route_type(v));
    EXPECT_EQ(eng.length(v), chosen->path.size());
    EXPECT_EQ(eng.secure_route(v), ref.secure_route(v));
    if (q.under_attack()) {
      const bool to_m = ref.routes_to_attacker(v);
      if (to_m) {
        EXPECT_TRUE(eng.reaches_attacker(v));
      } else {
        EXPECT_TRUE(eng.reaches_destination(v));
      }
      // Determined statuses must match exactly.
      if (eng.happy(v) == HappyStatus::kHappy) {
        EXPECT_FALSE(to_m);
      }
      if (eng.happy(v) == HappyStatus::kUnhappy) {
        EXPECT_TRUE(to_m);
      }
    } else {
      EXPECT_TRUE(eng.reaches_destination(v));
      EXPECT_FALSE(eng.reaches_attacker(v));
    }
  }
}

struct Params {
  std::uint32_t n;
  std::uint64_t seed;
};

class EquivalenceTest : public ::testing::TestWithParam<Params> {};

TEST_P(EquivalenceTest, EngineMatchesReferenceOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed);
  const AsGraph g = random_gr_graph(n, rng);

  for (int trial = 0; trial < 3; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Deployment dep = random_deployment(n, 0.45, rng);

    for (const SecurityModel model :
         {SecurityModel::kInsecure, SecurityModel::kSecurityFirst,
          SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
      for (const bool attacked : {false, true}) {
        const Query q{d, attacked ? m : kNoAs, model};
        const auto eng = compute_routing(g, q, dep);
        ReferenceSimulator ref(g, dep);
        const auto conv = ref.run(q, /*activation_seed=*/seed + trial);
        ASSERT_TRUE(conv.converged);
        expect_equivalent(g, eng, ref, q,
                          std::string(to_string(model)) +
                              (attacked ? "/attack" : "/normal"));
      }
    }
  }
}

TEST_P(EquivalenceTest, ReferenceConvergesToSameStateRegardlessOfOrder) {
  // Theorem 2.1: a unique stable state, so any two random activation orders
  // must agree on the full chosen-route state.
  const auto [n, seed] = GetParam();
  util::Rng rng(seed * 31 + 7);
  const AsGraph g = random_gr_graph(n, rng);
  const auto d = static_cast<AsId>(rng.next_below(n));
  auto m = static_cast<AsId>(rng.next_below(n));
  if (m == d) m = (m + 1) % n;
  const Deployment dep = random_deployment(n, 0.5, rng);

  for (const SecurityModel model : kAllSecurityModels) {
    const Query q{d, m, model};
    ReferenceSimulator ref_a(g, dep);
    ReferenceSimulator ref_b(g, dep);
    ASSERT_TRUE(ref_a.run(q, 1111).converged);
    ASSERT_TRUE(ref_b.run(q, 99999).converged);
    for (AsId v = 0; v < n; ++v) {
      ASSERT_EQ(ref_a.chosen(v).has_value(), ref_b.chosen(v).has_value());
      if (ref_a.chosen(v).has_value()) {
        EXPECT_EQ(ref_a.chosen(v)->path, ref_b.chosen(v)->path)
            << to_string(model) << " AS " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EquivalenceTest,
    ::testing::Values(Params{12, 1}, Params{12, 2}, Params{25, 3},
                      Params{25, 4}, Params{40, 5}, Params{40, 6},
                      Params{60, 7}, Params{60, 8}, Params{90, 9},
                      Params{90, 10}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "n" + std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(EquivalenceInternet, EngineMatchesReferenceOnGeneratedTopology) {
  // Cross-check on the structured generator output as well.
  const auto topo = topology::generate_small_internet(150, 21);
  util::Rng rng(77);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  for (int trial = 0; trial < 2; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Deployment dep = random_deployment(n, 0.4, rng);
    for (const SecurityModel model : kAllSecurityModels) {
      const Query q{d, m, model};
      const auto eng = compute_routing(topo.graph, q, dep);
      ReferenceSimulator ref(topo.graph, dep);
      ASSERT_TRUE(ref.run(q, 5 + trial).converged);
      expect_equivalent(topo.graph, eng, ref, q, std::string(to_string(model)));
    }
  }
}

TEST_P(EquivalenceTest, BaselineEngineMatchesMainEngine) {
  // Three computations of the S = emptyset attacked state must agree on
  // every packed word (type, reach/secure flags, reserved bits, length):
  // compute_baseline with the standard ladder, the full insecure engine,
  // and the seeded delta from the {d, kNoAs, kInsecure} baseline. The
  // fused pipeline's partition contexts rely on this: they classify off
  // the seeded delta where the standalone analyses use compute_baseline.
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 1000);
  const AsGraph g = random_gr_graph(n, rng);
  EngineWorkspace ws(n);
  RoutingOutcome no_attack, seeded;
  for (int trial = 0; trial < 3; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const auto base = compute_baseline(g, d, m);
    const auto eng = compute_routing(g, {d, m, SecurityModel::kInsecure}, {});
    compute_routing_into(g, {d, kNoAs, SecurityModel::kInsecure}, {}, ws,
                         no_attack);
    compute_routing_seeded_into(g, {d, m, SecurityModel::kInsecure}, {}, ws,
                                no_attack, seeded);
    ASSERT_EQ(base.num_ases(), n);
    ASSERT_EQ(eng.num_ases(), n);
    ASSERT_EQ(seeded.num_ases(), n);
    for (AsId v = 0; v < n; ++v) {
      ASSERT_EQ(base.packed_word(v), eng.packed_word(v)) << v;
      ASSERT_EQ(seeded.packed_word(v), eng.packed_word(v)) << v;
    }
  }
}

TEST_P(EquivalenceTest, LpkBaselineMatchesReference) {
  // The LPk ladder implementation must agree with the reference simulator
  // configured with the same ladder.
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 5000);
  const AsGraph g = random_gr_graph(n, rng);
  for (const std::uint16_t k : {std::uint16_t{1}, std::uint16_t{2},
                                std::uint16_t{3}}) {
    const auto lp = LocalPrefPolicy::lp_k(k);
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Query q{d, m, SecurityModel::kInsecure};
    const auto base = compute_baseline(g, d, m, lp);
    ReferenceSimulator ref(g, Deployment(n), lp);
    ASSERT_TRUE(ref.run(q, seed).converged);
    for (AsId v = 0; v < n; ++v) {
      if (v == d || v == m) continue;
      const auto& chosen = ref.chosen(v);
      ASSERT_EQ(base.has_route(v), chosen.has_value()) << "k=" << k << " " << v;
      if (!chosen.has_value()) continue;
      EXPECT_EQ(base.type(v), ref.route_type(v)) << "k=" << k << " AS " << v;
      EXPECT_EQ(base.length(v), chosen->path.size()) << "k=" << k << " AS " << v;
      if (ref.routes_to_attacker(v)) {
        EXPECT_TRUE(base.reaches_attacker(v)) << "k=" << k << " AS " << v;
      } else {
        EXPECT_TRUE(base.reaches_destination(v)) << "k=" << k << " AS " << v;
      }
    }
  }
}

// --- Seeded (baseline-reusing) engine vs full recompute ---------------------

/// Byte-level comparison with per-AS diagnostics: operator== alone would
/// only say "differs somewhere".
void expect_outcome_identical(const RoutingOutcome& full,
                              const RoutingOutcome& seeded) {
  ASSERT_EQ(full.num_ases(), seeded.num_ases());
  for (AsId v = 0; v < full.num_ases(); ++v) {
    SCOPED_TRACE("AS " + std::to_string(v));
    ASSERT_EQ(full.type(v), seeded.type(v));
    ASSERT_EQ(full.length(v), seeded.length(v));
    ASSERT_EQ(full.reaches_destination(v), seeded.reaches_destination(v));
    ASSERT_EQ(full.reaches_attacker(v), seeded.reaches_attacker(v));
    ASSERT_EQ(full.secure_route(v), seeded.secure_route(v));
  }
  EXPECT_TRUE(full == seeded);
}

/// The changed list a seeded call leaves in ws.changed, given each lane's
/// (baseline, result): it names exactly the ASes whose packed word differs
/// from the baseline in some lane, none twice, the attacker always and the
/// destination never.
void expect_changed_list(
    const EngineWorkspace& ws, AsId d, AsId m,
    std::initializer_list<std::pair<const RoutingOutcome&,
                                    const RoutingOutcome&>> lanes) {
  const std::size_t n = lanes.begin()->first.num_ases();
  std::vector<int> listed(n, 0);
  for (const AsId v : ws.changed) {
    ASSERT_LT(v, n);
    ++listed[v];
  }
  EXPECT_EQ(listed[m], 1) << "attacker " << m;
  EXPECT_EQ(listed[d], 0) << "destination " << d;
  for (AsId v = 0; v < n; ++v) {
    bool differs = false;
    for (const auto& [baseline, result] : lanes) {
      differs |= baseline.packed_word(v) != result.packed_word(v);
    }
    EXPECT_LE(listed[v], 1) << "AS " << v << " listed twice";
    EXPECT_EQ(listed[v] != 0, differs)
        << "AS " << v << (differs ? " changed but is not listed"
                                  : " is listed but kept its word");
  }
}

/// Runs seeded-vs-full (and the changed list) over every admissible model
/// for one (g, dep, d, m) and checks that inadmissible queries are
/// rejected.
void check_seeded_pair(const AsGraph& g, const Deployment& dep, AsId d,
                       AsId m) {
  EngineWorkspace ws(g.num_ases());
  RoutingOutcome baseline, full, seeded;
  for (const SecurityModel model : kAllSecurityModels) {
    SCOPED_TRACE(std::string(to_string(model)) + " d=" + std::to_string(d) +
                 " m=" + std::to_string(m));
    const Query q{d, m, model};
    compute_routing_into(g, {d, kNoAs, model}, dep, ws, baseline);
    if (!routing_seed_applicable(q, dep)) {
      // Only security 1st/2nd with a signed origin is out of domain.
      EXPECT_TRUE(model == SecurityModel::kSecurityFirst ||
                  model == SecurityModel::kSecuritySecond);
      EXPECT_TRUE(dep.signs_origin(d));
      EXPECT_THROW(compute_routing_seeded_into(g, q, dep, ws, baseline, seeded),
                   std::invalid_argument);
      continue;
    }
    compute_routing_into(g, q, dep, ws, full);
    compute_routing_seeded_into(g, q, dep, ws, baseline, seeded);
    expect_changed_list(ws, d, m, {{baseline, seeded}});
    expect_outcome_identical(full, seeded);
  }
}

TEST_P(EquivalenceTest, SeededMatchesFullOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 9000);
  const AsGraph g = random_gr_graph(n, rng);
  for (int trial = 0; trial < 4; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Deployment dep = random_deployment(n, 0.45, rng);
    check_seeded_pair(g, dep, d, m);
  }
}

TEST(SeededEngine, MatchesFullOnEveryRegistryScenario) {
  // Every deployment shape the experiment registry can produce, in both
  // stub modes, must be reproduced bit-for-bit by the seeded path.
  const auto topo = topology::generate_small_internet(220, 12);
  const auto tiers = topo.classify();
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(2013);
  for (const auto& def : deployment::scenario_registry()) {
    for (const auto mode :
         {deployment::StubMode::kFullSbgp, deployment::StubMode::kSimplex}) {
      const auto steps =
          def.build(topo.graph, tiers, mode);
      ASSERT_FALSE(steps.empty()) << def.name;
      const Deployment& dep = steps.back().deployment;
      SCOPED_TRACE(std::string(def.name) + " mode=" +
                   std::to_string(static_cast<int>(mode)));
      for (int trial = 0; trial < 2; ++trial) {
        const auto d = static_cast<AsId>(rng.next_below(n));
        auto m = static_cast<AsId>(rng.next_below(n));
        if (m == d) m = (m + 1) % n;
        check_seeded_pair(topo.graph, dep, d, m);
      }
    }
  }
}

TEST(SeededEngine, RejectsMalformedQueries) {
  util::Rng rng(5);
  const AsGraph g = random_gr_graph(30, rng);
  const Deployment dep(30);
  EngineWorkspace ws(30);
  RoutingOutcome baseline, out;
  compute_routing_into(g, {3, kNoAs, SecurityModel::kInsecure}, dep, ws,
                       baseline);
  // No attacker: the seeded path is for attacked queries only.
  EXPECT_FALSE(routing_seed_applicable({3, kNoAs, SecurityModel::kInsecure},
                                       dep));
  EXPECT_THROW(compute_routing_seeded_into(
                   g, {3, kNoAs, SecurityModel::kInsecure}, dep, ws, baseline,
                   out),
               std::invalid_argument);
  // Attacker == destination.
  EXPECT_THROW(compute_routing_seeded_into(
                   g, {3, 3, SecurityModel::kInsecure}, dep, ws, baseline, out),
               std::invalid_argument);
  // Baseline sized for a different graph.
  RoutingOutcome small;
  small.reset(7);
  EXPECT_THROW(compute_routing_seeded_into(
                   g, {3, 4, SecurityModel::kInsecure}, dep, ws, small, out),
               std::invalid_argument);
}

// --- Twin-lane seeded delta (security 3rd + its S = emptyset twin) ---------

/// The twin-lane delta must reproduce, lane for lane, both two single-lane
/// seeded calls and two full engine runs, word for word; every seeded call
/// must leave its changed list.
void check_twin_pair(const AsGraph& g, const Deployment& dep, AsId d, AsId m) {
  SCOPED_TRACE("twin d=" + std::to_string(d) + " m=" + std::to_string(m));
  EngineWorkspace ws(g.num_ases());
  RoutingOutcome normal, insecure_normal, full, full_empty, seeded,
      seeded_empty, twin, twin_empty;
  const Query q{d, m, SecurityModel::kSecurityThird};
  const Query eq{d, m, SecurityModel::kInsecure};
  compute_routing_into(g, {d, kNoAs, q.model}, dep, ws, normal);
  compute_routing_into(g, {d, kNoAs, eq.model}, {}, ws, insecure_normal);
  compute_routing_into(g, q, dep, ws, full);
  compute_routing_into(g, eq, {}, ws, full_empty);
  compute_routing_seeded_into(g, q, dep, ws, normal, seeded);
  expect_changed_list(ws, d, m, {{normal, seeded}});
  compute_routing_seeded_into(g, eq, {}, ws, insecure_normal, seeded_empty);
  expect_changed_list(ws, d, m, {{insecure_normal, seeded_empty}});
  compute_routing_seeded_twin_into(g, q, dep, ws, normal, insecure_normal, twin,
                                   twin_empty);
  expect_changed_list(ws, d, m,
                      {{normal, twin}, {insecure_normal, twin_empty}});
  expect_outcome_identical(full, twin);
  expect_outcome_identical(full_empty, twin_empty);
  expect_outcome_identical(seeded, twin);
  expect_outcome_identical(seeded_empty, twin_empty);
}

TEST_P(EquivalenceTest, TwinMatchesSeparateAndFullOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 13000);
  const AsGraph g = random_gr_graph(n, rng);
  for (int trial = 0; trial < 4; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    check_twin_pair(g, random_deployment(n, 0.45, rng), d, m);
  }
}

TEST(SeededEngine, TwinMatchesOnEveryRegistryScenario) {
  const auto topo = topology::generate_small_internet(220, 12);
  const auto tiers = topo.classify();
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(2014);
  for (const auto& def : deployment::scenario_registry()) {
    for (const auto mode :
         {deployment::StubMode::kFullSbgp, deployment::StubMode::kSimplex}) {
      const auto steps = def.build(topo.graph, tiers, mode);
      ASSERT_FALSE(steps.empty()) << def.name;
      SCOPED_TRACE(std::string(def.name) + " mode=" +
                   std::to_string(static_cast<int>(mode)));
      for (int trial = 0; trial < 2; ++trial) {
        const auto d = static_cast<AsId>(rng.next_below(n));
        auto m = static_cast<AsId>(rng.next_below(n));
        if (m == d) m = (m + 1) % n;
        check_twin_pair(topo.graph, steps.back().deployment, d, m);
      }
    }
  }
}

TEST(SeededEngine, TwinMatchesOnTiny500) {
  const auto topo = topology::generate_trial("tiny-500", 20130812, 0);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(1500);
  for (int pair = 0; pair < 16; ++pair) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    check_twin_pair(topo.graph, random_deployment(n, 0.5, rng), d, m);
  }
}

TEST(SeededEngine, TwinRejectsInvalidInput) {
  util::Rng rng(6);
  const AsGraph g = random_gr_graph(30, rng);
  const Deployment dep = random_deployment(30, 0.5, rng);
  EngineWorkspace ws(30);
  RoutingOutcome normal, insecure_normal, out, out_empty;
  compute_routing_into(g, {3, kNoAs, SecurityModel::kSecurityThird}, dep, ws,
                       normal);
  compute_routing_into(g, {3, kNoAs, SecurityModel::kInsecure}, {}, ws,
                       insecure_normal);
  const auto twin = [&](const Query& q, const RoutingOutcome& insecure) {
    compute_routing_seeded_twin_into(g, q, dep, ws, normal, insecure, out,
                                     out_empty);
  };
  // Only security 3rd keeps types and lengths deployment-invariant.
  for (const SecurityModel model :
       {SecurityModel::kSecurityFirst, SecurityModel::kSecuritySecond,
        SecurityModel::kInsecure}) {
    EXPECT_THROW(twin({3, 4, model}, insecure_normal), std::invalid_argument)
        << to_string(model);
  }
  // Attacker == destination.
  EXPECT_THROW(twin({3, 3, SecurityModel::kSecurityThird}, insecure_normal),
               std::invalid_argument);
  // Insecure baseline sized for a different graph.
  RoutingOutcome small;
  small.reset(7);
  EXPECT_THROW(twin({3, 4, SecurityModel::kSecurityThird}, small),
               std::invalid_argument);
  // Baselines that disagree on one AS's length: the message names the AS.
  AsId victim = kNoAs;
  for (AsId v = 0; v < 30 && victim == kNoAs; ++v) {
    if (v != 3 && insecure_normal.has_route(v)) victim = v;
  }
  ASSERT_NE(victim, kNoAs);
  RoutingOutcome skewed = insecure_normal;
  skewed.fix(victim, skewed.type(victim),
             static_cast<std::uint16_t>(skewed.length(victim) + 1),
             skewed.reaches_destination(victim),
             skewed.reaches_attacker(victim), skewed.secure_route(victim));
  try {
    twin({3, 4, SecurityModel::kSecurityThird}, skewed);
    ADD_FAILURE() << "mismatched baselines accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    const std::string names = " AS " + std::to_string(victim);
    ASSERT_GE(msg.size(), names.size()) << msg;
    EXPECT_EQ(msg.substr(msg.size() - names.size()), names) << msg;
  }
  // The untouched baselines are accepted.
  EXPECT_NO_THROW(twin({3, 4, SecurityModel::kSecurityThird}, insecure_normal));
}

TEST(SeededEngine, HysteresisWithPrecomputedNormalMatchesAllocating) {
  // The sweep pipeline feeds compute_routing_with_hysteresis_into a cached
  // normal outcome and one long-lived workspace; that must agree with the
  // allocating call, which computes its own normal in a fresh workspace.
  const auto topo = topology::generate_small_internet(180, 33);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(8);
  const Deployment dep = random_deployment(n, 0.5, rng);
  EngineWorkspace ws(n);
  RoutingOutcome normal, precomputed;
  for (const SecurityModel model : kAllSecurityModels) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto d = static_cast<AsId>(rng.next_below(n));
      auto m = static_cast<AsId>(rng.next_below(n));
      if (m == d) m = (m + 1) % n;
      const Query q{d, m, model};
      compute_routing_into(topo.graph, {d, kNoAs, model}, dep, ws, normal);
      compute_routing_with_hysteresis_into(topo.graph, q, dep, ws, normal,
                                           precomputed);
      SCOPED_TRACE(std::string(to_string(model)) + " d=" + std::to_string(d) +
                   " m=" + std::to_string(m));
      expect_outcome_identical(
          compute_routing_with_hysteresis(topo.graph, q, dep), precomputed);
    }
  }
}

TEST(SeededEngine, HysteresisRejectsWronglySizedNormal) {
  util::Rng rng(12);
  const AsGraph g = random_gr_graph(40, rng);
  const Deployment dep = random_deployment(40, 0.5, rng);
  EngineWorkspace ws;
  RoutingOutcome result;
  for (const std::size_t size : {std::size_t{7}, std::size_t{41}}) {
    const RoutingOutcome normal(size);
    try {
      compute_routing_with_hysteresis_into(
          g, {3, 4, SecurityModel::kSecuritySecond}, dep, ws, normal, result);
      ADD_FAILURE() << "normal outcome of " << size << " ASes accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::to_string(size)), std::string::npos) << msg;
      EXPECT_NE(msg.find("40"), std::string::npos) << msg;
    }
  }
}

TEST(EquivalenceSimplex, SimplexDeploymentMatches) {
  util::Rng rng(404);
  const AsGraph g = random_gr_graph(50, rng);
  const auto d = static_cast<AsId>(rng.next_below(50));
  auto m = static_cast<AsId>(rng.next_below(50));
  if (m == d) m = (m + 1) % 50;
  Deployment dep(50);
  for (AsId v = 0; v < 50; ++v) {
    if (!rng.chance(0.5)) continue;
    if (g.is_stub(v) && rng.chance(0.5)) {
      dep.simplex.insert(v);
    } else {
      dep.secure.insert(v);
    }
  }
  for (const SecurityModel model : kAllSecurityModels) {
    const Query q{d, m, model};
    const auto eng = compute_routing(g, q, dep);
    ReferenceSimulator ref(g, dep);
    ASSERT_TRUE(ref.run(q, 9).converged);
    expect_equivalent(g, eng, ref, q, std::string(to_string(model)));
  }
}

}  // namespace
}  // namespace sbgp::routing
