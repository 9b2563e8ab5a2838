// TrafficModel unit tests plus the weighted/unweighted equivalence
// property the whole weighted-metrics feature rests on: a uniform model
// of any scale yields weighted counters that are exact integer multiples
// of the unweighted ones, identical unweighted counters, and aggregated
// rows that serialize to the very same bytes (the scale cancels exactly
// in every metric ratio). The legacy per-trial header is pinned as a
// literal string so a schema drift in the uniform-weight layout — the one
// committed baselines and old cache entries depend on — cannot slip
// through silently. The TrafficOverflow suite pins the exact-or-reject
// contract: a weight or weighted counter past 2^64 - 1 throws, and a
// campaign reports the cell as failed instead of emitting a wrapped row.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "deployment/scenario.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "sim/campaign.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/registry.h"

namespace sbgp::sim {
namespace {

using deployment::StubMode;
using routing::SecurityModel;

TEST(TrafficModel, UniformMassesAndWeights) {
  TrafficModel m;  // defaults: uniform, scale 1
  EXPECT_TRUE(m.is_trivial());
  EXPECT_EQ(as_mass(m, 0), 1u);
  EXPECT_EQ(as_mass(m, 12345), 1u);
  EXPECT_EQ(pair_weight(m, 3, 7), 1u);
  m.scale = 9;
  EXPECT_FALSE(m.is_trivial());
  EXPECT_EQ(pair_weight(m, 3, 7), 9u);
}

TEST(TrafficModel, GravityMassesAreDeterministicBoundedAndSpread) {
  TrafficModel m;
  m.kind = TrafficModel::Kind::kGravity;
  m.seed = 42;
  m.max_mass = 256;
  EXPECT_FALSE(m.is_trivial());
  std::set<std::uint64_t> seen;
  for (routing::AsId v = 0; v < 200; ++v) {
    const std::uint64_t mass = as_mass(m, v);
    EXPECT_GE(mass, 1u);
    EXPECT_LE(mass, m.max_mass);
    EXPECT_EQ(mass, as_mass(m, v));  // pure function of (model, id)
    seen.insert(mass);
  }
  // Heavy-tailed, not constant: many distinct masses over 200 ASes.
  EXPECT_GT(seen.size(), 10u);
  EXPECT_EQ(pair_weight(m, 3, 7), as_mass(m, 3) * as_mass(m, 7));
  m.scale = 4;
  EXPECT_EQ(pair_weight(m, 3, 7), 4 * as_mass(m, 3) * as_mass(m, 7));

  // The seed picks the mass stream.
  TrafficModel other = m;
  other.seed = 43;
  bool any_differ = false;
  for (routing::AsId v = 0; v < 32 && !any_differ; ++v) {
    any_differ = as_mass(m, v) != as_mass(other, v);
  }
  EXPECT_TRUE(any_differ);
}

TEST(TrafficModel, ToStringParseRoundTrip) {
  const auto round_trips = [](const TrafficModel& m) {
    EXPECT_EQ(parse_traffic_model(to_string(m)), m) << to_string(m);
  };
  round_trips({});
  TrafficModel scaled;
  scaled.scale = 12;
  round_trips(scaled);
  TrafficModel gravity;
  gravity.kind = TrafficModel::Kind::kGravity;
  gravity.seed = 7;
  gravity.max_mass = 1024;
  gravity.scale = 3;
  round_trips(gravity);

  EXPECT_EQ(parse_traffic_model("uniform"), TrafficModel{});
  const TrafficModel g = parse_traffic_model("gravity,seed=7");
  EXPECT_EQ(g.kind, TrafficModel::Kind::kGravity);
  EXPECT_EQ(g.seed, 7u);

  EXPECT_THROW((void)parse_traffic_model(""), std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_model("lognormal"), std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_model("uniform,weight=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_model("gravity,seed=x"),
               std::invalid_argument);
}

TEST(TrafficModel, ValidateRejectsZeroScaleAndMass) {
  TrafficModel m;
  m.scale = 0;
  EXPECT_THROW(validate_traffic_model(m), std::invalid_argument);
  m.scale = 1;
  m.max_mass = 0;
  EXPECT_THROW(validate_traffic_model(m), std::invalid_argument);
  m.max_mass = 1;
  EXPECT_NO_THROW(validate_traffic_model(m));
}

TEST(TrafficModel, LegacyTrialHeaderIsPinned) {
  // The exact uniform-weight (legacy) per-trial CSV header. Committed
  // baselines and pre-weighting cache entries carry this line; changing
  // it invalidates them all, so it is pinned as a literal.
  const std::string kLegacyHeader =
      "topology,trial,topology_seed,spec,label,step_label,model,hysteresis,"
      "num_non_stub_secure,total_secure,num_attackers,num_destinations,"
      "pairs,happy_lower,happy_upper,happy_sources,doomed,protectable,"
      "immune,partition_sources,dg_sources,dg_secure_normal,dg_downgraded,"
      "dg_secure_kept,dg_kept_and_immune,col_insecure_sources,col_benefits,"
      "col_damages,col_benefits_upper,col_damages_upper,rc_sources,"
      "rc_secure_normal,rc_downgraded,rc_secure_wasted,rc_secure_protecting,"
      "rc_collateral_benefits,rc_collateral_damages,rc_happy_baseline,"
      "rc_happy_deployed";
  const CampaignTrialRow blank;  // zero counters: uniform-weight by def.
  ASSERT_TRUE(is_uniform_weight(blank));
  std::ostringstream csv;
  write_trial_rows_csv(csv, {blank});
  std::istringstream lines(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, kLegacyHeader);

  // The full weighted schema keeps the legacy columns as a strict prefix
  // and appends weight + one w_ mirror per analysis counter.
  const auto& full = trial_row_columns();
  ASSERT_EQ(full.size(), 39u + 27u);
  std::string prefix = full[0];
  for (std::size_t i = 1; i < 39; ++i) prefix += ',' + full[i];
  EXPECT_EQ(prefix, kLegacyHeader);
  EXPECT_EQ(full[39], "weight");
  EXPECT_EQ(full[40], "w_happy_lower");
  EXPECT_EQ(full.back(), "w_rc_happy_deployed");
}

/// Scenarios x stub modes on the tiniest topology, all analyses: the
/// workload for the scale-equivalence property below.
CampaignSpec equivalence_campaign(const TrafficModel& traffic) {
  CampaignSpec campaign;
  campaign.label = "traffic-equivalence";
  campaign.topology = "tiny-500";
  campaign.trials = 2;
  campaign.seed = 20130812;
  for (const char* scenario : {"t1-t2", "top13-t2-stubs", "empty"}) {
    for (const StubMode mode : {StubMode::kFullSbgp, StubMode::kSimplex}) {
      ExperimentSpec spec;
      spec.scenario = scenario;
      spec.stub_mode = mode;
      spec.model = SecurityModel::kSecuritySecond;
      spec.analyses = AnalysisSet::all();
      spec.num_attackers = 3;
      spec.num_destinations = 3;
      spec.traffic = traffic;
      campaign.experiments.push_back(spec);
    }
  }
  return campaign;
}

TEST(TrafficEquivalence, UniformScaleIsExactlyEquivalent) {
  constexpr std::uint64_t kScale = 5;
  TrafficModel scaled;
  scaled.scale = kScale;
  const CampaignResult base = run_campaign(equivalence_campaign({}));
  const CampaignResult weighted = run_campaign(equivalence_campaign(scaled));

  ASSERT_EQ(base.trial_rows.size(), weighted.trial_rows.size());
  for (std::size_t i = 0; i < base.trial_rows.size(); ++i) {
    const CampaignTrialRow& b = base.trial_rows[i];
    const CampaignTrialRow& w = weighted.trial_rows[i];
    // The unweighted half of the row is bit-for-bit unaffected: identical
    // pair samples, identical counters — the first 39 serialized fields.
    const auto bv = trial_row_values(b);
    const auto wv = trial_row_values(w);
    for (std::size_t c = 0; c < 39; ++c) {
      EXPECT_EQ(bv[c], wv[c]) << "row " << i << " col " << c;
    }
    // Every weighted counter is exactly scale x its unweighted twin.
    const PairStats& s = w.row.stats;
    EXPECT_EQ(s.weight, kScale * s.pairs);
    EXPECT_EQ(s.w_happiness.happy_lower, kScale * s.happiness.happy_lower);
    EXPECT_EQ(s.w_happiness.happy_upper, kScale * s.happiness.happy_upper);
    EXPECT_EQ(s.w_happiness.sources, kScale * s.happiness.sources);
    EXPECT_EQ(s.w_partitions.doomed, kScale * s.partitions.doomed);
    EXPECT_EQ(s.w_partitions.protectable, kScale * s.partitions.protectable);
    EXPECT_EQ(s.w_partitions.immune, kScale * s.partitions.immune);
    EXPECT_EQ(s.w_partitions.sources, kScale * s.partitions.sources);
    EXPECT_EQ(s.w_downgrades.sources, kScale * s.downgrades.sources);
    EXPECT_EQ(s.w_downgrades.downgraded, kScale * s.downgrades.downgraded);
    EXPECT_EQ(s.w_collateral.insecure_sources,
              kScale * s.collateral.insecure_sources);
    EXPECT_EQ(s.w_collateral.benefits, kScale * s.collateral.benefits);
    EXPECT_EQ(s.w_collateral.damages, kScale * s.collateral.damages);
    EXPECT_EQ(s.w_root_causes.sources, kScale * s.root_causes.sources);
    EXPECT_EQ(s.w_root_causes.happy_baseline,
              kScale * s.root_causes.happy_baseline);
    EXPECT_EQ(s.w_root_causes.happy_deployed,
              kScale * s.root_causes.happy_deployed);
    // The scale cancels exactly in every metric ratio (both operands of
    // each division are exact integers below 2^53).
    EXPECT_EQ(campaign_weighted_metrics(s), campaign_metrics(s));
    // Scale > 1 is non-uniform, so these rows serialize in the weighted
    // layout; the base run stays legacy.
    EXPECT_FALSE(is_uniform_weight(w));
    EXPECT_TRUE(is_uniform_weight(b));
  }

  // Aggregated rows serialize to the very same bytes: means, stderrs and
  // the weighted metric columns all coincide double-for-double.
  std::ostringstream base_csv, weighted_csv;
  write_campaign_rows_csv(base_csv, base.rows);
  write_campaign_rows_csv(weighted_csv, weighted.rows);
  EXPECT_EQ(base_csv.str(), weighted_csv.str());
}

TEST(TrafficEquivalence, GravityWeightsActuallyDiffer) {
  // Sanity check that the property above is not vacuous: a non-uniform
  // model produces weighted counters that differ from scaled copies.
  TrafficModel gravity;
  gravity.kind = TrafficModel::Kind::kGravity;
  gravity.seed = 7;
  CampaignSpec campaign = equivalence_campaign(gravity);
  campaign.experiments.resize(1);
  const CampaignResult result = run_campaign(campaign);
  bool any_nonuniform = false;
  for (const auto& tr : result.trial_rows) {
    any_nonuniform = any_nonuniform || !is_uniform_weight(tr);
  }
  EXPECT_TRUE(any_nonuniform);
}

/// The overflow probe: heavy-tailed masses up to 2^32 with a 2^62 scale.
TrafficModel overflow_probe_model() {
  TrafficModel m;
  m.kind = TrafficModel::Kind::kGravity;
  m.max_mass = std::uint64_t{1} << 32;
  m.scale = std::uint64_t{1} << 62;
  return m;
}

TEST(TrafficOverflow, AddScaledThrowsInsteadOfWrapping) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  security::PartitionCounts two;
  two.doomed = 2;
  two.sources = 2;
  security::PartitionCounts acc;
  try {
    acc.add_scaled(two, kHalf);
    FAIL() << "2 * 2^63 must not wrap";
  } catch (const std::overflow_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PartitionCounts::doomed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2^64"), std::string::npos) << msg;
  }
  // One copy of 2^63 fits; a second one overflows the sum, not the product.
  security::HappyTotals one;
  one.sources = 1;
  security::HappyTotals sum;
  sum.add_scaled(one, kHalf);
  EXPECT_EQ(sum.sources, kHalf);
  EXPECT_THROW(sum.add_scaled(one, kHalf), std::overflow_error);
  EXPECT_EQ(sum.sources, kHalf);  // unchanged by the rejected add
  EXPECT_THROW(security::DowngradeStats{}.add_scaled({.sources = 2}, kHalf),
               std::overflow_error);
  EXPECT_THROW(
      security::CollateralStats{}.add_scaled({.insecure_sources = 2}, kHalf),
      std::overflow_error);
  EXPECT_THROW(security::RootCauseStats{}.add_scaled({.sources = 2}, kHalf),
               std::overflow_error);
}

TEST(TrafficOverflow, PairWeightRejectsTheProbeModel) {
  const TrafficModel m = overflow_probe_model();
  EXPECT_NO_THROW(validate_traffic_model(m));
  std::size_t rejected = 0;
  for (routing::AsId a = 0; a < 40; ++a) {
    for (routing::AsId d = 0; d < 40; ++d) {
      const unsigned __int128 exact =
          static_cast<unsigned __int128>(as_mass(m, a)) * as_mass(m, d) *
          m.scale;
      if (exact >> 64 == 0) {
        EXPECT_EQ(pair_weight(m, a, d), static_cast<std::uint64_t>(exact));
        continue;
      }
      ++rejected;
      try {
        (void)pair_weight(m, a, d);
        ADD_FAILURE() << "pair (" << a << ", " << d << ") wrapped";
      } catch (const std::overflow_error& e) {
        EXPECT_NE(std::string(e.what()).find("2^64"), std::string::npos);
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(TrafficOverflow, CampaignReportsFailedCellsNotRows) {
  // Under the default failure isolation an overflowing weighted counter
  // fails its own (trial, spec) cell; no wrapped row is ever emitted.
  CampaignSpec campaign = equivalence_campaign(overflow_probe_model());
  campaign.experiments.resize(1);
  const CampaignResult result = run_campaign(campaign);
  EXPECT_TRUE(result.trial_rows.empty());
  ASSERT_EQ(result.failed_cells.size(), campaign.trials);
  for (const FailedCell& cell : result.failed_cells) {
    EXPECT_NE(cell.error.find("2^64"), std::string::npos) << cell.error;
  }
}

TEST(TrafficOverflow, UniformScaleRejectedFrom2To53) {
  // A uniform model promises weighted ratios identical to the unweighted
  // ones, which needs every weighted counter below 2^53: the resolver
  // accepts the largest scale with scale x (n - 1) x pairs < 2^53 and
  // rejects the next one.
  const auto topo = topology::generate_trial("tiny-500", 20130812, 0);
  const auto tiers = topo.classify();
  ExperimentSpec spec;
  spec.scenario = "t1-t2";
  spec.analyses = Analysis::kHappiness;
  spec.attackers = {3, 4};
  spec.destinations = {4, 5, 6};  // 6 raw pairs, 5 valid
  const std::uint64_t per_unit = (topo.graph.num_ases() - 1) * 5;
  const std::uint64_t largest = ((std::uint64_t{1} << 53) - 1) / per_unit;
  ExperimentResolver resolver(topo.graph, tiers);
  spec.traffic.scale = largest;
  EXPECT_NO_THROW((void)resolver.resolve(spec));
  spec.traffic.scale = largest + 1;
  try {
    (void)resolver.resolve(spec);
    ADD_FAILURE() << "uniform scale " << spec.traffic.scale << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2^53"), std::string::npos)
        << e.what();
  }
  // Scales whose product with the pair count overflows 64 bits, too.
  spec.traffic.scale = std::uint64_t{1} << 62;
  EXPECT_THROW((void)resolver.resolve(spec), std::invalid_argument);
  // Gravity weights are non-uniform and keep their 2^64 failed-cell
  // contract (CampaignReportsFailedCellsNotRows).
  spec.traffic = overflow_probe_model();
  EXPECT_NO_THROW((void)resolver.resolve(spec));
}

}  // namespace
}  // namespace sbgp::sim
