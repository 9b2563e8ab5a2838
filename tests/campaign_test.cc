// Campaign-layer tests: equivalence with independent suite runs on the
// same generated topologies, thread-count determinism down to serialized
// bytes, CSV round trips, aggregation math, and registry-naming
// error messages.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/batch_executor.h"
#include "sim/campaign.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "topology/registry.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;

/// A small mixed campaign on the tiniest registered topology: one heavy
/// all-analyses spec next to light single-analysis specs, two scenarios.
CampaignSpec small_campaign(std::size_t trials = 2) {
  CampaignSpec campaign;
  campaign.label = "test-campaign";
  campaign.topology = "tiny-500";
  campaign.trials = trials;
  campaign.seed = 99;

  ExperimentSpec heavy;
  heavy.scenario = "t1-t2";
  heavy.model = SecurityModel::kSecurityThird;
  heavy.analyses = AnalysisSet::all();
  heavy.num_attackers = 4;
  heavy.num_destinations = 4;
  campaign.experiments.push_back(heavy);

  ExperimentSpec light;
  light.scenario = "t1-stubs";
  light.model = SecurityModel::kSecuritySecond;
  light.analyses = Analysis::kHappiness;
  light.num_attackers = 2;
  light.num_destinations = 3;
  light.sample_seed = 7;
  campaign.experiments.push_back(light);

  ExperimentSpec baseline;
  baseline.scenario = "empty";
  baseline.model = SecurityModel::kInsecure;
  baseline.analyses = Analysis::kHappiness;
  baseline.num_attackers = 3;
  baseline.num_destinations = 2;
  campaign.experiments.push_back(baseline);
  return campaign;
}

TEST(Campaign, TrialRowsMatchIndependentSuiteRuns) {
  const CampaignSpec campaign = small_campaign(2);
  const CampaignResult result = run_campaign(campaign);
  ASSERT_EQ(result.trial_rows.size(),
            campaign.trials * campaign.experiments.size());
  ASSERT_EQ(result.rows.size(), campaign.experiments.size());

  for (std::size_t t = 0; t < campaign.trials; ++t) {
    const auto topo =
        topology::generate_trial(campaign.topology, campaign.seed, t);
    const auto tiers = topo.classify();
    const auto suite_rows =
        run_experiment_suite(topo.graph, tiers, campaign.experiments);
    ASSERT_EQ(suite_rows.size(), campaign.experiments.size());
    for (std::size_t s = 0; s < suite_rows.size(); ++s) {
      const auto& tr =
          result.trial_rows[t * campaign.experiments.size() + s];
      EXPECT_EQ(tr.trial, t);
      EXPECT_EQ(tr.spec_index, s);
      EXPECT_EQ(tr.topology, campaign.topology);
      EXPECT_EQ(tr.topology_seed,
                topology::trial_seed(campaign.seed, campaign.topology, t));
      EXPECT_EQ(tr.row, suite_rows[s]) << "trial " << t << " spec " << s;
    }
  }
}

TEST(Campaign, ThreadCountIndependentDownToSerializedBytes) {
  const CampaignSpec campaign = small_campaign(2);
  BatchExecutor executor(6);

  RunnerOptions one;
  one.threads = 1;
  one.executor = &executor;
  RunnerOptions many;
  many.threads = 6;
  many.executor = &executor;

  const CampaignResult a = run_campaign(campaign, one);
  const CampaignResult b = run_campaign(campaign, many);
  ASSERT_EQ(a.trial_rows.size(), b.trial_rows.size());
  for (std::size_t i = 0; i < a.trial_rows.size(); ++i) {
    EXPECT_EQ(a.trial_rows[i], b.trial_rows[i]) << "row " << i;
  }
  EXPECT_EQ(a.rows, b.rows);

  const auto serialize = [](const CampaignResult& r) {
    std::ostringstream csv;
    write_trial_rows_csv(csv, r.trial_rows);
    std::ostringstream agg_csv;
    write_campaign_rows_csv(agg_csv, r.rows);
    return csv.str() + agg_csv.str();
  };
  EXPECT_EQ(serialize(a), serialize(b));
}

TEST(Campaign, TrialRowsRoundTripThroughCsv) {
  const CampaignResult result = run_campaign(small_campaign(2));
  ASSERT_FALSE(result.trial_rows.empty());

  std::ostringstream csv;
  write_trial_rows_csv(csv, result.trial_rows);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(read_trial_rows_csv(csv_in), result.trial_rows);
}

TEST(Campaign, AggregatedRowsRoundTripThroughCsv) {
  const CampaignResult result = run_campaign(small_campaign(3));
  ASSERT_FALSE(result.rows.empty());
  EXPECT_EQ(result.rows.front().trials, 3u);

  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(read_campaign_rows_csv(csv_in), result.rows);
}

TEST(Campaign, ReadersRejectMalformedInput) {
  std::istringstream bad_header("not,the,header\n");
  EXPECT_THROW((void)read_trial_rows_csv(bad_header), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW((void)read_campaign_rows_csv(empty), std::invalid_argument);
}

TEST(Campaign, AggregationComputesMeanStderrMinMax) {
  // Three synthetic trials of one spec with happy_lower fractions
  // 0.2, 0.4, 0.6: mean 0.4, sample stddev 0.2, stderr 0.2/sqrt(3).
  std::vector<CampaignTrialRow> rows;
  for (std::size_t t = 0; t < 3; ++t) {
    CampaignTrialRow r;
    r.topology = "tiny-500";
    r.trial = t;
    r.spec_index = 0;
    r.row.label = "synthetic";
    r.row.stats.happiness.happy_lower = 2 * (t + 1);
    r.row.stats.happiness.happy_upper = 2 * (t + 1);
    r.row.stats.happiness.sources = 10;
    rows.push_back(std::move(r));
  }
  const auto agg = aggregate_trial_rows(rows);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].label, "synthetic");
  EXPECT_EQ(agg[0].trials, 3u);
  const auto& happy = agg[0].metrics[0];  // happy_lower
  EXPECT_NEAR(happy.mean, 0.4, 1e-12);
  EXPECT_NEAR(happy.std_error, 0.2 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(happy.min, 0.2);
  EXPECT_DOUBLE_EQ(happy.max, 0.6);
  // Unselected analyses aggregate to all-zero summaries.
  EXPECT_EQ(agg[0].metrics[5], MetricSummary{});  // downgraded
}

TEST(Campaign, MetricNamesAndValuesAgree) {
  ASSERT_EQ(campaign_metric_names().size(), kNumCampaignMetrics);
  PairStats stats;
  stats.partitions.doomed = 1;
  stats.partitions.protectable = 2;
  stats.partitions.immune = 1;
  stats.partitions.sources = 4;
  const auto values = campaign_metrics(stats);
  EXPECT_DOUBLE_EQ(values[2], 0.25);  // doomed
  EXPECT_DOUBLE_EQ(values[3], 0.50);  // protectable
  EXPECT_DOUBLE_EQ(values[4], 0.25);  // immune
}

TEST(Campaign, RejectsBadCampaignsWithRegistryNamesInMessage) {
  CampaignSpec unknown_topology = small_campaign(1);
  unknown_topology.topology = "no-such-topology";
  try {
    (void)run_campaign(unknown_topology);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-topology"), std::string::npos) << msg;
    EXPECT_NE(msg.find("default-10k"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tiny-500"), std::string::npos) << msg;
  }

  CampaignSpec unknown_scenario = small_campaign(1);
  unknown_scenario.experiments[1].scenario = "no-such-scenario";
  try {
    (void)run_campaign(unknown_scenario);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-scenario"), std::string::npos) << msg;
    EXPECT_NE(msg.find("t1-t2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("top13-t2-stubs"), std::string::npos) << msg;
  }

  CampaignSpec pinned = small_campaign(1);
  pinned.experiments[0].attackers = {1, 2};
  EXPECT_THROW((void)run_campaign(pinned), std::invalid_argument);

  CampaignSpec no_trials = small_campaign(1);
  no_trials.trials = 0;
  EXPECT_THROW((void)run_campaign(no_trials), std::invalid_argument);

  CampaignSpec no_specs = small_campaign(1);
  no_specs.experiments.clear();
  EXPECT_THROW((void)run_campaign(no_specs), std::invalid_argument);

  CampaignSpec no_analyses = small_campaign(1);
  no_analyses.experiments[0].analyses = {};
  EXPECT_THROW((void)run_campaign(no_analyses), std::invalid_argument);
}

TEST(Campaign, BadRolloutStepSurfacesFromTrialPrepInStrictMode) {
  // Out-of-range steps are only detectable once the trial's rollout is
  // built, i.e. inside the batch — in strict mode the error must still
  // propagate out of run_campaign.
  CampaignSpec campaign = small_campaign(1);
  campaign.experiments[0].rollout_step = 99;
  campaign.strict = true;
  BatchExecutor executor(4);
  RunnerOptions opts;
  opts.executor = &executor;
  EXPECT_THROW((void)run_campaign(campaign, opts), std::invalid_argument);
  // The executor must stay usable after the aborted batch.
  const CampaignResult ok = run_campaign(small_campaign(1), opts);
  EXPECT_EQ(ok.trial_rows.size(), small_campaign(1).experiments.size());
}

TEST(Campaign, BadRolloutStepFailsEveryCellOfItsTrialWhenIsolated) {
  // Default (isolation) mode: the prep failure of the only trial takes
  // down all of its cells — pair units must not hang on the readiness
  // latch — and comes back structured instead of thrown.
  CampaignSpec campaign = small_campaign(1);
  campaign.experiments[0].rollout_step = 99;
  BatchExecutor executor(4);
  RunnerOptions opts;
  opts.executor = &executor;
  const CampaignResult partial = run_campaign(campaign, opts);
  EXPECT_TRUE(partial.trial_rows.empty());
  // Every trial failed, so no spec aggregates into a row at all.
  EXPECT_TRUE(partial.rows.empty());
  ASSERT_EQ(partial.failed_cells.size(), campaign.experiments.size());
  for (std::size_t s = 0; s < partial.failed_cells.size(); ++s) {
    EXPECT_EQ(partial.failed_cells[s].trial, 0u);
    EXPECT_EQ(partial.failed_cells[s].spec_index, s);
    EXPECT_NE(partial.failed_cells[s].error.find("trial preparation failed"),
              std::string::npos)
        << partial.failed_cells[s].error;
    EXPECT_NE(partial.failed_cells[s].error.find("rollout step"),
              std::string::npos)
        << partial.failed_cells[s].error;
  }
  // The executor must stay usable after the isolated batch.
  const CampaignResult ok = run_campaign(small_campaign(1), opts);
  EXPECT_EQ(ok.trial_rows.size(), small_campaign(1).experiments.size());
  EXPECT_TRUE(ok.failed_cells.empty());
}

TEST(Campaign, StoppingReasonStringsRoundTrip) {
  for (const StoppingReason reason :
       {StoppingReason::kFixed, StoppingReason::kConverged,
        StoppingReason::kBudget}) {
    EXPECT_EQ(parse_stopping_reason(to_string(reason)), reason);
  }
  EXPECT_THROW((void)parse_stopping_reason("nope"), std::invalid_argument);
  EXPECT_THROW((void)parse_stopping_reason(""), std::invalid_argument);
}

TEST(Campaign, AdaptiveStopsEarlyAndRowsMatchFixedRun) {
  // A loose target on the 8-trial budget: every spec converges before the
  // budget runs out, and every row the adaptive run did compute is
  // byte-identical to the fixed run's row for the same (trial, spec) —
  // adaptivity decides which cells run, never what they contain.
  CampaignSpec fixed = small_campaign(8);
  CampaignSpec adaptive = fixed;
  adaptive.target_stderr = 0.5;
  adaptive.wave_size = 2;

  const CampaignResult full = run_campaign(fixed);
  const CampaignResult adapt = run_campaign(adaptive);
  ASSERT_EQ(adapt.rows.size(), fixed.experiments.size());
  for (const auto& row : adapt.rows) {
    EXPECT_EQ(row.stopping, StoppingReason::kConverged) << row.label;
    EXPECT_LT(row.trials, fixed.trials) << row.label;
    EXPECT_GE(row.trials, 2u) << row.label;  // stderr needs n >= 2
  }
  for (const auto& row : full.rows) {
    EXPECT_EQ(row.stopping, StoppingReason::kFixed);
  }
  ASSERT_LT(adapt.trial_rows.size(), full.trial_rows.size());
  for (const auto& tr : adapt.trial_rows) {
    const auto& ref =
        full.trial_rows[tr.trial * fixed.experiments.size() + tr.spec_index];
    EXPECT_EQ(tr, ref) << "trial " << tr.trial << " spec " << tr.spec_index;
  }
}

TEST(Campaign, AdaptiveBudgetExhaustionReportsBudgetReason) {
  // An unattainable target: every spec runs to the max_trials budget
  // (which overrides `trials` as the schedule bound) and says so.
  CampaignSpec campaign = small_campaign(2);
  campaign.target_stderr = 1e-12;
  campaign.wave_size = 1;
  campaign.max_trials = 3;
  const CampaignResult result = run_campaign(campaign);
  ASSERT_EQ(result.rows.size(), campaign.experiments.size());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.stopping, StoppingReason::kBudget) << row.label;
    EXPECT_EQ(row.trials, 3u) << row.label;
  }
}

TEST(Campaign, FixedWavePartitioningKeepsBytesIdentical) {
  // wave_size on a fixed campaign only partitions the schedule; rows,
  // aggregates and both serializations must stay byte-identical to
  // the single-wave run.
  CampaignSpec campaign = small_campaign(3);
  CampaignSpec waved = campaign;
  waved.wave_size = 1;
  const CampaignResult a = run_campaign(campaign);
  const CampaignResult b = run_campaign(waved);
  EXPECT_EQ(a.trial_rows, b.trial_rows);
  EXPECT_EQ(a.rows, b.rows);
  const auto serialize = [](const CampaignResult& r) {
    std::ostringstream csv;
    write_trial_rows_csv(csv, r.trial_rows);
    std::ostringstream agg_csv;
    write_campaign_rows_csv(agg_csv, r.rows);
    return csv.str() + agg_csv.str();
  };
  EXPECT_EQ(serialize(a), serialize(b));
}

TEST(Campaign, StreamingSinkMatchesEndOfRunRowsAtAnyWorkerCount) {
  // The sink must see exactly the rows of result.trial_rows, in order,
  // regardless of worker timing — and feeding them through the CSV
  // appender must reproduce the end-of-run writer byte for byte.
  const CampaignSpec campaign = small_campaign(2);
  BatchExecutor executor(6);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{6}}) {
    RunnerOptions opts;
    opts.threads = threads;
    opts.executor = &executor;
    std::vector<CampaignTrialRow> streamed;
    std::ostringstream streamed_csv;
    TrialRowCsvAppender appender(streamed_csv);
    const CampaignResult result =
        run_campaign(campaign, opts, [&](const CampaignTrialRow& row) {
          streamed.push_back(row);
          appender.append(row);
        });
    EXPECT_EQ(streamed, result.trial_rows) << threads << " threads";
    std::ostringstream whole;
    write_trial_rows_csv(whole, result.trial_rows);
    EXPECT_EQ(streamed_csv.str(), whole.str()) << threads << " threads";
  }
}

TEST(Campaign, AdaptiveConfigValidation) {
  CampaignSpec orphan_budget = small_campaign(2);
  orphan_budget.max_trials = 5;  // without target_stderr
  EXPECT_THROW((void)run_campaign(orphan_budget), std::invalid_argument);

  CampaignSpec nan_target = small_campaign(2);
  nan_target.target_stderr = std::nan("");
  EXPECT_THROW((void)run_campaign(nan_target), std::invalid_argument);

  CampaignSpec negative_target = small_campaign(2);
  negative_target.target_stderr = -0.25;
  EXPECT_THROW((void)run_campaign(negative_target), std::invalid_argument);

  // Sharding cannot observe other shards' rows; merge-only makes no
  // stopping decisions. Both throw before any cache I/O happens.
  CampaignSpec sharded = small_campaign(2);
  sharded.target_stderr = 0.5;
  sharded.shard_count = 2;
  sharded.cache_dir = "never-created";
  EXPECT_THROW((void)run_campaign(sharded), std::invalid_argument);

  CampaignSpec merge = small_campaign(2);
  merge.target_stderr = 0.5;
  merge.merge_only = true;
  merge.cache_dir = "never-created";
  EXPECT_THROW((void)run_campaign(merge), std::invalid_argument);
}

TEST(Campaign, AggregatedReaderRejectsLegacySchemas) {
  // Only the current header generation is readable. The three older ones
  // (no extra columns; +failed_trials; +stopping_reason; all without the
  // weighted metric columns) are synthesized by stripping columns from
  // current output, and each must be rejected as a header mismatch rather
  // than parsed with guessed defaults.
  const CampaignResult result = run_campaign(small_campaign(2));
  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);

  const auto strip_csv_columns = [](const std::string& text, std::size_t col,
                                    std::size_t count) {
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      std::vector<std::string> fields;
      std::string field;
      std::istringstream ls(line);
      while (std::getline(ls, field, ',')) fields.push_back(field);
      fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(col),
                   fields.begin() + static_cast<std::ptrdiff_t>(col + count));
      for (std::size_t i = 0; i < fields.size(); ++i) {
        out << (i == 0 ? "" : ",") << fields[i];
      }
      out << '\n';
    }
    return out.str();
  };
  // -the 9x4 weighted metric columns (they trail the schema)
  const std::string gen3 =
      strip_csv_columns(csv.str(), 6 + kNumCampaignMetrics * 4,
                        kNumCampaignMetrics * 4);
  const std::string gen2 = strip_csv_columns(gen3, 5, 1);  // -stopping_reason
  const std::string gen1 = strip_csv_columns(gen2, 4, 1);  // -failed_trials
  for (const std::string* legacy : {&gen3, &gen2, &gen1}) {
    std::istringstream in(*legacy);
    EXPECT_THROW((void)read_campaign_rows_csv(in), std::invalid_argument);
  }
  std::istringstream current(csv.str());
  EXPECT_EQ(read_campaign_rows_csv(current), result.rows);
}

TEST(Campaign, AdaptiveRowsSurviveSerializationRoundTrip) {
  CampaignSpec campaign = small_campaign(8);
  campaign.target_stderr = 0.5;
  campaign.wave_size = 2;
  const CampaignResult result = run_campaign(campaign);
  ASSERT_FALSE(result.rows.empty());
  ASSERT_EQ(result.rows.front().stopping, StoppingReason::kConverged);

  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);
  EXPECT_NE(csv.str().find("stopping_reason"), std::string::npos);
  EXPECT_NE(csv.str().find("converged"), std::string::npos);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(read_campaign_rows_csv(csv_in), result.rows);
}

}  // namespace
}  // namespace sbgp::sim
