// The benchmark's own unit tests: the summary statistics and their
// sample-count rule, and the row checks — a deliberately perturbed row
// must fail them, so they are not vacuous.
//
//   sbgp_perfbench_test REPO_ROOT WORK_DIR
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "checks.h"
#include "sim/campaign_io.h"
#include "summary.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_summary() {
  using perfbench::quantile;
  expect(quantile({3, 1, 2}, 0.5) == 2, "odd median");
  expect(quantile({4, 1, 3, 2}, 0.5) == 2.5, "even median interpolates");
  expect(quantile({1, 2, 3, 4, 5}, 0.0) == 1, "quantile low endpoint");
  expect(quantile({1, 2, 3, 4, 5}, 1.0) == 5, "quantile high endpoint");
  expect(quantile({0, 10}, 0.9) == 9, "linear interpolation");
  expect(throws([] { (void)quantile({}, 0.5); }), "empty sample throws");
  expect(throws([] { (void)quantile({1}, 1.5); }), "q > 1 throws");

  using perfbench::tail_percentile;
  expect(!tail_percentile(19).has_value(), "19 samples: no tail");
  expect(tail_percentile(20) == 0.50, "20 samples: p50 has 10 beyond");
  expect(tail_percentile(40) == 0.75, "40 samples: p75");
  expect(tail_percentile(100) == 0.90, "100 samples: p90");
  expect(tail_percentile(1000) == 0.99, "1000 samples: p99");

  using perfbench::summarize;
  expect(throws([] { (void)summarize({1.0, 2.0}, "x"); }),
         "fewer than kMinSamples throws");
  const auto s = summarize({5, 1, 4, 2, 3}, "x");
  expect(s.count == 5 && s.median == 3 && !s.tail_p, "small summary");
  std::vector<double> many(100);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<double>(i);
  }
  const auto m = summarize(many, "x");
  expect(m.tail_p == 0.90 && m.tail == quantile(many, 0.9), "p90 tail");
}

void test_row_checks(const std::string& repo_root,
                     const std::string& work_dir) {
  std::ifstream in(repo_root + "/baselines/tiny-500.csv");
  const perfbench::Rows rows = sbgp::sim::read_trial_rows_csv(in);
  expect(!rows.empty(), "baseline has rows");
  expect(perfbench::compare_rows(rows, rows).empty(), "identical rows pass");

  perfbench::Rows perturbed = rows;
  // Both mirrors move, so the row stays uniform-weight and serializable
  // in the legacy layout.
  perturbed.back().row.stats.happiness.happy_lower += 1;
  perturbed.back().row.stats.w_happiness.happy_lower += 1;
  expect(!perfbench::compare_rows(rows, perturbed).empty(),
         "a perturbed counter fails compare_rows");
  perfbench::Rows dropped(rows.begin(), rows.end() - 1);
  expect(!perfbench::compare_rows(rows, dropped).empty(),
         "a missing row fails compare_rows");

  const std::string path = work_dir + "/unit-test-stream.csv";
  {
    std::ofstream out(path);
    out << perfbench::serialize_rows(rows, false);
  }
  expect(perfbench::check_stream(path, rows, false).empty(),
         "faithful stream passes");
  expect(!perfbench::check_stream(path, perturbed, false).empty(),
         "stream of other rows fails");
  {
    std::ofstream out(path);
    out << perfbench::serialize_rows(perturbed, false);
  }
  expect(!perfbench::check_stream(path, rows, false).empty(),
         "perturbed stream fails");
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: sbgp_perfbench_test REPO_ROOT WORK_DIR\n";
    return 2;
  }
  try {
    test_summary();
    test_row_checks(argv[1], argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: unexpected exception: " << e.what() << '\n';
    return 1;
  }
  std::cout << (failures == 0 ? "all perfbench unit tests passed\n"
                              : "perfbench unit tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
