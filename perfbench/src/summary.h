// Sample summaries for the benchmark's timed repetitions.
//
// Every timed quantity is reported as the median of its repetitions; the
// tail is reported as the highest standard percentile that still has at
// least kTailSamples samples beyond it, so a p90 never rests on one or two
// outliers. Fewer than kMinSamples repetitions is a benchmark bug: the
// timed loops never stop before reaching it.
#ifndef PERFBENCH_SUMMARY_H
#define PERFBENCH_SUMMARY_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest samples a reported median may rest on.
inline constexpr std::size_t kMinSamples = 3;
/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "inclusive" method). Throws std::invalid_argument on an empty
/// sample or q outside [0, 1].
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile: empty sample");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q outside [0, 1]");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// The highest of p50/p75/p90/p95/p99 with at least kTailSamples of n
/// samples strictly beyond it (n * (1 - p) >= kTailSamples), or nullopt
/// when even the median has fewer.
[[nodiscard]] inline std::optional<double> tail_percentile(std::size_t n) {
  std::optional<double> best;
  for (const double p : {0.50, 0.75, 0.90, 0.95, 0.99}) {
    if (static_cast<double>(n) * (1.0 - p) >= kTailSamples - 1e-9) best = p;
  }
  return best;
}

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  std::optional<double> tail_p;  // which percentile, if any qualifies
  double tail = 0.0;             // its value
};

/// Median plus qualifying tail of `values`. Throws std::logic_error with
/// fewer than kMinSamples values, naming `what`.
[[nodiscard]] inline Summary summarize(const std::vector<double>& values,
                                       const std::string& what) {
  if (values.size() < kMinSamples) {
    throw std::logic_error(what + ": " + std::to_string(values.size()) +
                           " sample(s), need at least " +
                           std::to_string(kMinSamples));
  }
  Summary s;
  s.count = values.size();
  s.median = quantile(values, 0.5);
  s.tail_p = tail_percentile(values.size());
  if (s.tail_p) s.tail = quantile(values, *s.tail_p);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_SUMMARY_H
