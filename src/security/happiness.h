// Per-attack happiness counting — the inner quantity of the security metric
// H_{M,D}(S) (Section 4.1).
//
// For one (attacker m, destination d) instance the metric needs the number
// of "happy" sources: ASes choosing a legitimate route to d rather than a
// bogus route to m. Intradomain tie-breaking is unknowable, so we carry the
// paper's upper/lower bounds: the lower bound assumes every knife-edge AS
// falls to the attacker, the upper bound assumes it survives (Appendix C).
#ifndef SBGP_SECURITY_HAPPINESS_H
#define SBGP_SECURITY_HAPPINESS_H

#include <cstddef>
#include <cstdint>

#include "routing/engine.h"
#include "routing/model.h"
#include "security/pair_outcomes.h"
#include "util/checked.h"

namespace sbgp::security {

using routing::AsId;
using routing::RoutingOutcome;

/// Happy-source counts for a single routing outcome under attack.
struct HappyCount {
  std::size_t happy_lower = 0;  // strictly happy (every best route legit)
  std::size_t happy_upper = 0;  // happy under favourable tie-breaking
  std::size_t sources = 0;      // |V| - 2 (excludes d and m)

  [[nodiscard]] double lower_fraction() const {
    return sources == 0 ? 0.0
                        : static_cast<double>(happy_lower) /
                              static_cast<double>(sources);
  }
  [[nodiscard]] double upper_fraction() const {
    return sources == 0 ? 0.0
                        : static_cast<double>(happy_upper) /
                              static_cast<double>(sources);
  }
};

/// Counts happy sources in `out` for the attack (m on d). ASes with no
/// route are never happy. `m` may be kNoAs (normal conditions), in which
/// case happiness means reaching d and sources = |V| - 1.
[[nodiscard]] HappyCount count_happy(const RoutingOutcome& out, AsId d, AsId m);

/// Exact integer totals of happy-source counts over many pairs — the
/// associative form batch runners accumulate per worker so merged results
/// are bit-for-bit independent of the thread count. Because every pair has
/// the same source count (|V| - 2), the ratio of totals equals the mean of
/// per-pair fractions.
struct HappyTotals {
  std::size_t happy_lower = 0;
  std::size_t happy_upper = 0;
  std::size_t sources = 0;

  HappyTotals& operator+=(const HappyTotals& o) {
    happy_lower += o.happy_lower;
    happy_upper += o.happy_upper;
    sources += o.sources;
    return *this;
  }
  /// Adds `w` copies of `o` — the traffic-weighted accumulation
  /// (sim/traffic.h): with w the pair's weight, ratios of weighted totals
  /// are traffic-weighted means instead of pair-count means.
  /// Throws std::overflow_error rather than wrap a counter past 2^64 - 1.
  HappyTotals& add_scaled(const HappyTotals& o, std::uint64_t w) {
    util::add_scaled_checked(happy_lower, o.happy_lower, w,
                             "HappyTotals::happy_lower");
    util::add_scaled_checked(happy_upper, o.happy_upper, w,
                             "HappyTotals::happy_upper");
    util::add_scaled_checked(sources, o.sources, w, "HappyTotals::sources");
    return *this;
  }
  [[nodiscard]] bool operator==(const HappyTotals&) const = default;

  [[nodiscard]] struct MetricBounds bounds() const;
};

/// Counting rule for one source, given its status under attack.
inline void add_source(HappyTotals& acc, routing::HappyStatus attacked) {
  ++acc.sources;
  if (attacked == routing::HappyStatus::kHappy) {
    ++acc.happy_lower;
    ++acc.happy_upper;
  } else if (attacked == routing::HappyStatus::kEither) {
    ++acc.happy_upper;
  }
}

/// Fused-pipeline entry point: counts happy sources in po.attacked and adds
/// them to `acc`.
void accumulate_into(const PairOutcomes& po, HappyTotals& acc);

/// Changed-set entry point (security/pair_outcomes.h): adds the counts of
/// a pair's source keys to `acc`.
void accumulate_keys(const SourceKeyCounts& counts, HappyTotals& acc);

/// Bounds on the metric H once averaged over pairs.
struct MetricBounds {
  double lower = 0.0;
  double upper = 0.0;

  MetricBounds& operator+=(const MetricBounds& o) {
    lower += o.lower;
    upper += o.upper;
    return *this;
  }
  MetricBounds& operator/=(double k) {
    lower /= k;
    upper /= k;
    return *this;
  }
  friend MetricBounds operator-(MetricBounds a, const MetricBounds& b) {
    return {a.lower - b.lower, a.upper - b.upper};
  }
};

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_HAPPINESS_H
