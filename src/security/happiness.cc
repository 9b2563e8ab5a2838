#include "security/happiness.h"

namespace sbgp::security {

MetricBounds HappyTotals::bounds() const {
  if (sources == 0) return {};
  return {static_cast<double>(happy_lower) / static_cast<double>(sources),
          static_cast<double>(happy_upper) / static_cast<double>(sources)};
}

void accumulate_into(const PairOutcomes& po, HappyTotals& acc) {
  const auto c = count_happy(*po.attacked, po.d, po.m);
  acc.happy_lower += c.happy_lower;
  acc.happy_upper += c.happy_upper;
  acc.sources += c.sources;
}

void accumulate_keys(const SourceKeyCounts& counts, HappyTotals& acc) {
  add_key_counts(counts, acc, [](HappyTotals& one, const SourceKey& k) {
    add_source(one, k.attacked);
  });
}

HappyCount count_happy(const RoutingOutcome& out, AsId d, AsId m) {
  HappyTotals t;
  for (AsId v = 0; v < out.num_ases(); ++v) {
    if (v == d || v == m) continue;
    add_source(t, out.happy(v));
  }
  return {t.happy_lower, t.happy_upper, t.sources};
}

}  // namespace sbgp::security
