#include "security/pair_outcomes.h"

#include <cassert>
#include <stdexcept>

namespace sbgp::security {

namespace {

/// Code of v's key over the three outcomes; `outside` is v's membership.
inline std::uint8_t source_key_code(
    const routing::RoutingOutcome& normal,
    const routing::RoutingOutcome& attacked,
    const routing::RoutingOutcome& attacked_empty, bool outside,
    topology::AsId v) {
  return SourceKey{attacked.happy(v), attacked_empty.happy(v),
                   normal.secure_route(v), attacked.secure_route(v), outside}
      .code();
}

}  // namespace

SourceKeyCounts baseline_key_counts(
    const routing::RoutingOutcome& normal,
    const routing::RoutingOutcome& insecure_empty,
    const routing::Deployment& dep, topology::AsId d) {
  const std::size_t n = normal.num_ases();
  if (insecure_empty.num_ases() != n || d >= n) {
    throw std::invalid_argument(
        "baseline_key_counts: outcomes of different sizes or bad "
        "destination");
  }
  SourceKeyCounts counts{};
  for (topology::AsId v = 0; v < n; ++v) {
    if (v == d) continue;
    ++counts[source_key_code(normal, normal, insecure_empty,
                             !dep.signs_origin(v), v)];
  }
  return counts;
}

SourceKeyCounts pair_key_counts(const PairOutcomes& po,
                                const routing::RoutingOutcome& insecure_empty,
                                std::span<const topology::AsId> changed,
                                const SourceKeyCounts& totals) {
  const routing::RoutingOutcome& normal = *po.normal;
  const routing::RoutingOutcome& attacked = *po.attacked;
  const routing::RoutingOutcome& attacked_empty = *po.attacked_empty;
  const routing::Deployment& dep = *po.dep;
  SourceKeyCounts counts = totals;
  // Each removal below takes back a source the totals counted: m once, and
  // every other listed v (never d) once, since the list has no repeats.
  const auto remove_baseline = [&](topology::AsId v, bool outside) {
    const std::uint8_t k =
        source_key_code(normal, normal, insecure_empty, outside, v);
    assert(counts[k] > 0);
    --counts[k];
  };
  remove_baseline(po.m, !dep.signs_origin(po.m));
  for (const topology::AsId v : changed) {
    if (v == po.m) continue;
    assert(v != po.d);
    const bool outside = !dep.signs_origin(v);
    remove_baseline(v, outside);
    ++counts[source_key_code(normal, attacked, attacked_empty, outside, v)];
  }
  return counts;
}

}  // namespace sbgp::security
