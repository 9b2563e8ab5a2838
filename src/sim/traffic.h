// Deterministic per-pair traffic weighting.
//
// The paper's metrics count (attacker, destination) pairs uniformly, but
// partial-deployment conclusions about the real Internet are about
// *traffic*: an attack on a pair carrying a million flows matters more
// than one on a pair carrying ten. A TrafficModel assigns every pair a
// uint64 weight, turning "fraction of happy pairs" into "fraction of
// happy traffic" — the weighted counterparts of the campaign metrics.
//
// Two models:
//   uniform  every pair weighs `scale` (scale 1 = today's unweighted
//            counting exactly; any uniform scale yields weighted metric
//            ratios identical to the unweighted ones).
//   gravity  weight(m, d) = mass(m) * mass(d) * scale, the classic
//            gravity model over per-AS masses. Masses are heavy-tailed
//            (P(mass >= k) ~ 1/k, Zipf-like — real inter-AS traffic
//            matrices are dominated by a few heavy sources) and derived
//            from (seed, AS id) via SplitMix64, so weights are identical
//            across machines, worker counts and platforms, and never
//            stored: any consumer can recompute them.
//
// Everything is integer arithmetic: weighted counters accumulate exactly,
// merge deterministically, and serialize losslessly — the same contract as
// the unweighted PairStats counters. Overflow bound: a pair weight is at
// most max_mass^2 * scale (<= 2^32 * scale at the default max_mass), so
// per-cell weighted sums stay far below 2^64 for any realistic sample
// grid. Past it nothing wraps: pair_weight and every weighted counter
// throw std::overflow_error naming the value and the 2^64 - 1 limit
// (util/checked.h), which a campaign reports as a failed cell.
#ifndef SBGP_SIM_TRAFFIC_H
#define SBGP_SIM_TRAFFIC_H

#include <cstdint>
#include <string>
#include <string_view>

#include "routing/model.h"

namespace sbgp::sim {

/// A deterministic pair-weight assignment. Pure data: every field takes
/// part in ExperimentSpec's spec_fingerprint, so two specs differing only
/// in traffic weighting never share campaign cache entries.
struct TrafficModel {
  enum class Kind : std::uint8_t {
    kUniform = 0,  // every pair weighs `scale`
    kGravity = 1,  // mass(attacker) * mass(destination) * scale
  };

  Kind kind = Kind::kUniform;
  /// Mass stream seed (gravity only; ignored for uniform weights).
  std::uint64_t seed = 20130812;
  /// Upper bound of the per-AS mass range [1, max_mass] (gravity only).
  std::uint64_t max_mass = 1u << 16;
  /// Multiplier applied to every pair weight. Must be >= 1.
  std::uint64_t scale = 1;

  /// True when every pair weight is exactly 1 — weighted counters are then
  /// bit-for-bit copies of the unweighted ones and serialization may keep
  /// the legacy (weight-less) schema.
  [[nodiscard]] bool is_trivial() const {
    return kind == Kind::kUniform && scale == 1;
  }

  [[nodiscard]] bool operator==(const TrafficModel&) const = default;
};

/// Throws std::invalid_argument on an unusable model (scale or max_mass 0).
void validate_traffic_model(const TrafficModel& model);

/// Deterministic per-AS mass in [1, max_mass]; 1 for uniform models.
/// Heavy-tailed for gravity: P(mass >= k) ~ 1/k over the AS population.
[[nodiscard]] std::uint64_t as_mass(const TrafficModel& model, routing::AsId v);

/// The weight of pair (attacker m, destination d). Uniform: scale.
/// Gravity: as_mass(m) * as_mass(d) * scale.
/// Throws std::overflow_error if the product exceeds 2^64 - 1.
[[nodiscard]] std::uint64_t pair_weight(const TrafficModel& model,
                                        routing::AsId m, routing::AsId d);

/// "uniform", "uniform,scale=3", "gravity,seed=7,max-mass=65536,scale=1".
[[nodiscard]] std::string to_string(const TrafficModel& model);

/// Inverse of to_string, for CLI flags: a kind ("uniform" | "gravity")
/// optionally followed by comma-separated key=value pairs (keys: seed,
/// max-mass, scale). Throws std::invalid_argument naming the bad token.
[[nodiscard]] TrafficModel parse_traffic_model(std::string_view text);

}  // namespace sbgp::sim

#endif  // SBGP_SIM_TRAFFIC_H
