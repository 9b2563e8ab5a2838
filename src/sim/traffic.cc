#include "sim/traffic.h"

#include <charconv>
#include <stdexcept>

#include "util/checked.h"
#include "util/rng.h"

namespace sbgp::sim {

void validate_traffic_model(const TrafficModel& model) {
  if (model.scale == 0) {
    throw std::invalid_argument(
        "TrafficModel: scale must be >= 1 (every pair needs a positive "
        "weight)");
  }
  if (model.max_mass == 0) {
    throw std::invalid_argument("TrafficModel: max_mass must be >= 1");
  }
}

std::uint64_t as_mass(const TrafficModel& model, routing::AsId v) {
  if (model.kind == TrafficModel::Kind::kUniform) return 1;
  // Heavy-tailed mass via inversion: r is uniform over [1, max_mass], so
  // P(max_mass / r >= k) = P(r <= max_mass / k) ~ 1/k — a Zipf-like tail
  // from one SplitMix64 draw per (seed, AS), with no stored state.
  const std::uint64_t r =
      util::splitmix64(model.seed ^
                       util::splitmix64(static_cast<std::uint64_t>(v))) %
          model.max_mass +
      1;
  return model.max_mass / r;
}

std::uint64_t pair_weight(const TrafficModel& model, routing::AsId m,
                          routing::AsId d) {
  if (model.kind == TrafficModel::Kind::kUniform) return model.scale;
  std::uint64_t w = 0;
  if (__builtin_mul_overflow(as_mass(model, m), as_mass(model, d), &w) ||
      __builtin_mul_overflow(w, model.scale, &w)) {
    util::throw_counter_overflow("pair_weight(" + to_string(model) + ")");
  }
  return w;
}

std::string to_string(const TrafficModel& model) {
  if (model.kind == TrafficModel::Kind::kUniform) {
    std::string out = "uniform";
    if (model.scale != 1) out += ",scale=" + std::to_string(model.scale);
    return out;
  }
  return "gravity,seed=" + std::to_string(model.seed) +
         ",max-mass=" + std::to_string(model.max_mass) +
         ",scale=" + std::to_string(model.scale);
}

namespace {

std::uint64_t parse_traffic_u64(std::string_view value,
                                std::string_view token) {
  std::uint64_t v = 0;
  const char* last = value.data() + value.size();
  const auto res = std::from_chars(value.data(), last, v);
  if (value.empty() || res.ec != std::errc() || res.ptr != last) {
    throw std::invalid_argument(
        "parse_traffic_model: bad value in '" + std::string(token) +
        "' (wanted an unsigned integer)");
  }
  return v;
}

}  // namespace

TrafficModel parse_traffic_model(std::string_view text) {
  TrafficModel model;
  std::size_t comma = text.find(',');
  const std::string_view kind = text.substr(0, comma);
  if (kind == "uniform") {
    model.kind = TrafficModel::Kind::kUniform;
  } else if (kind == "gravity") {
    model.kind = TrafficModel::Kind::kGravity;
  } else {
    throw std::invalid_argument("parse_traffic_model: unknown kind '" +
                                std::string(kind) +
                                "' (expected uniform or gravity)");
  }
  while (comma != std::string_view::npos) {
    const std::size_t start = comma + 1;
    comma = text.find(',', start);
    const std::string_view token = text.substr(
        start,
        comma == std::string_view::npos ? std::string_view::npos
                                        : comma - start);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("parse_traffic_model: expected key=value, "
                                  "got '" +
                                  std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "seed") {
      model.seed = parse_traffic_u64(value, token);
    } else if (key == "max-mass" || key == "max_mass") {
      model.max_mass = parse_traffic_u64(value, token);
    } else if (key == "scale") {
      model.scale = parse_traffic_u64(value, token);
    } else {
      throw std::invalid_argument(
          "parse_traffic_model: unknown key '" + std::string(key) +
          "' (expected seed, max-mass or scale)");
    }
  }
  validate_traffic_model(model);
  return model;
}

}  // namespace sbgp::sim
