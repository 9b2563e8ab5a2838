#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "routing/engine.h"
#include "routing/model.h"

namespace sbgp::routing {
namespace {

const std::vector<RouteType> kAllTypes = {
    RouteType::kNone, RouteType::kOrigin, RouteType::kCustomer,
    RouteType::kPeer, RouteType::kProvider};

// Boundary lengths for the 16-bit field: zero, small values, byte
// boundaries, the largest real length, and the no-route sentinel.
const std::vector<std::uint16_t> kBoundaryLengths = {
    0, 1, 2, 255, 256, 257, 0x7FFF, 0x8000, 0xFFFE, kNoRouteLength};

TEST(PackedOutcome, ExhaustiveFixRoundTrip) {
  RoutingOutcome o(3);
  for (const RouteType t : kAllTypes) {
    for (int flags = 0; flags < 8; ++flags) {
      const bool reach_d = (flags & 1) != 0;
      const bool reach_m = (flags & 2) != 0;
      const bool secure = (flags & 4) != 0;
      for (const std::uint16_t len : kBoundaryLengths) {
        o.fix(0, t, len, reach_d, reach_m, secure);
        EXPECT_EQ(o.type(0), t);
        EXPECT_EQ(o.length(0), len);
        EXPECT_EQ(o.reaches_destination(0), reach_d);
        EXPECT_EQ(o.reaches_attacker(0), reach_m);
        EXPECT_EQ(o.secure_route(0), secure);
        EXPECT_EQ(o.has_route(0), t != RouteType::kNone);
        // Reserved bits stay zero: the word is exactly its three fields.
        EXPECT_EQ(o.packed_word(0) & 0xFFC0u, 0u);
        EXPECT_EQ(o.packed_word(0),
                  static_cast<std::uint32_t>(t) | (reach_d ? 1u << 3 : 0u) |
                      (reach_m ? 1u << 4 : 0u) | (secure ? 1u << 5 : 0u) |
                      (static_cast<std::uint32_t>(len) << 16));
        // Neighbors are untouched by a fix of AS 0.
        EXPECT_EQ(o.type(1), RouteType::kNone);
        EXPECT_EQ(o.length(1), kNoRouteLength);
      }
    }
  }
}

TEST(PackedOutcome, ResetYieldsUnfixedState) {
  RoutingOutcome o(2);
  o.fix(1, RouteType::kCustomer, 3, true, true, true);
  o.reset(2);
  for (AsId v = 0; v < 2; ++v) {
    EXPECT_EQ(o.type(v), RouteType::kNone);
    EXPECT_FALSE(o.has_route(v));
    EXPECT_EQ(o.length(v), kNoRouteLength);
    EXPECT_FALSE(o.reaches_destination(v));
    EXPECT_FALSE(o.reaches_attacker(v));
    EXPECT_FALSE(o.secure_route(v));
  }
  EXPECT_EQ(RoutingOutcome(2), o);
}

// operator== must react to every field independently — the equivalence
// tests (seeded vs full engine) rely on it detecting single-attribute
// drift.
TEST(PackedOutcome, EqualitySensitivityPerField) {
  const auto base = [] {
    RoutingOutcome o(2);
    o.fix(0, RouteType::kCustomer, 7, true, false, false);
    return o;
  };
  EXPECT_EQ(base(), base());

  {
    RoutingOutcome o = base();  // type differs
    o.fix(0, RouteType::kPeer, 7, true, false, false);
    EXPECT_NE(o, base());
  }
  {
    RoutingOutcome o = base();  // length differs
    o.fix(0, RouteType::kCustomer, 8, true, false, false);
    EXPECT_NE(o, base());
  }
  {
    RoutingOutcome o = base();  // reach-d flag differs
    o.fix(0, RouteType::kCustomer, 7, false, false, false);
    EXPECT_NE(o, base());
  }
  {
    RoutingOutcome o = base();  // reach-m flag differs
    o.fix(0, RouteType::kCustomer, 7, true, true, false);
    EXPECT_NE(o, base());
  }
  {
    RoutingOutcome o = base();  // secure flag differs
    o.fix(0, RouteType::kCustomer, 7, true, false, true);
    EXPECT_NE(o, base());
  }
  {
    RoutingOutcome o = base();  // a different AS fixed
    o.fix(1, RouteType::kCustomer, 7, true, false, false);
    EXPECT_NE(o, base());
  }
}

}  // namespace
}  // namespace sbgp::routing
