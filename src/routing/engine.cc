#include "routing/engine.h"

#include <array>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>

#include "routing/bucket_queue.h"
#include "routing/workspace.h"

namespace sbgp::routing {

namespace {

/// Mutable state threaded through the stage subroutines. All buffers are
/// borrowed from an EngineWorkspace so repeated queries reuse capacity.
struct Ctx {
  const AsGraph& g;
  const Deployment& dep;
  SecurityModel model;
  AsId d;
  AsId m;  // kNoAs when no attack
  std::vector<std::uint8_t>& fixed;
  BucketQueue& frontier;
  RoutingOutcome& out;

  /// Tag selecting the seeded constructor: `result` already holds a valid
  /// pre-seeded state and must not be reset.
  struct Seeded {};

  Ctx(const AsGraph& graph, const Deployment& deployment, SecurityModel mdl,
      AsId dest, AsId attacker, EngineWorkspace& ws, RoutingOutcome& result)
      : g(graph),
        dep(deployment),
        model(mdl),
        d(dest),
        m(attacker),
        fixed(ws.fixed),
        frontier(ws.frontier),
        out(result) {
    fixed.assign(graph.num_ases(), 0);
    out.reset(graph.num_ases());
  }

  Ctx(const AsGraph& graph, const Deployment& deployment, SecurityModel mdl,
      AsId dest, AsId attacker, EngineWorkspace& ws, RoutingOutcome& result,
      Seeded)
      : g(graph),
        dep(deployment),
        model(mdl),
        d(dest),
        m(attacker),
        fixed(ws.fixed),
        frontier(ws.frontier),
        out(result) {
    fixed.assign(graph.num_ases(), 0);
  }

  /// SecP applies at v? (Baseline ignores the deployment entirely.)
  [[nodiscard]] bool validates(AsId v) const noexcept {
    return model != SecurityModel::kInsecure && dep.validates(v);
  }

  /// Can u's announcement extend a secure route? Origins must sign (the
  /// attacker's bogus origination is legacy BGP, never secure); transit
  /// nodes must themselves hold a secure route and validate.
  [[nodiscard]] bool secure_source(AsId u) const noexcept {
    if (out.type(u) == RouteType::kOrigin) {
      return u == d && model != SecurityModel::kInsecure && dep.signs_origin(d);
    }
    return out.secure_route(u);
  }

  /// May u's current route be announced to a provider or peer of u?
  /// (Export rule Ex: only customer routes and own prefixes propagate
  /// upward or sideways.)
  [[nodiscard]] bool exports_up(AsId u) const noexcept {
    return out.type(u) == RouteType::kOrigin ||
           out.type(u) == RouteType::kCustomer;
  }
};

/// One tie-break-equivalent candidate group accumulated at fix time.
struct Candidates {
  bool any = false;
  bool any_secure = false;
  bool reach_d = false;
  bool reach_m = false;
  bool reach_d_secure = false;
  bool reach_m_secure = false;

  void add(const Ctx& ctx, AsId via, bool secure) {
    any = true;
    const bool to_d = ctx.out.type(via) == RouteType::kOrigin
                          ? via == ctx.d
                          : ctx.out.reaches_destination(via);
    const bool to_m = ctx.out.type(via) == RouteType::kOrigin
                          ? via == ctx.m
                          : ctx.out.reaches_attacker(via);
    reach_d |= to_d;
    reach_m |= to_m;
    any_secure |= secure;
    reach_d_secure |= secure && to_d;
    reach_m_secure |= secure && to_m;
  }

  /// Applies the SecP tie-set restriction and fixes v.
  ///
  /// In the security 3rd model a validating AS keeps only the secure routes
  /// from its most-preferred (type, length) set. In the other models a
  /// validating AS can never see a mix of secure and insecure candidates in
  /// the insecure stages (secure options would have fixed it in an earlier
  /// FS* stage), so the restriction is vacuous there.
  void fix(Ctx& ctx, AsId v, RouteType t, std::uint16_t len) const {
    assert(any);
    bool use_secure_only = false;
    if (ctx.validates(v) && any_secure) {
      use_secure_only = true;
      assert(ctx.model == SecurityModel::kSecurityThird ||
             (reach_d == reach_d_secure && reach_m == reach_m_secure));
    }
    if (use_secure_only) {
      ctx.out.fix(v, t, len, reach_d_secure, reach_m_secure, /*secure=*/true);
    } else {
      ctx.out.fix(v, t, len, reach_d, reach_m, /*secure=*/false);
    }
    ctx.fixed[v] = 1;
  }
};

/// FCR / FSCR: customer routes propagate from the roots up the
/// customer->provider hierarchy; shortest are fixed first (Appendix B.2).
/// With `secure_only`, only validating ASes and fully secure routes take
/// part (FSCR).
void customer_stage(Ctx& ctx, bool secure_only) {
  BucketQueue& heap = ctx.frontier;
  heap.clear();
  const auto push_providers = [&](AsId u) {
    for (const AsId p : ctx.g.providers(u)) {
      if (ctx.fixed[p]) continue;
      if (secure_only && !ctx.validates(p)) continue;
      heap.push(ctx.out.length(u) + 1u, p);
    }
  };
  for (AsId u = 0; u < ctx.g.num_ases(); ++u) {
    if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
    if (secure_only && !ctx.secure_source(u)) continue;
    push_providers(u);
  }
  while (!heap.empty()) {
    const auto [len, v] = heap.pop();
    if (ctx.fixed[v]) continue;
    Candidates cands;
    for (const AsId c : ctx.g.customers(v)) {
      if (!ctx.fixed[c] || !ctx.exports_up(c)) continue;
      if (ctx.out.length(c) + 1u != len) continue;
      const bool secure = ctx.validates(v) && ctx.secure_source(c);
      if (secure_only && !secure) continue;
      cands.add(ctx, c, secure);
    }
    assert(cands.any);
    cands.fix(ctx, v, RouteType::kCustomer, static_cast<std::uint16_t>(len));
    push_providers(v);
  }
}

/// FPeeR / FSPeeR: peer routes are only ever learned from neighbors that
/// hold customer routes (or originate), so a single sweep suffices — peer
/// routes never enable further peer routes (Appendix B.2).
void peer_stage(Ctx& ctx, bool secure_only) {
  for (AsId v = 0; v < ctx.g.num_ases(); ++v) {
    if (ctx.fixed[v]) continue;
    if (secure_only && !ctx.validates(v)) continue;

    // First pass: determine the preferred (security, length) bucket.
    std::uint32_t best_len = kNoRouteLength;
    std::uint32_t best_secure_len = kNoRouteLength;
    for (const AsId u : ctx.g.peers(v)) {
      if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
      const std::uint32_t len = ctx.out.length(u) + 1u;
      const bool secure = ctx.validates(v) && ctx.secure_source(u);
      if (secure_only && !secure) continue;
      best_len = std::min(best_len, len);
      if (secure) best_secure_len = std::min(best_secure_len, len);
    }
    if (best_len == kNoRouteLength) continue;

    // Security 2nd ranks SecP above SP: any secure peer route beats every
    // insecure one. (In security 1st's insecure phase no secure candidates
    // can remain; in 3rd security only breaks length ties.)
    const bool prefer_secure_bucket =
        (secure_only || (ctx.model == SecurityModel::kSecuritySecond &&
                         best_secure_len != kNoRouteLength));
    const std::uint32_t chosen_len =
        prefer_secure_bucket ? best_secure_len : best_len;

    Candidates cands;
    for (const AsId u : ctx.g.peers(v)) {
      if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
      const std::uint32_t len = ctx.out.length(u) + 1u;
      if (len != chosen_len) continue;
      const bool secure = ctx.validates(v) && ctx.secure_source(u);
      if ((secure_only || prefer_secure_bucket) && !secure) continue;
      cands.add(ctx, u, secure);
    }
    assert(cands.any);
    cands.fix(ctx, v, RouteType::kPeer, static_cast<std::uint16_t>(chosen_len));
  }
}

/// FPrvR / FSPrvR: provider routes propagate down provider->customer edges
/// from every already-fixed AS (all route types export to customers);
/// shortest fixed first (Appendix B.2).
void provider_stage(Ctx& ctx, bool secure_only) {
  BucketQueue& heap = ctx.frontier;
  heap.clear();
  const auto push_customers = [&](AsId u) {
    for (const AsId c : ctx.g.customers(u)) {
      if (ctx.fixed[c]) continue;
      if (secure_only && !ctx.validates(c)) continue;
      heap.push(ctx.out.length(u) + 1u, c);
    }
  };
  for (AsId u = 0; u < ctx.g.num_ases(); ++u) {
    if (!ctx.fixed[u]) continue;
    if (secure_only && !ctx.secure_source(u)) continue;
    push_customers(u);
  }
  while (!heap.empty()) {
    const auto [len, v] = heap.pop();
    if (ctx.fixed[v]) continue;
    Candidates cands;
    for (const AsId p : ctx.g.providers(v)) {
      if (!ctx.fixed[p]) continue;
      if (ctx.out.length(p) + 1u != len) continue;
      const bool secure = ctx.validates(v) && ctx.secure_source(p);
      if (secure_only && !secure) continue;
      cands.add(ctx, p, secure);
    }
    assert(cands.any);
    cands.fix(ctx, v, RouteType::kProvider, static_cast<std::uint16_t>(len));
    push_customers(v);
  }
}

/// Runs the model's stage pipeline over whatever is already fixed in ctx.
void run_stages(Ctx& ctx, const Query& q, const Deployment& deployment) {
  const bool secure_routes_possible =
      q.model != SecurityModel::kInsecure &&
      deployment.signs_origin(q.destination);

  switch (q.model) {
    case SecurityModel::kInsecure:
    case SecurityModel::kSecurityThird:
      customer_stage(ctx, /*secure_only=*/false);
      peer_stage(ctx, /*secure_only=*/false);
      provider_stage(ctx, /*secure_only=*/false);
      break;
    case SecurityModel::kSecuritySecond:
      if (secure_routes_possible) customer_stage(ctx, /*secure_only=*/true);
      customer_stage(ctx, /*secure_only=*/false);
      peer_stage(ctx, /*secure_only=*/false);
      if (secure_routes_possible) provider_stage(ctx, /*secure_only=*/true);
      provider_stage(ctx, /*secure_only=*/false);
      break;
    case SecurityModel::kSecurityFirst:
      if (secure_routes_possible) {
        customer_stage(ctx, /*secure_only=*/true);
        peer_stage(ctx, /*secure_only=*/true);
        provider_stage(ctx, /*secure_only=*/true);
      }
      customer_stage(ctx, /*secure_only=*/false);
      peer_stage(ctx, /*secure_only=*/false);
      provider_stage(ctx, /*secure_only=*/false);
      break;
  }
}

/// Validates the query and installs the two roots: d announces "d" (length
/// 0); the attacker announces the bogus one-hop-longer "m, d" via legacy
/// BGP (length 1), Section 3.1.
Ctx make_context(const AsGraph& g, const Query& q, const Deployment& deployment,
                 EngineWorkspace& ws, RoutingOutcome& result) {
  const std::size_t n = g.num_ases();
  if (q.destination >= n) {
    throw std::invalid_argument("compute_routing: bad destination");
  }
  if (q.attacker != kNoAs && (q.attacker >= n || q.attacker == q.destination)) {
    throw std::invalid_argument("compute_routing: bad attacker");
  }
  Ctx ctx(g, deployment, q.model, q.destination, q.attacker, ws, result);
  ctx.out.fix(q.destination, RouteType::kOrigin, 0, /*reach_d=*/true,
              /*reach_m=*/false, /*secure=*/false);
  ctx.fixed[q.destination] = 1;
  if (q.attacker != kNoAs) {
    ctx.out.fix(q.attacker, RouteType::kOrigin, 1, /*reach_d=*/false,
                /*reach_m=*/true, /*secure=*/false);
    ctx.fixed[q.attacker] = 1;
  }
  return ctx;
}

}  // namespace

void compute_routing_into(const AsGraph& g, const Query& q,
                          const Deployment& deployment, EngineWorkspace& ws,
                          RoutingOutcome& result) {
  Ctx ctx = make_context(g, q, deployment, ws, result);
  run_stages(ctx, q, deployment);
}

const RoutingOutcome& compute_routing(const AsGraph& g, const Query& q,
                                      const Deployment& deployment,
                                      EngineWorkspace& ws) {
  compute_routing_into(g, q, deployment, ws, ws.primary);
  return ws.primary;
}

RoutingOutcome compute_routing(const AsGraph& g, const Query& q,
                               const Deployment& deployment) {
  EngineWorkspace ws;
  compute_routing_into(g, q, deployment, ws, ws.primary);
  return std::move(ws.primary);
}

namespace {

/// Next hop of v's representative secure route in the stable state
/// `normal` of destination d: the first secure member of v's tie set in
/// adjacency order, as the engine's Candidates scan meets it. Tie-set
/// members are the neighbors of v's route class one hop shorter than v
/// (exporting ones, for customer and peer routes); the secure ones are d
/// itself or holders of a secure route. Requires normal.secure_route(v).
AsId secure_next_hop(const AsGraph& g, const RoutingOutcome& normal, AsId d,
                     AsId v) {
  const RouteType t = normal.type(v);
  std::span<const AsId> neighbors = g.providers(v);
  if (t == RouteType::kCustomer) neighbors = g.customers(v);
  if (t == RouteType::kPeer) neighbors = g.peers(v);
  const std::uint32_t len = normal.length(v);
  for (const AsId u : neighbors) {
    if (normal.length(u) + 1u != len) continue;
    if (t != RouteType::kProvider && normal.type(u) != RouteType::kOrigin &&
        normal.type(u) != RouteType::kCustomer) {
      continue;
    }
    if (u == d || normal.secure_route(u)) return u;
  }
  throw std::logic_error(
      "compute_routing_with_hysteresis: broken secure route");
}

}  // namespace

void compute_routing_with_hysteresis_into(const AsGraph& g, const Query& q,
                                          const Deployment& deployment,
                                          EngineWorkspace& ws,
                                          const RoutingOutcome& normal,
                                          RoutingOutcome& result) {
  if (normal.num_ases() != g.num_ases()) {
    throw std::invalid_argument(
        "compute_routing_with_hysteresis_into: normal outcome has " +
        std::to_string(normal.num_ases()) + " ASes, graph has " +
        std::to_string(g.num_ases()));
  }
  if (!q.under_attack()) {
    compute_routing_into(g, q, deployment, ws, result);
    return;
  }
  assert(&result != &normal);
  Ctx ctx = make_context(g, q, deployment, ws, result);
  // Pin every secure route whose path avoids the attacker: with
  // hysteresis, an AS does not abandon a working secure route just because
  // a "better" insecure one shows up (the Section 8 proposal). The route
  // is the representative one (secure_next_hop), whose next hop is one hop
  // shorter; so in increasing normal length, v is pinned iff its next hop
  // is d or an already pinned AS. The attacker is fixed as an origin but
  // never pinned: a route through it is exactly where hysteresis cannot
  // help. Pinned routes are consistent with each other because a pinned
  // route's whole suffix is pinned.
  BucketQueue& order = ctx.frontier;
  order.clear();
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (!ctx.fixed[v] && normal.secure_route(v)) {
      order.push(normal.length(v), v);
    }
  }
  while (!order.empty()) {
    const AsId v = order.pop().second;
    const AsId next = secure_next_hop(g, normal, q.destination, v);
    if (next == q.attacker || !ctx.fixed[next]) continue;
    ctx.out.fix(v, normal.type(v), normal.length(v), /*reach_d=*/true,
                /*reach_m=*/false, /*secure=*/true);
    ctx.fixed[v] = 1;
  }
  run_stages(ctx, q, deployment);
}

bool routing_seed_applicable(const Query& q, const Deployment& deployment) {
  // The seeded path replicates the plain FCR/FPeeR/FPrvR pipeline, which
  // is the whole pipeline whenever no secure stage runs: kInsecure and
  // kSecurityThird never run FS* stages (security only breaks ties), and
  // an unsigned origin disables them in the other two models. Security
  // 1st/2nd with a signed origin additionally runs FSCR/FSPeeR/FSPrvR,
  // whose interleaving the delta does not reproduce — m ceasing to be a
  // secure transit node can displace secure routes in ways the plain
  // pipeline never sees.
  return q.under_attack() &&
         (q.model == SecurityModel::kInsecure ||
          q.model == SecurityModel::kSecurityThird ||
          !deployment.signs_origin(q.destination));
}

namespace {

/// The delta body behind both seeded entry points. Lane 0 is the query's
/// own attacked state; compute_routing_seeded_twin_into adds the S =
/// emptyset attacked state of the same (d, m) as a second lane. All lanes
/// agree on every route type and length, so they share every ordering and
/// length decision (read off lane 0) and differ only in the flags their
/// own Candidates scans produce. Every lane's `out` already holds its
/// baseline; `attacker` is the validated m.
///
/// Every AS is re-fixed at most once, against its baseline word, and a fix
/// is listed in ws.changed exactly when it changed some lane's word. So on
/// return ws.changed names every AS whose word differs from its baseline
/// in any lane, each once: m first, then the customer/peer-stage changes,
/// then the provider-stage changes. d is never re-fixed.
template <std::size_t kLanes>
void seeded_delta(const std::array<Ctx*, kLanes>& lanes, AsId attacker,
                  EngineWorkspace& ws) {
  Ctx& ctx = *lanes[0];
  const std::size_t n = ctx.g.num_ases();

  using Snapshot = std::array<std::uint32_t, kLanes>;
  using LaneCandidates = std::array<Candidates, kLanes>;
  const auto snapshot = [&](AsId v) {
    Snapshot s;
    for (std::size_t i = 0; i < kLanes; ++i) {
      s[i] = lanes[i]->out.packed_word(v);
    }
    return s;
  };
  // A re-derived AS propagates when any lane's packed word changed.
  // Re-deriving a consumer whose inputs did not change in some lane
  // reproduces that lane's bytes, so working through the union of the
  // lanes' dirty sets keeps every lane exact.
  const auto differs = [&](const Snapshot& before, AsId v) {
    bool any = false;
    for (std::size_t i = 0; i < kLanes; ++i) {
      any |= lanes[i]->out.packed_word(v) != before[i];
    }
    return any;
  };
  // One neighbor scan feeds every lane, each with its own security.
  const auto add = [&](LaneCandidates& cands, AsId v, AsId via) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Ctx& lane = *lanes[i];
      cands[i].add(lane, via, lane.validates(v) && lane.secure_source(via));
    }
  };
  const auto fix = [&](const LaneCandidates& cands, AsId v, RouteType t,
                       std::uint32_t len) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      cands[i].fix(*lanes[i], v, t, static_cast<std::uint16_t>(len));
    }
  };

  // Epoch-stamped per-phase marks: O(changed) per call, no O(V) clears.
  if (ws.seen.size() < n) ws.seen.resize(n, 0);
  if (ws.seen_bits.size() < n) ws.seen_bits.resize(n, 0);
  const std::uint64_t epoch = ++ws.seen_epoch;
  constexpr std::uint8_t kCustomerDone = 1;
  constexpr std::uint8_t kPeerListed = 2;
  constexpr std::uint8_t kDistDirty = 4;
  constexpr std::uint8_t kRestateListed = 8;
  const auto mark = [&](AsId v, std::uint8_t bit) {
    if (ws.seen[v] != epoch) {
      ws.seen[v] = epoch;
      ws.seen_bits[v] = 0;
    }
    if ((ws.seen_bits[v] & bit) != 0) return false;
    ws.seen_bits[v] |= bit;
    return true;
  };

  // ws.frontier stays free for the provider-delta queues below
  // (Ctx::frontier aliases it); the customer delta gets its own queue.
  BucketQueue& customer_heap = ws.frontier2;
  customer_heap.clear();
  ws.touched.clear();
  ws.changed.clear();

  // Fan-out after v's packed word changed in the customer stage: push every
  // provider (customer-stage consumer) and record every peer (peer-stage
  // consumer). Customer-stage candidate lengths only shrink relative to
  // the baseline — the stage depends only on origins and the customer
  // hierarchy, and the attack merely adds the origin at m — so pushes
  // carry final lengths and the heap pops each changed AS first at
  // exactly its final stage length, when its whole final tie bucket is
  // already final.
  const auto push_neighbors = [&](AsId v) {
    if (!ctx.exports_up(v)) return;
    const std::uint32_t next_len = ctx.out.length(v) + 1u;
    for (const AsId p : ctx.g.providers(v)) customer_heap.push(next_len, p);
    for (const AsId u : ctx.g.peers(v)) {
      if (mark(u, kPeerListed)) ws.touched.push_back(u);
    }
  };

  // Install the attacker's bogus origination "m, d" (length 1, legacy
  // BGP), replacing whatever baseline route m held. As a customer-stage
  // exporter m is at least as attractive as before: a baseline
  // customer-stage route at m had length >= 1.
  for (Ctx* lane : lanes) {
    lane->out.fix(attacker, RouteType::kOrigin, 1, /*reach_d=*/false,
                  /*reach_m=*/true, /*secure=*/false);
  }
  ctx.fixed[attacker] = 1;
  ws.changed.push_back(attacker);
  push_neighbors(attacker);

  // --- Customer-stage delta (FCR) ---------------------------------------
  // Re-derives each touched AS with the engine's exact candidate filter,
  // expressed over final states: exporting customers at the minimal
  // candidate length (identical to the fixed[]-based filter because
  // customer-stage suppliers always fix before their consumers).
  while (!customer_heap.empty()) {
    const auto [len, v] = customer_heap.pop();
    (void)len;
    if (!mark(v, kCustomerDone)) continue;
    if (ctx.out.type(v) == RouteType::kOrigin) continue;
    std::uint32_t best = kNoRouteLength;
    for (const AsId c : ctx.g.customers(v)) {
      if (!ctx.exports_up(c)) continue;
      best = std::min(best, ctx.out.length(c) + 1u);
    }
    if (best == kNoRouteLength) continue;  // v is not fixed in this stage
    const Snapshot before = snapshot(v);
    LaneCandidates cands;
    for (const AsId c : ctx.g.customers(v)) {
      if (!ctx.exports_up(c)) continue;
      if (ctx.out.length(c) + 1u != best) continue;
      add(cands, v, c);
    }
    // Commit unconditionally (the re-derived word may equal the old one);
    // only a changed word propagates.
    fix(cands, v, RouteType::kCustomer, best);
    if (differs(before, v)) {
      ws.changed.push_back(v);
      push_neighbors(v);
    }
  }

  // --- Peer-stage delta (FPeeR) -----------------------------------------
  // Peer routes are learned only from exporting (customer/origin) peers,
  // all finalized by the customer phase; there is no ordering among peer
  // fixes, so one pass over the touched set suffices.
  for (const AsId v : ws.touched) {
    const RouteType t = ctx.out.type(v);
    if (t == RouteType::kOrigin || t == RouteType::kCustomer) continue;
    std::uint32_t best_len = kNoRouteLength;
    std::uint32_t best_secure_len = kNoRouteLength;
    for (const AsId u : ctx.g.peers(v)) {
      if (!ctx.exports_up(u)) continue;
      const std::uint32_t len = ctx.out.length(u) + 1u;
      best_len = std::min(best_len, len);
      if (ctx.validates(v) && ctx.secure_source(u)) {
        best_secure_len = std::min(best_secure_len, len);
      }
    }
    if (best_len == kNoRouteLength) continue;
    // Only security 2nd (single lane: the twin requires security 3rd)
    // ranks the secure bucket first.
    const bool prefer_secure_bucket =
        ctx.model == SecurityModel::kSecuritySecond &&
        best_secure_len != kNoRouteLength;
    const std::uint32_t chosen_len =
        prefer_secure_bucket ? best_secure_len : best_len;
    const Snapshot before = snapshot(v);
    LaneCandidates cands;
    for (const AsId u : ctx.g.peers(v)) {
      if (!ctx.exports_up(u)) continue;
      if (ctx.out.length(u) + 1u != chosen_len) continue;
      if (prefer_secure_bucket &&
          !(ctx.validates(v) && ctx.secure_source(u))) {
        continue;
      }
      add(cands, v, u);
    }
    fix(cands, v, RouteType::kPeer, chosen_len);
    if (differs(before, v)) ws.changed.push_back(v);
  }

  // --- Provider-stage delta (FPrvR) -------------------------------------
  // Provider routes are NOT monotone under the attack: an AS near d can
  // trade its short provider route for a (longer) peer or customer route,
  // lengthening every provider route that ran through it. The delta
  // therefore runs in two passes over the one-provider-hop relation
  //   len(v) = 1 + min{ len(p) : p a routed provider of v },
  // whose sources are the origins and the customer/peer-fixed ASes:
  //
  //  1. *Lengths* — a DynamicSWSF-FP fixpoint (Ramalingam-Reps). dist[]
  //     starts from the baseline lengths with the word-changed sources
  //     (ws.changed, so far m and the customer/peer changes) substituted;
  //     rhs[] is the one-step lookahead, and an AS is reprocessed while
  //     dist != rhs, handling both shortenings (through m's bogus route)
  //     and lengthenings (a supplier left the provider domain). Any
  //     dist == rhs fixpoint of the relation above equals the stage's
  //     Dijkstra lengths: a finite dist is witnessed by a real path
  //     (lengths strictly decrease toward a source), and induction over
  //     final lengths bounds it from above.
  //  2. *States* — flags are functions of the final min-length provider
  //     bucket, so every AS whose bucket could have changed (dist changed,
  //     or a provider's dist or word changed) is re-derived with the
  //     engine's exact Candidates scan, in increasing final length; word
  //     changes propagate to customers. A bucket member always has a
  //     strictly smaller final length, so it is committed before its
  //     consumers pop (state changes travel strictly down the length
  //     order). Changed words join ws.changed.
  //
  // Baseline bytes are kept wherever neither pass finds a change, and each
  // re-derived AS gets engine-identical candidates, so the result stays
  // bit-identical to a full compute_routing_into().
  if (ws.dist.size() < n) ws.dist.resize(n);
  if (ws.rhs.size() < n) ws.rhs.resize(n);
  ws.dirty.clear();
  for (AsId v = 0; v < n; ++v) ws.dist[v] = ctx.out.length(v);

  const auto is_source = [&](AsId v) {
    const RouteType t = ctx.out.type(v);
    return t == RouteType::kOrigin || t == RouteType::kCustomer ||
           t == RouteType::kPeer;
  };
  constexpr std::uint32_t kInf = kNoRouteLength;

  {
    BucketQueue& queue = ctx.frontier;
    queue.clear();
    const auto update = [&](AsId u) {
      if (is_source(u)) return;
      std::uint32_t best = kInf;
      for (const AsId p : ctx.g.providers(u)) {
        if (ws.dist[p] == kNoRouteLength) continue;
        best = std::min(best, ws.dist[p] + 1u);
      }
      ws.rhs[u] = best;
      const std::uint32_t du = ws.dist[u];
      if (du != best) queue.push(std::min(du, best), u);
    };
    for (const AsId x : ws.changed) {
      for (const AsId c : ctx.g.customers(x)) update(c);
    }
    while (!queue.empty()) {
      const auto [key, v] = queue.pop();
      const std::uint32_t dv = ws.dist[v];
      const std::uint32_t rv = ws.rhs[v];
      if (dv == rv || key != std::min(dv, rv)) continue;  // stale entry
      if (mark(v, kDistDirty)) ws.dirty.push_back(v);
      if (rv < dv) {
        ws.dist[v] = static_cast<std::uint16_t>(rv);
        for (const AsId c : ctx.g.customers(v)) update(c);
      } else {
        ws.dist[v] = kNoRouteLength;
        update(v);
        for (const AsId c : ctx.g.customers(v)) update(c);
      }
    }
  }

  {
    BucketQueue& restate = ctx.frontier;
    restate.clear();
    const auto add_restate = [&](AsId v) {
      if (is_source(v)) return;
      if (!mark(v, kRestateListed)) return;
      restate.push(ws.dist[v], v);
    };
    for (const AsId x : ws.changed) {
      for (const AsId c : ctx.g.customers(x)) add_restate(c);
    }
    for (std::size_t i = 0; i < ws.dirty.size(); ++i) {
      const AsId v = ws.dirty[i];
      add_restate(v);
      for (const AsId c : ctx.g.customers(v)) add_restate(c);
    }
    while (!restate.empty()) {
      const auto [len, v] = restate.pop();
      if (len == kInf) {
        // Never a drop: the attack only adds an origin, every baseline
        // customer/peer route survives, and providers always export down.
        assert(ctx.out.type(v) == RouteType::kNone);
        continue;
      }
      const Snapshot before = snapshot(v);
      LaneCandidates cands;
      for (const AsId p : ctx.g.providers(v)) {
        if (ws.dist[p] == kNoRouteLength) continue;
        if (ws.dist[p] + 1u != len) continue;
        add(cands, v, p);
      }
      fix(cands, v, RouteType::kProvider, len);
      if (differs(before, v)) {
        ws.changed.push_back(v);
        for (const AsId c : ctx.g.customers(v)) add_restate(c);
      }
    }
  }
}

/// Query and baseline checks shared by the seeded entry points; `who`
/// prefixes the message.
void validate_seeded(const char* who, const AsGraph& g, const Query& q,
                     const Deployment& deployment,
                     const RoutingOutcome& baseline) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  const std::size_t n = g.num_ases();
  if (q.destination >= n) fail("bad destination");
  if (q.attacker == kNoAs || q.attacker >= n || q.attacker == q.destination) {
    fail("bad attacker");
  }
  if (!routing_seed_applicable(q, deployment)) {
    fail("secure routes through the attacker could be displaced under this "
         "model; use compute_routing_into");
  }
  if (baseline.num_ases() != n) fail("baseline/graph size mismatch");
}

}  // namespace

void compute_routing_seeded_into(const AsGraph& g, const Query& q,
                                 const Deployment& deployment,
                                 EngineWorkspace& ws,
                                 const RoutingOutcome& baseline,
                                 RoutingOutcome& result) {
  validate_seeded("compute_routing_seeded_into", g, q, deployment, baseline);
  assert(&baseline != &result);
  result = baseline;
  Ctx ctx(g, deployment, q.model, q.destination, q.attacker, ws, result,
          Ctx::Seeded{});
  seeded_delta<1>({&ctx}, q.attacker, ws);
}

void compute_routing_seeded_twin_into(const AsGraph& g, const Query& q,
                                      const Deployment& deployment,
                                      EngineWorkspace& ws,
                                      const RoutingOutcome& baseline,
                                      const RoutingOutcome& insecure_baseline,
                                      RoutingOutcome& result,
                                      RoutingOutcome& insecure_result) {
  constexpr const char* kWho = "compute_routing_seeded_twin_into";
  if (q.model != SecurityModel::kSecurityThird) {
    throw std::invalid_argument(
        std::string(kWho) +
        ": the twin lane requires security 3rd, the only model whose route "
        "types and lengths do not depend on the deployment");
  }
  validate_seeded(kWho, g, q, deployment, baseline);
  const std::size_t n = g.num_ases();
  if (insecure_baseline.num_ases() != n) {
    throw std::invalid_argument(std::string(kWho) +
                                ": insecure baseline/graph size mismatch");
  }
  for (AsId v = 0; v < n; ++v) {
    if (baseline.type(v) != insecure_baseline.type(v) ||
        baseline.length(v) != insecure_baseline.length(v)) {
      throw std::invalid_argument(
          std::string(kWho) +
          ": baselines disagree on the route type or length of AS " +
          std::to_string(v));
    }
  }
  assert(&baseline != &result && &insecure_baseline != &insecure_result &&
         &result != &insecure_result);
  result = baseline;
  insecure_result = insecure_baseline;
  const Deployment empty;
  Ctx ctx(g, deployment, q.model, q.destination, q.attacker, ws, result,
          Ctx::Seeded{});
  Ctx twin(g, empty, SecurityModel::kInsecure, q.destination, q.attacker, ws,
           insecure_result, Ctx::Seeded{});
  seeded_delta<2>({&ctx, &twin}, q.attacker, ws);
}

RoutingOutcome compute_routing_with_hysteresis(const AsGraph& g,
                                               const Query& q,
                                               const Deployment& deployment) {
  EngineWorkspace ws;
  compute_routing_into(g, {q.destination, kNoAs, q.model}, deployment, ws,
                       ws.normal);
  compute_routing_with_hysteresis_into(g, q, deployment, ws, ws.normal,
                                       ws.primary);
  return std::move(ws.primary);
}

}  // namespace sbgp::routing
