#include "routing/baseline.h"

#include <cassert>
#include <stdexcept>

#include "routing/bucket_queue.h"
#include "routing/workspace.h"

namespace sbgp::routing {

namespace {

/// What fixing an AS needs of its tie set (the equally best neighbors):
/// whether it is non-empty, and the OR of the members' reach flags.
struct TieSet {
  bool any = false;
  bool reach_d = false;
  bool reach_m = false;

  void add(const RoutingOutcome& out, AsId u) {
    any = true;
    reach_d |= out.reaches_destination(u);
    reach_m |= out.reaches_attacker(u);
  }
};

struct Ctx {
  const AsGraph& g;
  AsId d;
  AsId m;
  std::vector<std::uint8_t>& fixed;
  BucketQueue& frontier;
  RoutingOutcome& out;

  Ctx(const AsGraph& graph, AsId dest, AsId attacker, EngineWorkspace& ws,
      RoutingOutcome& result)
      : g(graph),
        d(dest),
        m(attacker),
        fixed(ws.fixed),
        frontier(ws.frontier),
        out(result) {
    fixed.assign(graph.num_ases(), 0);
    out.reset(graph.num_ases());
  }

  [[nodiscard]] bool exports_up(AsId u) const noexcept {
    return out.type(u) == RouteType::kOrigin ||
           out.type(u) == RouteType::kCustomer;
  }

  /// Fixes v from its tie set of neighbors (all equally best).
  void fix_from(AsId v, RouteType t, std::uint32_t len, const TieSet& ties) {
    assert(ties.any);
    out.fix(v, t, static_cast<std::uint16_t>(len), ties.reach_d, ties.reach_m,
            /*secure=*/false);
    fixed[v] = 1;
  }

  /// The tie set of customer routes of length `len` at v.
  [[nodiscard]] TieSet customer_ties(AsId v, std::uint32_t len) const {
    TieSet ties;
    for (const AsId c : g.customers(v)) {
      if (fixed[c] && exports_up(c) && out.length(c) + 1u == len) {
        ties.add(out, c);
      }
    }
    return ties;
  }

  [[nodiscard]] TieSet peer_ties(AsId v, std::uint32_t len) const {
    TieSet ties;
    for (const AsId u : g.peers(v)) {
      if (fixed[u] && exports_up(u) && out.length(u) + 1u == len) {
        ties.add(out, u);
      }
    }
    return ties;
  }
};

/// Fixes every unfixed AS holding a customer route of exactly length `len`.
/// Returns the newly fixed ASes.
std::vector<AsId> sweep_customer_level(Ctx& ctx, std::uint32_t len,
                                       const std::vector<AsId>& frontier) {
  std::vector<AsId> fixed_now;
  for (const AsId u : frontier) {
    for (const AsId p : ctx.g.providers(u)) {
      if (ctx.fixed[p]) continue;
      const TieSet ties = ctx.customer_ties(p, len);
      if (!ties.any) continue;
      ctx.fix_from(p, RouteType::kCustomer, len, ties);
      fixed_now.push_back(p);
    }
  }
  return fixed_now;
}

/// Fixes every unfixed AS holding a peer route of exactly length `len`.
void sweep_peer_level(Ctx& ctx, std::uint32_t len,
                      const std::vector<AsId>& exporters) {
  for (const AsId u : exporters) {
    for (const AsId v : ctx.g.peers(u)) {
      if (ctx.fixed[v]) continue;
      const TieSet ties = ctx.peer_ties(v, len);
      if (ties.any) ctx.fix_from(v, RouteType::kPeer, len, ties);
    }
  }
}

/// Remaining customer routes (length > k) in increasing length order.
void finish_customer_routes(Ctx& ctx) {
  BucketQueue& heap = ctx.frontier;
  heap.clear();
  for (AsId u = 0; u < ctx.g.num_ases(); ++u) {
    if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
    for (const AsId p : ctx.g.providers(u)) {
      if (!ctx.fixed[p]) heap.push(ctx.out.length(u) + 1u, p);
    }
  }
  while (!heap.empty()) {
    const auto [len, v] = heap.pop();
    if (ctx.fixed[v]) continue;
    ctx.fix_from(v, RouteType::kCustomer, len, ctx.customer_ties(v, len));
    for (const AsId p : ctx.g.providers(v)) {
      if (!ctx.fixed[p]) heap.push(len + 1u, p);
    }
  }
}

/// Remaining peer routes: single sweep, shortest candidate per AS.
void finish_peer_routes(Ctx& ctx) {
  for (AsId v = 0; v < ctx.g.num_ases(); ++v) {
    if (ctx.fixed[v]) continue;
    std::uint32_t best = 0xFFFF'FFFFu;
    for (const AsId u : ctx.g.peers(v)) {
      if (ctx.fixed[u] && ctx.exports_up(u)) {
        best = std::min(best, ctx.out.length(u) + 1u);
      }
    }
    if (best == 0xFFFF'FFFFu) continue;
    ctx.fix_from(v, RouteType::kPeer, best, ctx.peer_ties(v, best));
  }
}

/// Provider routes: Dijkstra down from every fixed AS.
void finish_provider_routes(Ctx& ctx) {
  BucketQueue& heap = ctx.frontier;
  heap.clear();
  for (AsId u = 0; u < ctx.g.num_ases(); ++u) {
    if (!ctx.fixed[u]) continue;
    for (const AsId c : ctx.g.customers(u)) {
      if (!ctx.fixed[c]) heap.push(ctx.out.length(u) + 1u, c);
    }
  }
  while (!heap.empty()) {
    const auto [len, v] = heap.pop();
    if (ctx.fixed[v]) continue;
    TieSet ties;
    for (const AsId p : ctx.g.providers(v)) {
      if (ctx.fixed[p] && ctx.out.length(p) + 1u == len) ties.add(ctx.out, p);
    }
    ctx.fix_from(v, RouteType::kProvider, len, ties);
    for (const AsId c : ctx.g.customers(v)) {
      if (!ctx.fixed[c]) heap.push(len + 1u, c);
    }
  }
}

}  // namespace

void compute_baseline_into(const AsGraph& g, AsId d, AsId m,
                           LocalPrefPolicy lp, EngineWorkspace& ws,
                           RoutingOutcome& result) {
  if (d >= g.num_ases()) {
    throw std::invalid_argument("compute_baseline: bad destination");
  }
  if (m != kNoAs && (m >= g.num_ases() || m == d)) {
    throw std::invalid_argument("compute_baseline: bad attacker");
  }
  Ctx ctx(g, d, m, ws, result);
  ctx.out.fix(d, RouteType::kOrigin, 0, true, false, false);
  ctx.fixed[d] = 1;
  if (m != kNoAs) {
    ctx.out.fix(m, RouteType::kOrigin, 1, false, true, false);
    ctx.fixed[m] = 1;
  }

  // Interleaved rungs: customer/peer routes of length l = 1..k in ladder
  // order. The standard policy is the k = 0 ladder (no interleaving).
  const std::uint32_t k =
      lp.kind == LocalPrefPolicy::Kind::kLpK ? lp.k : 0;
  // Frontier of customer-route exporters per length; origins export at
  // their own lengths (m's bogus route already counts its fake hop).
  std::vector<AsId> frontier{d};
  if (m != kNoAs) frontier.push_back(m);
  for (std::uint32_t l = 1; l <= k; ++l) {
    // Customer routes of length l first (rung 2(l-1))...
    std::vector<AsId> next;
    std::vector<AsId> exporters;  // exporters of length l-1 announcements
    for (const AsId u : frontier) {
      if (ctx.out.length(u) + 1u == l) exporters.push_back(u);
    }
    next = sweep_customer_level(ctx, l, exporters);
    // ...then peer routes of length l (rung 2(l-1)+1).
    sweep_peer_level(ctx, l, exporters);
    // The next level's exporters: everything fixed so far that exports up.
    frontier.insert(frontier.end(), next.begin(), next.end());
  }
  finish_customer_routes(ctx);
  finish_peer_routes(ctx);
  finish_provider_routes(ctx);
}

const RoutingOutcome& compute_baseline(const AsGraph& g, AsId d, AsId m,
                                       LocalPrefPolicy lp,
                                       EngineWorkspace& ws) {
  compute_baseline_into(g, d, m, lp, ws, ws.baseline);
  return ws.baseline;
}

RoutingOutcome compute_baseline(const AsGraph& g, AsId d, AsId m,
                                LocalPrefPolicy lp) {
  EngineWorkspace ws;
  compute_baseline_into(g, d, m, lp, ws, ws.baseline);
  return std::move(ws.baseline);
}

}  // namespace sbgp::routing
