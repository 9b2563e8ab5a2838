// Staged-BFS computation of S*BGP routing outcomes (Appendix B).
//
// For a query (destination d, optional attacker m announcing the bogus path
// "m, d" over legacy BGP) and a partial deployment S, the engine computes
// the unique stable routing state (Theorem 2.1) in near-O(V + E) time
// (bucket-queue frontiers; see routing/bucket_queue.h) by "fixing" AS
// routes in the order the paper's Fix-Routes algorithm prescribes:
//
//   baseline / security 3rd:  FCR -> FPeeR -> FPrvR
//   security 2nd:             FSCR -> FCR -> FPeeR -> FSPrvR -> FPrvR
//   security 1st:             FSCR -> FSPeeR -> FSPrvR -> FCR -> FPeeR -> FPrvR
//
// where the FS* stages propagate fully-secure routes among validating ASes
// only. Each AS ends with its route's relationship class, length, security,
// and the pair of flags {some most-preferred route reaches d, some reaches
// m} that drive the tie-break upper/lower bounds of Appendix C.
#ifndef SBGP_ROUTING_ENGINE_H
#define SBGP_ROUTING_ENGINE_H

#include <cstdint>
#include <vector>

#include "routing/model.h"
#include "topology/as_graph.h"

namespace sbgp::routing {

using topology::AsGraph;

/// Length value meaning "no route".
inline constexpr std::uint16_t kNoRouteLength = 0xFFFF;

/// Stable routing state for one (d, m, S, model) instance.
///
/// All per-AS attributes below are invariant under intradomain tie-breaking
/// (every route in an AS's most-preferred set shares the same relationship
/// class, length and security — Appendix B.1); only *which endpoint* a route
/// reaches can depend on tie-breaking, which the reach flags expose.
///
/// Storage is one packed 32-bit word per AS
///
///   bits  0-2   route type        bits 3-5   reach/secure flags
///   bits  6-15  reserved (zero)   bits 16-31 AS-path length
///
/// so the engine's hot operations — fix(), the seeded path's word
/// comparisons, reset() — are single stores, single compares, and one
/// fill respectively, and a query streams one word per AS through the
/// cache. The word is the whole outcome: no next hops are stored, because
/// every metric reads only these tie-break-invariant attributes (paths,
/// when needed, come from the reference simulator, routing/reference.h).
class RoutingOutcome {
 public:
  /// Empty outcome; reset(n) before use (workspace reuse path).
  RoutingOutcome() = default;
  explicit RoutingOutcome(std::size_t n) { reset(n); }

  /// Re-initializes to the all-unfixed state for `n` ASes, reusing the
  /// existing buffer capacity. This is what makes outcomes cheap to keep in
  /// a long-lived EngineWorkspace.
  void reset(std::size_t n) { word_.assign(n, kUnfixedWord); }

  [[nodiscard]] std::size_t num_ases() const noexcept { return word_.size(); }

  [[nodiscard]] RouteType type(AsId v) const noexcept {
    return static_cast<RouteType>(word_[v] & kTypeMask);
  }
  [[nodiscard]] std::uint16_t length(AsId v) const noexcept {
    return static_cast<std::uint16_t>(word_[v] >> kLengthShift);
  }
  [[nodiscard]] bool has_route(AsId v) const noexcept {
    return (word_[v] & kTypeMask) != 0;
  }
  /// True if some most-preferred route of v leads to the legitimate d.
  [[nodiscard]] bool reaches_destination(AsId v) const noexcept {
    return (word_[v] & kReachD) != 0;
  }
  /// True if some most-preferred route of v leads to the attacker.
  [[nodiscard]] bool reaches_attacker(AsId v) const noexcept {
    return (word_[v] & kReachM) != 0;
  }
  /// True if v's route was learned entirely via S*BGP (a "secure route").
  [[nodiscard]] bool secure_route(AsId v) const noexcept {
    return (word_[v] & kSecure) != 0;
  }

  /// The raw packed (type | flags | length) word of v — everything a
  /// neighbor's candidate scan can observe about v's route. The seeded
  /// engine compares these words to decide whether a re-derived state must
  /// propagate.
  [[nodiscard]] std::uint32_t packed_word(AsId v) const noexcept {
    return word_[v];
  }

  [[nodiscard]] HappyStatus happy(AsId v) const noexcept {
    if (!has_route(v)) return HappyStatus::kDisconnected;
    const bool d = reaches_destination(v);
    const bool m = reaches_attacker(v);
    if (d && m) return HappyStatus::kEither;
    return d ? HappyStatus::kHappy : HappyStatus::kUnhappy;
  }

  /// Exact per-AS equality over every attribute — what the
  /// seeded/incremental engine paths are tested against (identical bytes,
  /// not just identical statistics).
  [[nodiscard]] bool operator==(const RoutingOutcome&) const = default;

  // --- engine-internal setters (public for the implementation file) -----
  void fix(AsId v, RouteType t, std::uint16_t len, bool reach_d, bool reach_m,
           bool secure) noexcept {
    word_[v] = static_cast<std::uint32_t>(t) | (reach_d ? kReachD : 0u) |
               (reach_m ? kReachM : 0u) | (secure ? kSecure : 0u) |
               (static_cast<std::uint32_t>(len) << kLengthShift);
  }

 private:
  // Packed-word layout; bits 6-15 are reserved and always zero.
  static constexpr std::uint32_t kTypeMask = 0x7u;      // bits 0-2
  static constexpr std::uint32_t kReachD = 1u << 3;
  static constexpr std::uint32_t kReachM = 1u << 4;
  static constexpr std::uint32_t kSecure = 1u << 5;
  static constexpr std::uint32_t kLengthShift = 16;     // bits 16-31
  /// kNone route, no flags, kNoRouteLength — the all-unfixed state.
  static constexpr std::uint32_t kUnfixedWord =
      static_cast<std::uint32_t>(kNoRouteLength) << kLengthShift;

  std::vector<std::uint32_t> word_;
};

/// Computes the stable routing outcome. Preconditions: destination valid;
/// attacker != destination (or kNoAs); model kInsecure ignores `deployment`.
/// Only the standard LP policy is supported here (the LPk variant of
/// Appendix K is handled by the reference simulator and the partition
/// analysis). Throws std::invalid_argument on bad queries.
[[nodiscard]] RoutingOutcome compute_routing(const AsGraph& g, const Query& q,
                                             const Deployment& deployment);

/// Section 8 extension: S*BGP with *hysteresis*. An AS that holds a secure
/// route under normal conditions does not abandon it during an attack even
/// if a higher-ranked insecure route appears — eliminating protocol
/// downgrade attacks by construction (except when the attacker sits on the
/// secure route itself). Equivalent to compute_routing for the security
/// 1st model (Theorem 3.1); for the 2nd/3rd models it quantifies how much
/// of the 1st model's protection the paper's proposed fix could recover.
[[nodiscard]] RoutingOutcome compute_routing_with_hysteresis(
    const AsGraph& g, const Query& q, const Deployment& deployment);

// --- Workspace variants (allocation-free steady state) ---------------------
//
// The variants below compute into buffers owned by an EngineWorkspace (see
// routing/workspace.h) instead of allocating fresh vectors per query. They
// are what sim::BatchExecutor workers call in the hot loop; the allocating
// signatures above are thin wrappers over them.

class EngineWorkspace;

/// Computes the stable routing outcome into `result`, using ws.fixed and
/// ws.frontier as scratch. `result` is typically one of ws's outcome slots
/// and must not alias a slot the caller still needs.
void compute_routing_into(const AsGraph& g, const Query& q,
                          const Deployment& deployment, EngineWorkspace& ws,
                          RoutingOutcome& result);

/// Convenience: computes into ws.primary and returns it.
const RoutingOutcome& compute_routing(const AsGraph& g, const Query& q,
                                      const Deployment& deployment,
                                      EngineWorkspace& ws);

/// Hysteresis outcome of `q` into `result`, given `normal`: the pre-attack
/// outcome of {q.destination, kNoAs, q.model} under `deployment` (the
/// destination-grouped sweep, sim/pair_analysis.h, computes it once per
/// destination and feeds it to every attacker). Throws
/// std::invalid_argument on a malformed query or when `normal` is not
/// sized to the graph. `normal` must not alias `result`; uses ws.fixed and
/// ws.frontier as scratch. Bit-for-bit identical to the allocating
/// compute_routing_with_hysteresis.
void compute_routing_with_hysteresis_into(const AsGraph& g, const Query& q,
                                          const Deployment& deployment,
                                          EngineWorkspace& ws,
                                          const RoutingOutcome& normal,
                                          RoutingOutcome& result);

// --- Seeded / incremental routing (destination-grouped sweeps) -------------
//
// A sweep evaluates many attackers against the same destination. The
// no-attack outcome of {d, kNoAs, model} is attacker-independent, and
// compute_routing_seeded_into re-derives the attacked state from that
// cached baseline instead of from scratch:
//
//  * Customer stage: monotone delta. The stage depends only on origins
//    and the customer hierarchy, and the attack merely adds the origin
//    "m, d" (legacy BGP, length 1) — candidate lengths only shrink and
//    exporters only accumulate, so only attacker-perturbed ASes are
//    re-scanned, in the engine's exact candidate order.
//  * Peer stage: delta. Peer routes read only finalized customer-stage
//    states, so one pass over the ASes whose peer suppliers changed
//    suffices.
//  * Provider stage: two-pass delta. Provider routes are NOT monotone —
//    an AS near d may trade a short provider route for a longer
//    peer/customer route, lengthening every provider route through it —
//    so the lengths are settled first with a DynamicSWSF-FP fixpoint
//    (Ramalingam-Reps: handles both shortenings and lengthenings, visits
//    only ASes whose one-provider-hop lookahead disagrees with their
//    length), and the flags are then re-derived in increasing final
//    length for every AS whose min-length provider bucket could have
//    changed.
//
// The result is bit-for-bit identical to a full compute_routing_into of
// the same query.
//
// Twin lane. Under security 3rd, security only breaks ties, so every AS's
// route type and length is the same for any deployment S (Appendix E.1):
// the attacked state and the S = emptyset attacked state of one (d, m)
// differ only in flags. compute_routing_seeded_twin_into derives both in
// one traversal. The customer-heap order, the peer touched-list, the
// provider dist/rhs fixpoint and the restate queue read only types and
// lengths, so one copy serves both lanes; each re-derived AS runs one
// neighbor scan feeding two candidate sets (the twin lane never
// validates), and a change propagates when either lane's packed word
// changed. Because both lanes pop in the same order, every supplier
// is final in both lanes before its consumers re-derive, and re-deriving
// an AS whose inputs did not change in one lane reproduces that lane's
// bytes — so each lane is bit-for-bit identical to its own full
// compute_routing_into.
//
// Changed list. Every AS is re-derived at most once, against its baseline
// word, so on return ws.changed names exactly the ASes whose packed word
// differs from its baseline in any lane: each once, the attacker always
// (first), the destination never — the customer/peer-stage changes, the
// provider-stage restates that changed a word, and the provider routes
// dropped to kNone. Every other AS keeps its baseline bytes in every lane,
// which is what lets the fused scoring pass (security/pair_outcomes.h)
// score a pair in O(changed) from per-destination totals.
//
// In kSecurityFirst / kSecuritySecond with a signed origin the secure
// stages (FSCR/FSPeeR/FSPrvR) also run, and their interleaving is not
// reproduced here (the attacked instance *removes* m as a secure transit
// node, which can displace secure routes); callers must fall back to the
// full engine there.

/// True if compute_routing_seeded_into may serve this attacked query:
/// q.under_attack() and no secure stage runs (kInsecure / kSecurityThird,
/// or an unsigned origin), per the staging argument above.
[[nodiscard]] bool routing_seed_applicable(const Query& q,
                                           const Deployment& deployment);

/// Computes the attacked stable outcome of `q` into `result`, starting
/// from `baseline` — which must be the outcome of {q.destination, kNoAs,
/// q.model} under the same graph and deployment. Requires
/// routing_seed_applicable(q, deployment) (throws std::invalid_argument
/// otherwise, as for a malformed query); `baseline` must not alias
/// `result`. Uses ws.fixed, ws.frontier, ws.frontier2, ws.touched,
/// ws.changed, ws.dirty, ws.dist, ws.rhs and ws.seen as scratch, and
/// leaves the changed list (above) in ws.changed.
void compute_routing_seeded_into(const AsGraph& g, const Query& q,
                                 const Deployment& deployment,
                                 EngineWorkspace& ws,
                                 const RoutingOutcome& baseline,
                                 RoutingOutcome& result);

/// Twin-lane seeded delta: computes the security-3rd attacked outcome of
/// `q` into `result` (seeded from `baseline`, as compute_routing_seeded_into)
/// and, in the same traversal, the S = emptyset attacked outcome
/// {q.destination, q.attacker, kInsecure} into `insecure_result`, seeded
/// from `insecure_baseline` — the outcome of {q.destination, kNoAs,
/// kInsecure} under the empty deployment. Throws std::invalid_argument if
/// q.model is not kSecurityThird, the query is malformed, a baseline's size
/// does not match the graph, or the baselines disagree on the route type or
/// length of some AS (an O(n) check; the message names the first such AS).
/// No baseline may alias a result, nor the results each other. Uses the
/// same scratch as compute_routing_seeded_into; ws.changed then lists the
/// ASes whose word differs in either lane.
void compute_routing_seeded_twin_into(const AsGraph& g, const Query& q,
                                      const Deployment& deployment,
                                      EngineWorkspace& ws,
                                      const RoutingOutcome& baseline,
                                      const RoutingOutcome& insecure_baseline,
                                      RoutingOutcome& result,
                                      RoutingOutcome& insecure_result);

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_ENGINE_H
