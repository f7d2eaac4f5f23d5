// The unified transition-probability programming model (§2.2, §5.2).
//
// Users describe a random walk algorithm by filling a TransitionSpec and a
// WalkerSpec. The transition probability of edge e for walker w at vertex v
// is P(e) = Ps(e) * Pd(e, v, w) * Pe(v, w):
//
//   * Ps  — static_comp (precomputable; defaults to edge weight, or 1)
//   * Pd  — dynamic_comp plus its upper bound Q(v) (mandatory when dynamic),
//           optional lower bound L(v) for pre-acceptance, and optional
//           outlier declaration for folding tall Pd bars (§4.2)
//   * Pe  — termination in WalkerSpec (fixed length and/or stop probability)
//
// Second-order algorithms additionally provide post_query / respond_query:
// the engine routes each query to the node owning the target vertex and
// feeds the answer back into dynamic_comp (§5.1's two message rounds).
#ifndef SRC_ENGINE_TRANSITION_H_
#define SRC_ENGINE_TRANSITION_H_

#include <functional>
#include <optional>

#include "src/graph/csr.h"
#include "src/graph/edge.h"
#include "src/engine/walker.h"
#include "src/util/types.h"

namespace knightking {

// Outlier declaration: up to `count` edges at v may have Pd as high as
// `height` (> Q(v)). The engine folds them into appendix blocks next to the
// main dartboard (Figure 3b).
struct OutlierBound {
  real_t height = 0.0f;
  uint32_t count = 0;
};

template <typename EdgeData, typename WalkerState = EmptyWalkerState,
          typename QueryResponse = uint8_t>
struct TransitionSpec {
  using WalkerT = Walker<WalkerState>;
  using AdjT = AdjUnit<EdgeData>;

  // --- Ps -------------------------------------------------------------
  // Unnormalized static component. nullptr => edge weight (1 if unweighted).
  std::function<real_t(vertex_id_t src, const AdjT& edge)> static_comp;

  // --- Pd -------------------------------------------------------------
  // Unnormalized dynamic component for one candidate edge. `query_result`
  // is engaged iff post_query returned a target for this trial (second
  // order); first-order algorithms ignore it. nullptr => static walk.
  std::function<real_t(const WalkerT& walker, vertex_id_t cur, const AdjT& edge,
                       const std::optional<QueryResponse>& query_result)>
      dynamic_comp;

  // Q(v) >= max_e Pd(e, v, w): envelope height. Mandatory when dynamic_comp
  // is set. Must not depend on walker history beyond what is valid for every
  // walker at v (the engine evaluates it per vertex at init).
  std::function<real_t(vertex_id_t v, vertex_id_t degree)> dynamic_upper_bound;

  // L(v) <= min_e Pd(e, v, w): optional pre-acceptance bound; darts at or
  // below it accept without computing Pd (Figure 3c).
  std::function<real_t(vertex_id_t v, vertex_id_t degree)> dynamic_lower_bound;

  // --- Second-order state queries --------------------------------------
  // For a candidate edge, return the vertex whose owner must be consulted to
  // evaluate Pd, or nullopt when Pd is locally decidable for this trial.
  std::function<std::optional<vertex_id_t>(const WalkerT& walker, vertex_id_t cur,
                                           const AdjT& edge)>
      post_query;

  // Runs on the node owning `target`; answers one query. `subject` is the
  // candidate edge's destination. Defaults (when second order) to a
  // neighbor-existence check, the utility the paper calls postNeighborQuery.
  std::function<QueryResponse(const Csr<EdgeData>& graph, vertex_id_t target,
                              vertex_id_t subject)>
      respond_query;

  // --- Walker state maintenance -----------------------------------------
  // Invoked after every traversal (walker already moved across `edge` from
  // `from`), before termination is evaluated. Use it to update custom
  // walker state (path aggregates, per-walker counters). The engine itself
  // maintains cur / prev / step.
  std::function<void(WalkerT& walker, vertex_id_t from, const AdjT& edge)> on_move;

  // --- Outlier folding (optional, §4.2) ---------------------------------
  // Declare how many candidate edges may exceed Q(v) and by how much.
  std::function<OutlierBound(const WalkerT& walker, vertex_id_t v)> outlier_bound;

  // Locate the idx-th outlier edge (local index into Neighbors(v)), or
  // nullopt if it does not exist. Its Pd must be locally decidable.
  std::function<std::optional<vertex_id_t>(const WalkerT& walker, vertex_id_t v, uint32_t idx)>
      outlier_locate;

  bool IsDynamic() const { return static_cast<bool>(dynamic_comp); }
  bool IsSecondOrder() const { return static_cast<bool>(post_query); }
};

// Walker deployment and termination (Pe).
template <typename WalkerState = EmptyWalkerState>
struct WalkerSpec {
  using WalkerT = Walker<WalkerState>;

  walker_id_t num_walkers = 0;

  // Start vertex of walker i. nullptr => paper default: (i mod |V|).
  std::function<vertex_id_t(walker_id_t id, Rng& rng)> start_vertex;

  // RNG stream id of walker i. nullptr => paper default: stream i. Overriding
  // this makes a walker's randomness a pure function of caller-chosen content
  // (the serving layer keys streams on query content so a response never
  // depends on which other queries shared its batch). Must return a value
  // below kDeployStream; distinct walkers may intentionally share a stream
  // (two identical queries must produce identical walks).
  std::function<uint64_t(walker_id_t id)> rng_stream;

  // Custom state initialization (e.g. Meta-path scheme assignment).
  std::function<void(WalkerT& walker)> init_state;

  // Walk ends after this many steps. 0 = no step limit.
  step_t max_steps = 80;

  // Per-step termination probability (PPR). 0 = never.
  double terminate_prob = 0.0;

  // Custom exception criteria (§2.1's third termination strategy):
  // evaluated at every arrival (including deployment); returning true ends
  // the walk there. Composes with the two conditions above.
  std::function<bool(const WalkerT& walker)> terminate_if;
};

}  // namespace knightking

#endif  // SRC_ENGINE_TRANSITION_H_
