// node2vec (§2.2, Eq. 2): the paper's running example of a biased,
// second-order dynamic walk.
//
// For a walker that reached v from t, the dynamic component of edge (v, x):
//     Pd = 1/p  if x == t            (return edge)
//     Pd = 1    if x adjacent to t   (distance 1)
//     Pd = 1/q  otherwise            (distance 2)
//
// The adjacency check is the walker-to-vertex state query: the engine routes
// it to the node owning t. Two optimizations from §4.2 are both expressible:
//
//   * lower bound L = min(1/p, 1, 1/q) pre-accepts darts under every bar;
//   * when 1/p alone exceeds max(1, 1/q), the single return edge is folded
//     as an outlier so the envelope stays at max(1, 1/q).
#ifndef SRC_APPS_NODE2VEC_H_
#define SRC_APPS_NODE2VEC_H_

#include <algorithm>
#include <memory>
#include <optional>

#include "src/engine/transition.h"
#include "src/engine/walker.h"
#include "src/graph/csr.h"
#include "src/graph/neighbor_index.h"
#include "src/util/check.h"
#include "src/util/types.h"

namespace knightking {

struct Node2VecParams {
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
  step_t walk_length = 80;
  bool use_lower_bound = true;   // Table 5's "L" optimization
  bool use_outlier = true;       // Table 5's "O" optimization
  // Answer adjacency queries from a hashed NeighborIndex (O(1)) instead of
  // binary-searching the CSR row. Same answers either way;
  // costs ~16 bytes/edge, built once when the spec is created.
  bool use_neighbor_index = true;
};

// Builds the node2vec transition spec. `graph` must outlive the spec (the
// outlier-locating closure searches its adjacency lists); pass
// engine.graph().
template <typename EdgeData>
TransitionSpec<EdgeData> Node2VecTransition(const Csr<EdgeData>& graph,
                                            const Node2VecParams& params) {
  KK_CHECK(params.p > 0.0 && params.q > 0.0);
  const real_t inv_p = static_cast<real_t>(1.0 / params.p);
  const real_t inv_q = static_cast<real_t>(1.0 / params.q);
  const real_t max_all = std::max({inv_p, 1.0f, inv_q});
  const real_t min_all = std::min({inv_p, 1.0f, inv_q});
  // The return edge is a foldable outlier iff 1/p strictly dominates: then
  // exactly one edge per vertex (the one back to t) is taller than the rest.
  const bool fold_return_edge = params.use_outlier && inv_p > std::max(1.0f, inv_q);
  const real_t envelope = fold_return_edge ? std::max(1.0f, inv_q) : max_all;

  TransitionSpec<EdgeData> spec;

  spec.dynamic_comp = [inv_p, inv_q, envelope](const Walker<>& w, vertex_id_t /*cur*/,
                                               const AdjUnit<EdgeData>& e,
                                               const std::optional<uint8_t>& query_result) {
    if (w.step == 0) {
      // First hop is purely Ps-proportional: a constant Pd at the envelope
      // accepts every dart.
      return envelope;
    }
    if (e.neighbor == w.prev) {
      return inv_p;
    }
    KK_CHECK(query_result.has_value());  // engine supplies the adjacency bit
    return *query_result != 0 ? 1.0f : inv_q;
  };

  spec.dynamic_upper_bound = [envelope](vertex_id_t, vertex_id_t) { return envelope; };

  if (params.use_lower_bound) {
    spec.dynamic_lower_bound = [min_all](vertex_id_t, vertex_id_t) { return min_all; };
  }

  spec.post_query = [](const Walker<>& w, vertex_id_t /*cur*/,
                       const AdjUnit<EdgeData>& e) -> std::optional<vertex_id_t> {
    if (w.step == 0 || e.neighbor == w.prev) {
      return std::nullopt;  // locally decidable
    }
    return w.prev;  // ask t's owner whether e.dst is t's neighbor
  };

  if (params.use_neighbor_index) {
    // The index captures the adjacency of `graph` at spec-creation time; like
    // the outlier closure below, the spec answers about that graph no matter
    // which Csr reference the engine threads through.
    auto index = std::make_shared<NeighborIndex>(NeighborIndex::Build(graph));
    spec.respond_query = [index](const Csr<EdgeData>&, vertex_id_t target,
                                 vertex_id_t subject) {
      return static_cast<uint8_t>(index->Contains(target, subject) ? 1 : 0);
    };
  } else {
    spec.respond_query = [](const Csr<EdgeData>& g, vertex_id_t target, vertex_id_t subject) {
      return static_cast<uint8_t>(g.HasNeighbor(target, subject) ? 1 : 0);
    };
  }

  if (fold_return_edge) {
    spec.outlier_bound = [inv_p](const Walker<>& w, vertex_id_t) {
      return w.step == 0 ? OutlierBound{0.0f, 0} : OutlierBound{inv_p, 1};
    };
    spec.outlier_locate = [&graph](const Walker<>& w, vertex_id_t v,
                                   uint32_t /*idx*/) -> std::optional<vertex_id_t> {
      return graph.FindNeighbor(v, w.prev);
    };
  }

  return spec;
}

inline WalkerSpec<> Node2VecWalkers(walker_id_t num_walkers, const Node2VecParams& params) {
  WalkerSpec<> spec;
  spec.num_walkers = num_walkers;
  spec.max_steps = params.walk_length;
  return spec;
}

}  // namespace knightking

#endif  // SRC_APPS_NODE2VEC_H_
