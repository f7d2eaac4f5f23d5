// Compressed sparse row adjacency storage (§6.1 of the paper).
//
// All outgoing edges of a vertex are stored contiguously and sorted by
// neighbor id, which gives walkers O(1) access to any out-edge (needed for
// local rejection-sampling trials) and O(log degree) neighbor-existence
// queries (needed for node2vec's distance checks).
#ifndef SRC_GRAPH_CSR_H_
#define SRC_GRAPH_CSR_H_

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/edge.h"
#include "src/graph/edge_list.h"
#include "src/util/check.h"
#include "src/util/prefetch.h"
#include "src/util/stats.h"
#include "src/util/types.h"

namespace knightking {

template <typename EdgeData>
class Csr {
 public:
  Csr() : offsets_(1, 0) {}

  // Builds CSR via counting sort over the edge list (O(V + E)); adjacency
  // lists are then sorted by neighbor id.
  static Csr FromEdgeList(const EdgeList<EdgeData>& list) {
    Csr csr;
    vertex_id_t n = list.num_vertices;
    csr.offsets_.assign(static_cast<size_t>(n) + 1, 0);
    for (const auto& e : list.edges) {
      KK_CHECK(e.src < n && e.dst < n);
      ++csr.offsets_[e.src + 1];
    }
    for (size_t v = 0; v < n; ++v) {
      csr.offsets_[v + 1] += csr.offsets_[v];
    }
    csr.adj_.resize(list.edges.size());
    std::vector<edge_index_t> cursor(csr.offsets_.begin(), csr.offsets_.end() - 1);
    for (const auto& e : list.edges) {
      csr.adj_[cursor[e.src]++] = AdjUnit<EdgeData>{e.dst, e.data};
    }
    for (vertex_id_t v = 0; v < n; ++v) {
      auto span = csr.MutableNeighbors(v);
      std::sort(span.begin(), span.end(),
                [](const AdjUnit<EdgeData>& a, const AdjUnit<EdgeData>& b) {
                  return a.neighbor < b.neighbor;
                });
    }
    return csr;
  }

  // Adopts pre-built offsets + adjacency verbatim (no per-row sort). For
  // builders that already produce rows in the CSR invariant — e.g. the
  // parallel overlay merge, which copies clean rows and sorts only dirty
  // ones. The caller owns the neighbor-sorted contract; shape is validated.
  static Csr FromParts(std::vector<edge_index_t> offsets, std::vector<AdjUnit<EdgeData>> adj) {
    KK_CHECK_MSG(!offsets.empty() && offsets.front() == 0 &&
                     offsets.back() == static_cast<edge_index_t>(adj.size()),
                 "CSR parts disagree: %zu offsets, %zu adjacency entries", offsets.size(),
                 adj.size());
    Csr csr;
    csr.offsets_ = std::move(offsets);
    csr.adj_ = std::move(adj);
    return csr;
  }

  vertex_id_t num_vertices() const { return static_cast<vertex_id_t>(offsets_.size() - 1); }
  edge_index_t num_edges() const { return static_cast<edge_index_t>(adj_.size()); }

  vertex_id_t OutDegree(vertex_id_t v) const {
    KK_DCHECK(v < num_vertices());
    return static_cast<vertex_id_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Global index of vertex v's first out-edge in the adjacency array.
  edge_index_t EdgeBegin(vertex_id_t v) const { return offsets_[v]; }

  // Every row's EdgeBegin, plus num_edges() at the end (size V+1).
  std::span<const edge_index_t> offsets() const { return offsets_; }

  std::span<const AdjUnit<EdgeData>> Neighbors(vertex_id_t v) const {
    KK_DCHECK(v < num_vertices());
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  std::span<AdjUnit<EdgeData>> MutableNeighbors(vertex_id_t v) {
    KK_DCHECK(v < num_vertices());
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  // Hints the start of v's adjacency span into cache (engine locality pass:
  // issued one walker ahead of use while processing a sorted batch).
  void PrefetchNeighbors(vertex_id_t v) const {
    KK_DCHECK(v < num_vertices());
    KK_PREFETCH(adj_.data() + offsets_[v]);
  }

  // Binary search for `dst` among v's neighbors; returns the local edge index
  // (offset within Neighbors(v)) of the first match, or nullopt.
  std::optional<vertex_id_t> FindNeighbor(vertex_id_t v, vertex_id_t dst) const {
    auto span = Neighbors(v);
    auto it = std::lower_bound(span.begin(), span.end(), dst,
                               [](const AdjUnit<EdgeData>& a, vertex_id_t d) {
                                 return a.neighbor < d;
                               });
    if (it == span.end() || it->neighbor != dst) {
      return std::nullopt;
    }
    return static_cast<vertex_id_t>(it - span.begin());
  }

  bool HasNeighbor(vertex_id_t v, vertex_id_t dst) const {
    return FindNeighbor(v, dst).has_value();
  }

  // Degree mean / variance / max, as reported in the paper's Table 2.
  RunningStats DegreeStats() const {
    RunningStats stats;
    for (vertex_id_t v = 0; v < num_vertices(); ++v) {
      stats.Add(static_cast<double>(OutDegree(v)));
    }
    return stats;
  }

 private:
  std::vector<edge_index_t> offsets_;  // size num_vertices + 1
  std::vector<AdjUnit<EdgeData>> adj_;
};

}  // namespace knightking

#endif  // SRC_GRAPH_CSR_H_
