// Alias method for O(1) sampling from a discrete distribution (§3, Fig. 1b).
//
// KnightKing uses alias tables for the static transition component Ps: built
// once per vertex in O(degree), each trial then samples a candidate edge in
// O(1). This file provides both a standalone AliasTable (tests, small uses)
// and FlatAliasTables, which packs one table per vertex into flat arrays
// aligned with a CSR's adjacency layout.
#ifndef SRC_SAMPLING_ALIAS_TABLE_H_
#define SRC_SAMPLING_ALIAS_TABLE_H_

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "src/util/check.h"
#include "src/util/prefetch.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace knightking {

namespace alias_internal {

// Vose's work lists, owned by the caller and reused across rows so a row
// build allocates nothing once the lists have grown to the largest row.
struct AliasScratch {
  std::vector<double> scaled;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
};

// Vose's alias construction over weights[0..n) writing into prob/alias[0..n).
// Returns the total weight. Zero-weight entries are valid (never sampled); an
// all-zero distribution returns total 0 and must not be sampled from. The
// output is a pure function of `weights`, whatever `scratch` held before.
double BuildAliasRow(std::span<const real_t> weights, std::span<real_t> prob,
                     std::span<uint32_t> alias, AliasScratch& scratch);

// One alias draw over a row of size n.
inline size_t SampleAliasRow(std::span<const real_t> prob, std::span<const uint32_t> alias,
                             Rng& rng) {
  size_t n = prob.size();
  KK_DCHECK(n > 0);
  size_t bucket = static_cast<size_t>(rng.NextUInt64(n));
  return rng.NextFloat() < prob[bucket] ? bucket : alias[bucket];
}

// Moves every row v for which `reuse_row(v)` holds from its slice of `data`
// under `old_offsets` to its slice under `new_offsets`, and sizes `data` to
// the new layout: the in-place relayout of FlatAliasTables' per-edge arrays
// when a merge moves rows to new CSR offsets. Both layouts list the same
// vertices in the same order, and a reused row has the same length in both.
// Other rows' new slices hold stale bytes for the caller to rebuild.
template <typename T>
void RelocateRows(std::vector<T>& data, std::span<const edge_index_t> old_offsets,
                  std::span<const edge_index_t> new_offsets,
                  const std::function<bool(vertex_id_t)>& reuse_row) {
  const size_t num_rows = new_offsets.size() - 1;
  data.resize(std::max<size_t>(data.size(), new_offsets.back()));
  // Both layouts keep row order and a reused row keeps its length, so a row
  // moving left writes below its old end and above the old end of every
  // earlier reused row that moves right. Visited left to right, it lands on
  // no reused row that has yet to move; rows moving right, visited right to
  // left, mirror this.
  T* const base = data.data();
  for (size_t v = 0; v < num_rows; ++v) {
    if (new_offsets[v] < old_offsets[v] && reuse_row(static_cast<vertex_id_t>(v))) {
      std::copy(base + old_offsets[v], base + old_offsets[v + 1], base + new_offsets[v]);
    }
  }
  for (size_t v = num_rows; v-- > 0;) {
    if (new_offsets[v] > old_offsets[v] && reuse_row(static_cast<vertex_id_t>(v))) {
      const edge_index_t len = old_offsets[v + 1] - old_offsets[v];
      std::copy_backward(base + old_offsets[v], base + old_offsets[v + 1],
                         base + new_offsets[v] + len);
    }
  }
  data.resize(new_offsets.back());
}

}  // namespace alias_internal

// Standalone alias table over one weight vector.
class AliasTable {
 public:
  AliasTable() = default;

  explicit AliasTable(std::span<const real_t> weights) { Build(weights); }

  void Build(std::span<const real_t> weights) {
    prob_.resize(weights.size());
    alias_.resize(weights.size());
    alias_internal::AliasScratch scratch;
    total_weight_ = alias_internal::BuildAliasRow(weights, prob_, alias_, scratch);
  }

  size_t size() const { return prob_.size(); }
  double total_weight() const { return total_weight_; }

  // Samples index i with probability weights[i] / total_weight in O(1).
  size_t Sample(Rng& rng) const {
    KK_DCHECK(total_weight_ > 0);
    return alias_internal::SampleAliasRow(prob_, alias_, rng);
  }

 private:
  std::vector<real_t> prob_;
  std::vector<uint32_t> alias_;
  double total_weight_ = 0.0;
};

// Per-vertex alias tables packed into flat arrays parallel to a CSR
// adjacency array. Memory: 8 bytes per edge plus 12 bytes per vertex.
class FlatAliasTables {
 public:
  FlatAliasTables() = default;

  // Builds one table per row of `offsets` (CSR offsets, size V+1).
  // `row_weights(v, out)` writes row v's static weights, in adjacency order,
  // into `out` (v's degree long). A row for which `reuse_row(v)` holds keeps
  // its current table instead, moved to its new offset; the current tables
  // must hold a row v of the same weights (a merge's clean rows), and as
  // BuildAliasRow is a pure function of a row's weights, the kept table
  // equals a rebuilt one byte for byte. Rows are independent, so a non-null
  // `pool` builds them in parallel over vertex chunks.
  template <typename RowWeights>
  void Build(std::span<const edge_index_t> offsets, const RowWeights& row_weights,
             ThreadPool* pool = nullptr,
             const std::function<bool(vertex_id_t)>& reuse_row = nullptr) {
    KK_CHECK(!offsets.empty());
    const size_t num_vertices = offsets.size() - 1;
    if (reuse_row) {
      KK_CHECK(offsets_.size() == offsets.size());
      alias_internal::RelocateRows(prob_, offsets_, offsets, reuse_row);
      alias_internal::RelocateRows(alias_, offsets_, offsets, reuse_row);
    } else {
      prob_.resize(offsets.back());
      alias_.resize(offsets.back());
      totals_.resize(num_vertices);
      max_weight_.resize(num_vertices);
    }
    offsets_.assign(offsets.begin(), offsets.end());
    auto build_rows = [&](size_t row_begin, size_t row_end) {
      std::vector<real_t> weights;
      alias_internal::AliasScratch scratch;
      for (size_t v = row_begin; v < row_end; ++v) {
        const auto vid = static_cast<vertex_id_t>(v);
        if (reuse_row && reuse_row(vid)) {
          continue;
        }
        const edge_index_t begin = offsets[v];
        const auto deg = static_cast<size_t>(offsets[v + 1] - begin);
        weights.resize(deg);
        row_weights(vid, std::span<real_t>(weights));
        totals_[v] = alias_internal::BuildAliasRow(
            weights, {prob_.data() + begin, deg}, {alias_.data() + begin, deg}, scratch);
        real_t max_w = 0.0f;
        for (real_t x : weights) {
          max_w = std::max(max_w, x);
        }
        max_weight_[v] = max_w;
      }
    };
    ParallelFill(pool, num_vertices, build_rows);
  }

  // Samples a local edge index (offset within v's adjacency).
  vertex_id_t Sample(vertex_id_t v, Rng& rng) const {
    edge_index_t begin = offsets_[v];
    edge_index_t end = offsets_[v + 1];
    KK_DCHECK(end > begin);
    std::span<const real_t> prob(prob_.data() + begin, end - begin);
    std::span<const uint32_t> alias(alias_.data() + begin, end - begin);
    return static_cast<vertex_id_t>(alias_internal::SampleAliasRow(prob, alias, rng));
  }

  // Sum of static weights at v (the denominator of Eq. 3's effective area).
  double TotalWeight(vertex_id_t v) const { return totals_[v]; }

  // Maximum single static weight at v: used as the appendix width bound for
  // outlier folding with biased walks.
  real_t MaxWeight(vertex_id_t v) const { return max_weight_[v]; }

  bool empty() const { return prob_.empty(); }

  // Table footprint in bytes (metrics snapshot; a pure function of the
  // graph, so it is a stable metric).
  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(edge_index_t) + prob_.size() * sizeof(real_t) +
           alias_.size() * sizeof(uint32_t) + totals_.size() * sizeof(double) +
           max_weight_.size() * sizeof(real_t);
  }

  // Hints v's alias row into cache (engine locality pass).
  void Prefetch(vertex_id_t v) const {
    edge_index_t begin = offsets_[v];
    KK_PREFETCH(prob_.data() + begin);
    KK_PREFETCH(alias_.data() + begin);
    KK_PREFETCH(totals_.data() + v);
  }

 private:
  std::vector<edge_index_t> offsets_;
  std::vector<real_t> prob_;
  std::vector<uint32_t> alias_;
  std::vector<double> totals_;
  std::vector<real_t> max_weight_;
};

}  // namespace knightking

#endif  // SRC_SAMPLING_ALIAS_TABLE_H_
