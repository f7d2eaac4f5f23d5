// Inverse transform sampling over a CDF array (§3, Fig. 1a).
//
// O(n) build (prefix sums), O(log n) sampling via binary search. KnightKing's
// engine defaults to alias tables for Ps, but ITS is what the Gemini-adapted
// baseline rebuilds at every step of a dynamic walk — its build cost *is* the
// full-scan overhead the paper measures — and the engine also offers it as an
// alternative static sampler.
#ifndef SRC_SAMPLING_ITS_H_
#define SRC_SAMPLING_ITS_H_

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "src/sampling/flat_rows.h"
#include "src/util/check.h"
#include "src/util/prefetch.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace knightking {

// Standalone CDF sampler over one weight vector.
class InverseTransformSampler {
 public:
  InverseTransformSampler() = default;

  explicit InverseTransformSampler(std::span<const real_t> weights) { Build(weights); }

  void Build(std::span<const real_t> weights) {
    cdf_.resize(weights.size());
    double sum = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      KK_CHECK(weights[i] >= 0.0f);
      sum += static_cast<double>(weights[i]);
      cdf_[i] = sum;
    }
    total_weight_ = sum;
  }

  size_t size() const { return cdf_.size(); }
  double total_weight() const { return total_weight_; }

  // Samples index i with probability weights[i] / total_weight in O(log n).
  size_t Sample(Rng& rng) const {
    // Hard check (alias-table contract): an all-zero distribution must never
    // be sampled from. With KK_DCHECK this was release-mode UB — NextDouble(0)
    // returns 0 and upper_bound over an all-zero CDF returns end(), so the
    // fallback handed back a probability-zero index.
    KK_CHECK(total_weight_ > 0);
    double r = rng.NextDouble(total_weight_);
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
    if (it == cdf_.end()) {
      // Measure-zero r == total case under rounding: step back past any
      // trailing zero-weight entries (their cdf equals the predecessor's) so
      // the fallback never returns a probability-zero index.
      --it;
      while (it != cdf_.begin() && *it == *(it - 1)) {
        --it;
      }
    }
    return static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  double total_weight_ = 0.0;
};

// Per-vertex CDF arrays packed flat against a CSR layout; the ITS counterpart
// of FlatAliasTables.
class FlatItsTables {
 public:
  FlatItsTables() = default;

  // Builds one CDF row per row of `offsets` (CSR offsets, size V+1), with
  // the row_weights / reuse_row contract of FlatAliasTables::Build: a reused
  // row keeps its current prefix sums, moved to its new offset. Rows are
  // independent; a non-null `pool` builds them in parallel over vertex
  // chunks.
  template <typename RowWeights>
  void Build(std::span<const edge_index_t> offsets, const RowWeights& row_weights,
             ThreadPool* pool = nullptr,
             const std::function<bool(vertex_id_t)>& reuse_row = nullptr) {
    KK_CHECK(!offsets.empty());
    const size_t num_vertices = offsets.size() - 1;
    if (reuse_row) {
      KK_CHECK(offsets_.size() == offsets.size());
      flat_internal::RelocateRows(cdf_, offsets_, offsets, reuse_row);
    } else {
      cdf_.resize(offsets.back());
      totals_.resize(num_vertices);
      max_weight_.resize(num_vertices);
    }
    offsets_.assign(offsets.begin(), offsets.end());
    auto build_rows = [&](size_t row_begin, size_t row_end) {
      std::vector<real_t> weights;
      for (size_t v = row_begin; v < row_end; ++v) {
        const auto vid = static_cast<vertex_id_t>(v);
        if (reuse_row && reuse_row(vid)) {
          continue;
        }
        const edge_index_t begin = offsets[v];
        weights.resize(static_cast<size_t>(offsets[v + 1] - begin));
        row_weights(vid, std::span<real_t>(weights));
        double sum = 0.0;
        real_t max_w = 0.0f;
        for (size_t i = 0; i < weights.size(); ++i) {
          sum += static_cast<double>(weights[i]);
          max_w = std::max(max_w, weights[i]);
          cdf_[begin + i] = sum;
        }
        totals_[v] = sum;
        max_weight_[v] = max_w;
      }
    };
    ParallelFill(pool, num_vertices, build_rows);
  }

  vertex_id_t Sample(vertex_id_t v, Rng& rng) const {
    edge_index_t begin = offsets_[v];
    edge_index_t end = offsets_[v + 1];
    // Hard check, matching the alias-table contract: a zero-total row must
    // never be sampled (callers guard on TotalWeight(v) first). As a
    // KK_DCHECK this was release-mode UB on zero-total rows.
    KK_CHECK(end > begin && totals_[v] > 0);
    double r = rng.NextDouble(totals_[v]);
    const double* first = cdf_.data() + begin;
    const double* last = cdf_.data() + end;
    const double* it = std::upper_bound(first, last, r);
    if (it == last) {
      // r == total under rounding: step back past trailing zero-weight
      // entries so the fallback cannot return a probability-zero edge.
      --it;
      while (it != first && *it == *(it - 1)) {
        --it;
      }
    }
    return static_cast<vertex_id_t>(it - first);
  }

  double TotalWeight(vertex_id_t v) const { return totals_[v]; }
  real_t MaxWeight(vertex_id_t v) const { return max_weight_[v]; }
  bool empty() const { return cdf_.empty() && totals_.empty(); }

  // Table footprint in bytes (metrics snapshot; stable for a given graph).
  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(edge_index_t) + cdf_.size() * sizeof(double) +
           totals_.size() * sizeof(double) + max_weight_.size() * sizeof(real_t);
  }

  // Hints v's CDF row into cache (engine locality pass).
  void Prefetch(vertex_id_t v) const {
    KK_PREFETCH(cdf_.data() + offsets_[v]);
    KK_PREFETCH(totals_.data() + v);
  }

 private:
  std::vector<edge_index_t> offsets_;
  std::vector<double> cdf_;
  std::vector<double> totals_;
  std::vector<real_t> max_weight_;
};

}  // namespace knightking

#endif  // SRC_SAMPLING_ITS_H_
