#include "src/sampling/alias_table.h"

#include <algorithm>

#include "src/util/thread_pool.h"

namespace knightking {

namespace alias_internal {

double BuildAliasRow(std::span<const real_t> weights, std::span<real_t> prob,
                     std::span<uint32_t> alias) {
  size_t n = weights.size();
  KK_CHECK(prob.size() == n && alias.size() == n);
  double total = 0.0;
  for (real_t w : weights) {
    KK_CHECK(w >= 0.0f);
    total += static_cast<double>(w);
  }
  if (n == 0) {
    return 0.0;
  }
  if (total <= 0.0) {
    // Degenerate: mark every bucket as "always itself" so sampling (which
    // callers must avoid) at least stays in range.
    for (size_t i = 0; i < n; ++i) {
      prob[i] = 1.0f;
      alias[i] = static_cast<uint32_t>(i);
    }
    return 0.0;
  }

  // Scale to mean 1 and split into small/large work lists (Vose).
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = static_cast<double>(weights[i]) * static_cast<double>(n) / total;
  }
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<uint32_t>(i));
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    // Intentional: construction math stays in double (`scaled`); this is the
    // storage boundary where bucket probabilities land in the real_t table.
    // kk-lint: narrow-ok
    prob[s] = static_cast<real_t>(scaled[s]);
    alias[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Remaining entries are (numerically) exactly 1.
  for (uint32_t l : large) {
    prob[l] = 1.0f;
    alias[l] = l;
  }
  for (uint32_t s : small) {
    prob[s] = 1.0f;
    alias[s] = s;
  }
  return total;
}

}  // namespace alias_internal

void FlatAliasTables::Build(std::span<const edge_index_t> offsets,
                            std::span<const real_t> weights, ThreadPool* pool) {
  KK_CHECK(!offsets.empty());
  size_t num_vertices = offsets.size() - 1;
  KK_CHECK(offsets.back() == weights.size());
  offsets_.assign(offsets.begin(), offsets.end());
  prob_.resize(weights.size());
  alias_.resize(weights.size());
  totals_.resize(num_vertices);
  max_weight_.resize(num_vertices);
  // Each vertex row writes a disjoint slice of prob_/alias_/totals_, so rows
  // build embarrassingly parallel over vertex chunks.
  auto build_rows = [&](size_t row_begin, size_t row_end) {
    for (size_t v = row_begin; v < row_end; ++v) {
      edge_index_t begin = offsets[v];
      edge_index_t end = offsets[v + 1];
      size_t deg = static_cast<size_t>(end - begin);
      std::span<const real_t> w(weights.data() + begin, deg);
      std::span<real_t> p(prob_.data() + begin, deg);
      std::span<uint32_t> a(alias_.data() + begin, deg);
      totals_[v] = alias_internal::BuildAliasRow(w, p, a);
      real_t max_w = 0.0f;
      for (real_t x : w) {
        max_w = std::max(max_w, x);
      }
      max_weight_[v] = max_w;
    }
  };
  ParallelFill(pool, num_vertices, build_rows);
}

}  // namespace knightking
