#include "src/sampling/alias_table.h"

namespace knightking {

namespace alias_internal {

double BuildAliasRow(std::span<const real_t> weights, std::span<real_t> prob,
                     std::span<uint32_t> alias, AliasScratch& scratch) {
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
  std::vector<double>& scaled = scratch.scaled;
  std::vector<uint32_t>& small = scratch.small;
  std::vector<uint32_t>& large = scratch.large;
  scaled.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = static_cast<double>(weights[i]) * static_cast<double>(n) / total;
  }
  small.clear();
  large.clear();
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

}  // namespace knightking
