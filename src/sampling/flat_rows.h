// In-place relayout of per-edge sampler arrays (FlatAliasTables,
// FlatItsTables) when a merge moves rows to new CSR offsets: the rows a
// merge kept move, and the caller rebuilds the rest.
#ifndef SRC_SAMPLING_FLAT_ROWS_H_
#define SRC_SAMPLING_FLAT_ROWS_H_

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "src/util/types.h"

namespace knightking {

namespace flat_internal {

// Moves every row v for which `reuse_row(v)` holds from its slice of `data`
// under `old_offsets` to its slice under `new_offsets`, and sizes `data` to
// the new layout. Both layouts list the same vertices in the same order, and
// a reused row has the same length in both. Other rows' new slices hold
// stale bytes for the caller to rebuild.
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

}  // namespace flat_internal

}  // namespace knightking

#endif  // SRC_SAMPLING_FLAT_ROWS_H_
