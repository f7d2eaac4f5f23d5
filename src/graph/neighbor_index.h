// O(1) neighbor-existence index over a CSR graph.
//
// Second-order walks answer millions of "is dst a neighbor of src?" queries
// (node2vec's distance test, §2.2); the CSR binary search pays O(log d) cache
// misses per query and dominated the respond phase in profiles. This index
// trades one flat open-addressing table — ~16 bytes per edge — for a one- or
// two-probe lookup.
//
// Layout: power-of-two slot array of 64-bit keys, key = (src << 32) | dst,
// stored as key + 1 so 0 means empty (the all-ones key is kInvalidVertex
// twice and never inserted). Linear probing at load factor <= 0.5 keeps
// probe chains short and sequential. A per-vertex-region layout (half the
// memory) was tried and lost: every lookup pays a dependent offsets load
// first, and the respond phase slowed measurably.
#ifndef SRC_GRAPH_NEIGHBOR_INDEX_H_
#define SRC_GRAPH_NEIGHBOR_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"
#include "src/util/rng.h"
#include "src/util/types.h"

namespace knightking {

class NeighborIndex {
 public:
  NeighborIndex() = default;

  template <typename EdgeData>
  static NeighborIndex Build(const Csr<EdgeData>& graph) {
    NeighborIndex index;
    uint64_t want = 16;
    while (want < 2 * graph.num_edges() + 1) {
      want *= 2;
    }
    index.slots_.assign(want, 0);
    index.mask_ = want - 1;
    for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
      for (const auto& e : graph.Neighbors(v)) {
        index.Insert(Key(v, e.neighbor));
      }
    }
    return index;
  }

  bool Contains(vertex_id_t v, vertex_id_t dst) const {
    const uint64_t key = Key(v, dst);
    uint64_t slot = Mix64(key) & mask_;
    for (;;) {
      const uint64_t stored = slots_[slot];
      if (stored == key + 1) {
        return true;
      }
      if (stored == 0) {
        return false;
      }
      slot = (slot + 1) & mask_;
    }
  }

  uint64_t MemoryBytes() const { return slots_.size() * sizeof(uint64_t); }

 private:
  static uint64_t Key(vertex_id_t v, vertex_id_t dst) {
    return (static_cast<uint64_t>(v) << 32) | dst;
  }

  void Insert(uint64_t key) {
    uint64_t slot = Mix64(key) & mask_;
    for (;;) {
      const uint64_t stored = slots_[slot];
      if (stored == key + 1) {
        return;  // parallel edge: already present
      }
      if (stored == 0) {
        slots_[slot] = key + 1;
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }

  std::vector<uint64_t> slots_;
  uint64_t mask_ = 0;
};

}  // namespace knightking

#endif  // SRC_GRAPH_NEIGHBOR_INDEX_H_
