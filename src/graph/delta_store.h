// Streaming graph mutations: the edge delta overlay and the mutation log
// (Bingo direction; docs/DYNAMIC_GRAPHS.md, "Why an overlay, not a mutable CSR").
//
// The base CSR stays immutable; mutations (insert / delete / reweight)
// materialize a per-vertex overlay row on first touch and edit it in place.
// Clean vertices keep reading the base CSR span, so a static run pays one
// predictable branch and zero memory. When a row absorbs more than a
// configured number of mutations the whole overlay is merged back into a
// fresh CSR and the overlay resets.
//
// Determinism contract: every mutation flows through a MutationLog batch.
// Batches are epoch-tagged (the superstep at whose boundary they apply),
// their mutations are canonicalized into a seeded total order independent of
// submission order, and each batch carries a content hash chained into a
// prefix hash. Crash recovery replays the applied prefix from the pristine
// base CSR, which reproduces the overlay — including merge points and the
// incremental floating-point weight totals — byte-identically.
#ifndef SRC_GRAPH_DELTA_STORE_H_
#define SRC_GRAPH_DELTA_STORE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/edge.h"
#include "src/graph/edge_list.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace knightking {

enum class MutationOp : uint32_t {
  kInsert = 0,    // add edge src->dst with the given weight
  kDelete = 1,    // remove one src->dst occurrence (no-op if absent)
  kReweight = 2,  // set the weight of one src->dst occurrence
};

// Fixed-size, padding-free record so batches hash and replay byte-stably.
struct EdgeMutation {
  vertex_id_t src = 0;
  vertex_id_t dst = 0;
  real_t weight = 1.0f;  // insert / reweight payload; ignored for delete
  MutationOp op = MutationOp::kInsert;

  friend bool operator==(const EdgeMutation&, const EdgeMutation&) = default;
};
static_assert(sizeof(EdgeMutation) == 16, "EdgeMutation must stay padding-free");

// One epoch's worth of mutations. `id` is a content hash over the canonical
// mutation order, so two logs agree on a batch iff the bytes agree.
struct MutationBatch {
  uint64_t epoch = 0;
  uint64_t id = 0;
  std::vector<EdgeMutation> mutations;
};

namespace delta_internal {

inline uint64_t MutationKey(uint64_t seed, const EdgeMutation& m) {
  uint64_t h = HashCombine64(seed, static_cast<uint64_t>(m.src) << 32 | m.dst);
  uint32_t wbits = 0;
  static_assert(sizeof(wbits) == sizeof(m.weight));
  __builtin_memcpy(&wbits, &m.weight, sizeof(wbits));
  h = HashCombine64(h, static_cast<uint64_t>(wbits) << 32 | static_cast<uint64_t>(m.op));
  return Mix64(h);
}

}  // namespace delta_internal

// Append-only, driver-owned log of mutation batches. The engine consumes it
// through a cursor (batches whose epoch has been reached); the checkpoint
// records (cursor, prefix hash) so recovery can verify it replays the same
// log the crashed run was applying.
class MutationLog {
 public:
  explicit MutationLog(uint64_t seed = 0) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  // Canonicalizes `mutations` into the seeded total order and appends a batch
  // applying at superstep `epoch`. Epochs must be non-decreasing. Returns the
  // batch's content-hash id. Weights must be finite and non-negative (zero is
  // legal: a zero-weight edge exists but is never sampled).
  uint64_t Append(uint64_t epoch, std::vector<EdgeMutation> mutations) {
    KK_CHECK_MSG(batches_.empty() || epoch >= batches_.back().epoch,
                 "mutation batch epoch %llu precedes tail epoch %llu",
                 static_cast<unsigned long long>(epoch),
                 static_cast<unsigned long long>(batches_.back().epoch));
    for (const EdgeMutation& m : mutations) {
      if (m.op != MutationOp::kDelete) {
        KK_CHECK_MSG(std::isfinite(m.weight) && m.weight >= 0.0f,
                     "mutation %u->%u has invalid weight %f", m.src, m.dst,
                     static_cast<double>(m.weight));
      }
    }
    // Seeded canonical order: the applied sequence is a function of batch
    // *content*, not of the (possibly thread-dependent) submission order.
    // stable_sort keeps byte-identical duplicates in submission order, which
    // is indistinguishable — so the result is still canonical.
    std::stable_sort(mutations.begin(), mutations.end(),
                     [this](const EdgeMutation& a, const EdgeMutation& b) {
                       return delta_internal::MutationKey(seed_, a) <
                              delta_internal::MutationKey(seed_, b);
                     });
    uint64_t id = HashCombine64(seed_, epoch);
    for (const EdgeMutation& m : mutations) {
      id = HashCombine64(id, delta_internal::MutationKey(seed_, m));
    }
    id = Mix64(id);
    batches_.push_back(MutationBatch{epoch, id, std::move(mutations)});
    return id;
  }

  size_t num_batches() const { return batches_.size(); }
  const MutationBatch& batch(size_t i) const { return batches_[i]; }

  uint64_t num_mutations() const {
    uint64_t n = 0;
    for (const MutationBatch& b : batches_) n += b.mutations.size();
    return n;
  }

  // Chained hash over the first `count` batch ids. Stored in checkpoints so
  // recovery refuses to replay against a different log.
  uint64_t PrefixHash(size_t count) const {
    KK_CHECK(count <= batches_.size());
    uint64_t h = HashCombine64(seed_, 0x6b6b6d75746c6f67ULL);  // "kkmutlog"
    for (size_t i = 0; i < count; ++i) {
      h = HashCombine64(h, batches_[i].id);
    }
    return Mix64(h);
  }

 private:
  uint64_t seed_;
  std::vector<MutationBatch> batches_;
};

// What DeltaStore::Apply did to a row, reported so the caller (the engine)
// can mirror the exact index movement into its incremental sampler state.
struct RowEdit {
  enum class Kind : uint8_t {
    kNone,      // rejected (delete of an absent edge, reweight on unweighted payload)
    kInsert,    // appended at local_index (== old row size)
    kRemove,    // removed local_index; the old last edge (moved_from) now sits there
    kReweight,  // payload at local_index changed
  };
  Kind kind = Kind::kNone;
  vertex_id_t vertex = kInvalidVertex;
  vertex_id_t local_index = 0;
  vertex_id_t moved_from = 0;  // kRemove: previous index of the edge swapped in
};

// Per-vertex mutable overlay on an immutable base CSR.
//
// Row layout contract: a materialized row starts as a copy of the base row
// (sorted by neighbor). Inserts append; deletes swap-with-last and pop. So a
// dirty row is NOT neighbor-sorted and neighbor lookups fall back to a linear
// scan — acceptable because second-order algorithms (the only binary-search
// consumers) are gated off under mutation. The layout is a deterministic
// function of the applied mutation sequence, which recovery replays exactly.
template <typename EdgeData>
class DeltaStore {
 public:
  struct Stats {
    uint64_t inserted = 0;
    uint64_t removed = 0;
    uint64_t reweighted = 0;
    uint64_t rejected = 0;  // delete of absent edge / reweight without weight field
    uint64_t rows_materialized = 0;
  };

  DeltaStore() = default;

  // Points the overlay at `base` and drops all overlay state. `base` must
  // outlive the store. Also the replay entry point: recovery Resets to the
  // pristine CSR and re-applies the logged prefix.
  void Reset(const Csr<EdgeData>* base) {
    base_ = base;
    slot_.assign(base == nullptr ? 0 : base->num_vertices(), kInvalidSlot);
    rows_.clear();
    stats_ = Stats{};
    delta_mutations_ = 0;
    pending_merge_ = false;
  }

  bool attached() const { return base_ != nullptr; }

  bool IsDirty(vertex_id_t v) const { return slot_[v] != kInvalidSlot; }
  const Stats& stats() const { return stats_; }

  // Mutations currently absorbed by the overlay (resets on merge): the
  // graph.delta_edges gauge.
  uint64_t DeltaMutations() const { return delta_mutations_; }

  // True once any row's absorbed-mutation count reached `merge_threshold`
  // passed to Apply. The engine merges at the next batch boundary.
  bool pending_merge() const { return pending_merge_; }

  std::span<const AdjUnit<EdgeData>> Neighbors(vertex_id_t v) const {
    const uint32_t s = slot_[v];
    if (s == kInvalidSlot) return base_->Neighbors(v);
    return {rows_[s].adj.data(), rows_[s].adj.size()};
  }

  vertex_id_t OutDegree(vertex_id_t v) const {
    const uint32_t s = slot_[v];
    if (s == kInvalidSlot) return base_->OutDegree(v);
    return static_cast<vertex_id_t>(rows_[s].adj.size());
  }

  // Copies the base row into the overlay. Must be called (once) before the
  // first Apply touching v, so the caller can snapshot pre-edit weights for
  // its sampler row build.
  void Materialize(vertex_id_t v) {
    KK_CHECK(v < slot_.size() && !IsDirty(v));
    slot_[v] = static_cast<uint32_t>(rows_.size());
    auto span = base_->Neighbors(v);
    rows_.emplace_back().adj.assign(span.begin(), span.end());
    ++stats_.rows_materialized;
  }

  // Applies one mutation to v's (already materialized) overlay row. Rejected
  // mutations — deleting an edge that is not present, or reweighting when the
  // payload has no weight field — are counted no-ops, never errors: a
  // replayed log must tolerate them identically.
  RowEdit Apply(const EdgeMutation& m, uint32_t merge_threshold) {
    KK_CHECK_MSG(m.src < slot_.size() && m.dst < slot_.size(),
                 "mutation %u->%u outside vertex range %zu", m.src, m.dst, slot_.size());
    KK_DCHECK(IsDirty(m.src));
    OverlayRow& row = rows_[slot_[m.src]];
    RowEdit edit;
    edit.vertex = m.src;
    switch (m.op) {
      case MutationOp::kInsert: {
        AdjUnit<EdgeData> unit;
        unit.neighbor = m.dst;
        if constexpr (HasWeight<EdgeData>) {
          unit.data.weight = m.weight;
        }
        edit.kind = RowEdit::Kind::kInsert;
        edit.local_index = static_cast<vertex_id_t>(row.adj.size());
        row.adj.push_back(unit);
        ++stats_.inserted;
        break;
      }
      case MutationOp::kDelete: {
        auto found = FindInRow(row, m.dst);
        if (!found.has_value()) {
          edit.kind = RowEdit::Kind::kNone;
          ++stats_.rejected;
          return edit;
        }
        const vertex_id_t i = *found;
        const vertex_id_t last = static_cast<vertex_id_t>(row.adj.size() - 1);
        edit.kind = RowEdit::Kind::kRemove;
        edit.local_index = i;
        edit.moved_from = last;
        row.adj[i] = row.adj[last];
        row.adj.pop_back();
        ++stats_.removed;
        break;
      }
      case MutationOp::kReweight: {
        if constexpr (!HasWeight<EdgeData>) {
          edit.kind = RowEdit::Kind::kNone;
          ++stats_.rejected;
          return edit;
        } else {
          auto found = FindInRow(row, m.dst);
          if (!found.has_value()) {
            edit.kind = RowEdit::Kind::kNone;
            ++stats_.rejected;
            return edit;
          }
          edit.kind = RowEdit::Kind::kReweight;
          edit.local_index = *found;
          row.adj[*found].data.weight = m.weight;
          ++stats_.reweighted;
        }
        break;
      }
    }
    ++row.delta_count;
    ++delta_mutations_;
    if (merge_threshold != 0 && row.delta_count >= merge_threshold) {
      pending_merge_ = true;
    }
    return edit;
  }

  // Folds base + overlay into a fresh neighbor-sorted CSR. Incremental and
  // parallel: clean rows are byte-copied from the base (already sorted —
  // only the dirty-row fraction pays a sort), and rows are filled in
  // independent vertex chunks on `pool` when one is provided. Deterministic
  // regardless of pool: each row's bytes depend only on that row's (base,
  // overlay) state and the sort comparator matches FromEdgeList's, so the
  // output is byte-identical serial vs pooled. The caller swaps the result
  // in as the new base and Resets the overlay.
  Csr<EdgeData> MergedCsr(ThreadPool* pool = nullptr) const {
    const vertex_id_t n = base_->num_vertices();
    std::vector<edge_index_t> offsets(static_cast<size_t>(n) + 1, 0);
    for (vertex_id_t v = 0; v < n; ++v) {
      offsets[v + 1] = offsets[v] + OutDegree(v);
    }
    std::vector<AdjUnit<EdgeData>> adj(offsets[n]);
    auto fill_rows = [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        const auto src = Neighbors(static_cast<vertex_id_t>(v));
        AdjUnit<EdgeData>* dst = adj.data() + offsets[v];
        std::copy(src.begin(), src.end(), dst);
        if (IsDirty(static_cast<vertex_id_t>(v))) {
          // Dirty rows lost neighbor order (swap-with-last deletes, appended
          // inserts); restore it with the same comparator FromEdgeList uses.
          std::sort(dst, dst + src.size(),
                    [](const AdjUnit<EdgeData>& a, const AdjUnit<EdgeData>& b) {
                      return a.neighbor < b.neighbor;
                    });
        }
      }
    };
    ParallelFill(pool, n, fill_rows);
    return Csr<EdgeData>::FromParts(std::move(offsets), std::move(adj));
  }

 private:
  static constexpr uint32_t kInvalidSlot = 0xffffffffu;

  struct OverlayRow {
    std::vector<AdjUnit<EdgeData>> adj;
    uint32_t delta_count = 0;
  };

  // The first occurrence of dst in the row (delete and reweight target).
  static std::optional<vertex_id_t> FindInRow(const OverlayRow& row, vertex_id_t dst) {
    for (size_t i = 0; i < row.adj.size(); ++i) {
      if (row.adj[i].neighbor == dst) return static_cast<vertex_id_t>(i);
    }
    return std::nullopt;
  }

  const Csr<EdgeData>* base_ = nullptr;
  std::vector<uint32_t> slot_;  // vertex -> overlay row index, kInvalidSlot if clean
  std::vector<OverlayRow> rows_;
  Stats stats_;
  uint64_t delta_mutations_ = 0;
  bool pending_merge_ = false;
};

}  // namespace knightking

#endif  // SRC_GRAPH_DELTA_STORE_H_
