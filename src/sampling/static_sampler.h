// Unified per-vertex static (Ps) candidate sampler.
//
// Wraps the two strategies the engine uses behind one interface: uniform
// (unbiased graphs: no build cost, O(1) draws) and alias (§3: O(n) build,
// O(1) draws) for biased walks.
#ifndef SRC_SAMPLING_STATIC_SAMPLER_H_
#define SRC_SAMPLING_STATIC_SAMPLER_H_

#include <functional>
#include <span>
#include <vector>

#include "src/graph/csr.h"
#include "src/sampling/alias_table.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace knightking {

enum class StaticSamplerKind {
  kAuto = 0,     // uniform when Ps == 1 everywhere, alias otherwise
  kUniform = 1,  // requires Ps == 1
  kAlias = 2,
};

const char* StaticSamplerKindName(StaticSamplerKind kind);

// Per-vertex candidate sampler over the static component. Samples return a
// *local* edge index into Csr::Neighbors(v).
template <typename EdgeData>
class StaticSamplerSet {
 public:
  using StaticCompFn = std::function<real_t(vertex_id_t, const AdjUnit<EdgeData>&)>;

  // True for a row whose static weights are unchanged since the previous
  // Build (see Build).
  using RowReuseFn = std::function<bool(vertex_id_t)>;

  // static_comp == nullptr means "use the edge weight, or 1 if unweighted".
  // A non-null `pool` parallelizes the per-vertex table construction (rows
  // are independent); static_comp must then be safe to call concurrently —
  // the pure lambdas the apps supply are.
  //
  // `reuse_row` makes the build incremental: a row for which it holds keeps
  // its tables from the previous Build, which must have used the same kind
  // and static_comp over a CSR with the same vertices in which that row held
  // the same edges (a merge's clean rows). Each row's tables are a pure
  // function of its weights, so the result equals a full build.
  void Build(const Csr<EdgeData>& csr, StaticSamplerKind kind, const StaticCompFn& static_comp,
             ThreadPool* pool = nullptr, const RowReuseFn& reuse_row = nullptr) {
    csr_ = &csr;
    bool custom = static_cast<bool>(static_comp);
    bool weighted = custom || HasWeight<EdgeData>;
    if (kind == StaticSamplerKind::kAuto) {
      kind = weighted ? StaticSamplerKind::kAlias : StaticSamplerKind::kUniform;
    }
    KK_CHECK(!reuse_row || kind == kind_);
    kind_ = kind;
    if (kind_ == StaticSamplerKind::kUniform) {
      KK_CHECK(!weighted);  // uniform draws would silently ignore Ps
      return;
    }
    // Writes row v's per-edge static weights in CSR order.
    auto row_weights = [&](vertex_id_t v, std::span<real_t> out) {
      size_t i = 0;
      for (const auto& adj : csr.Neighbors(v)) {
        out[i++] = custom ? static_comp(v, adj) : StaticWeight(adj.data);
      }
    };
    alias_.Build(csr.offsets(), row_weights, pool, reuse_row);
  }

  StaticSamplerKind kind() const { return kind_; }

  // Samples a local edge index at v proportional to Ps.
  vertex_id_t Sample(vertex_id_t v, Rng& rng) const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return static_cast<vertex_id_t>(rng.NextUInt32(csr_->OutDegree(v)));
      case StaticSamplerKind::kAlias:
        return alias_.Sample(v, rng);
      case StaticSamplerKind::kAuto:
        break;
    }
    KK_CHECK(false);
  }

  // Sum of Ps over v's out-edges (width of the rejection dartboard).
  double TotalWeight(vertex_id_t v) const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return static_cast<double>(csr_->OutDegree(v));
      case StaticSamplerKind::kAlias:
        return alias_.TotalWeight(v);
      case StaticSamplerKind::kAuto:
        break;
    }
    KK_CHECK(false);
  }

  // Hints v's sampler row into cache (engine locality pass). Uniform draws
  // touch no per-vertex tables, so there is nothing to pull.
  void Prefetch(vertex_id_t v) const {
    if (kind_ == StaticSamplerKind::kAlias) {
      alias_.Prefetch(v);
    }
  }

  // Table footprint in bytes across all vertices (uniform draws keep no
  // tables). Exported in the engine's metrics snapshot.
  size_t MemoryBytes() const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return 0;
      case StaticSamplerKind::kAlias:
        return alias_.MemoryBytes();
      case StaticSamplerKind::kAuto:
        break;
    }
    return 0;
  }

  // Max single Ps at v (outlier appendix width bound).
  real_t MaxWeight(vertex_id_t v) const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return 1.0f;
      case StaticSamplerKind::kAlias:
        return alias_.MaxWeight(v);
      case StaticSamplerKind::kAuto:
        break;
    }
    KK_CHECK(false);
  }

 private:
  const Csr<EdgeData>* csr_ = nullptr;
  StaticSamplerKind kind_ = StaticSamplerKind::kAuto;
  FlatAliasTables alias_;
};

}  // namespace knightking

#endif  // SRC_SAMPLING_STATIC_SAMPLER_H_
