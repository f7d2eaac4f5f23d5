// The walk engine's graph under streaming mutations (docs/DYNAMIC_GRAPHS.md):
// CSR, pristine replay origin, delta overlay and its sampler rows, log cursor.
#ifndef SRC_ENGINE_MUTABLE_GRAPH_H_
#define SRC_ENGINE_MUTABLE_GRAPH_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/engine/engine_options.h"
#include "src/graph/csr.h"
#include "src/sampling/static_sampler.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace knightking {

template <typename EdgeData>
class MutableGraph {
 public:
  using AdjT = AdjUnit<EdgeData>;

  using RowReuseFn = typename StaticSamplerSet<EdgeData>::RowReuseFn;

  // The engine's side of an edit: Ps of an edge, the Pd envelope of a vertex
  // at a new degree, and the flat static state over csr() after a merge or
  // replay reset. A merge passes prepare_static the rows whose edges it kept,
  // whose static state may carry over; a replay reset passes null. `pool`
  // runs the merge fold.
  struct Hooks {
    std::function<real_t(vertex_id_t, const AdjT&)> ps;
    std::function<void(vertex_id_t, vertex_id_t)> refresh_envelope;
    std::function<void(const RowReuseFn&)> prepare_static;
    ThreadPool* pool = nullptr;
  };

  explicit MutableGraph(Csr<EdgeData> graph) : graph_(std::move(graph)) {}
  MutableGraph(const MutableGraph&) = delete;  // delta_ points into graph_
  MutableGraph& operator=(const MutableGraph&) = delete;

  const Csr<EdgeData>& csr() const { return graph_; }
  bool mutating() const { return log_ != nullptr; }

  // Per-Run setup; `log` null keeps the graph static.
  void BeginRun(const MutationLog* log, uint32_t merge_threshold, bool weighted, Hooks hooks) {
    log_ = log;
    merge_threshold_ = merge_threshold;
    weighted_ = weighted;
    hooks_ = std::move(hooks);
    if (log_ != nullptr && !delta_.attached()) {
      // First mutating Run: snapshot the pristine CSR (the replay origin —
      // recovery re-derives any merged graph from it) and attach the overlay.
      pristine_graph_ = graph_;
      Restart();
    }
  }

  // ---- Mutation-aware read path -------------------------------------------
  // Every sampling-path graph access routes through these: a clean vertex
  // reads the base CSR / flat sampler tables exactly as before, a dirty one
  // reads its overlay adjacency / weight-class row. Without a mutation log
  // each helper is the old access plus one predictable branch.

  bool DirtyRow(vertex_id_t v) const { return log_ != nullptr && delta_.IsDirty(v); }

  std::span<const AdjT> NeighborsOf(vertex_id_t v) const {
    return log_ != nullptr ? delta_.Neighbors(v) : graph_.Neighbors(v);
  }

  vertex_id_t DegreeOf(vertex_id_t v) const {
    return log_ != nullptr ? delta_.OutDegree(v) : graph_.OutDegree(v);
  }

  // Ps-proportional candidate draw at v; a clean vertex draws from the flat
  // `sampler`. Unweighted dirty rows draw uniform over the live degree (the
  // flat uniform sampler's degree would be stale). Non-const: an overlay
  // sample may lazily materialize the class it lands in
  // (worker-thread-safe — see LazyAliasRow).
  vertex_id_t SampleCandidate(vertex_id_t v, Rng& rng, const StaticSamplerSet<EdgeData>& sampler) {
    if (DirtyRow(v)) {
      if (weighted_) {
        return static_cast<vertex_id_t>(overlay_.Sample(v, rng));
      }
      return static_cast<vertex_id_t>(rng.NextUInt64(delta_.OutDegree(v)));
    }
    return sampler.Sample(v, rng);
  }

  // Sum of Ps over v's out-edges (the dartboard width).
  double CandidateWidth(vertex_id_t v, const StaticSamplerSet<EdgeData>& sampler) const {
    if (DirtyRow(v)) {
      return weighted_ ? overlay_.TotalWeight(v) : static_cast<double>(delta_.OutDegree(v));
    }
    return sampler.TotalWeight(v);
  }

  // Upper bound on any single Ps at v (outlier appendix width). The overlay
  // bound is monotone over the row's history — an over-estimate costs
  // appendix efficiency, never correctness.
  real_t CandidateMaxWeight(vertex_id_t v, const StaticSamplerSet<EdgeData>& sampler) const {
    if (DirtyRow(v)) {
      return weighted_ ? overlay_.MaxWeight(v) : 1.0f;
    }
    return sampler.MaxWeight(v);
  }

  // ---- Streaming mutations (driver-only between supersteps) ---------------
  // See docs/DYNAMIC_GRAPHS.md. All of this runs at the top-of-loop barrier
  // with no phase in flight, so overlay rows are edited with no concurrent
  // reader.

  // Applies every not-yet-applied log batch whose epoch has been reached.
  void ApplyDue(uint64_t superstep, FaultInjector* injector) {
    const MutationLog& log = *log_;
    while (mutation_cursor_ < log.num_batches() &&
           log.batch(mutation_cursor_).epoch <= superstep) {
      const uint64_t id = log.batch(mutation_cursor_).id;
      ApplyNextBatch();
      if (injector != nullptr) {
        // Live path only (replay never re-arms): lets tests pin a crash to
        // "right after this batch landed" by content id. The crash fires in
        // this same superstep's TakeCrash probe, after the checkpoint save.
        injector->NotifyMutationBatch(id, superstep);
      }
    }
  }

  // Rebuilds the graph exactly as it stood after `count` applied batches:
  // pristine CSR, replayed prefix, merges re-executed at the same points —
  // the same IEEE operation sequence the live run performed, so overlay rows
  // and incremental weight totals come back byte-identical. Counters reset
  // and re-accumulate, so post-recovery figures match a run that never
  // crashed up to the restored cut.
  void ReplayPrefix(size_t count) {
    KK_CHECK(log_ != nullptr);
    KK_CHECK_MSG(count <= log_->num_batches(),
                 "checkpoint applied %zu mutation batches but the log has %zu",
                 count, log_->num_batches());
    graph_ = pristine_graph_;
    Restart();
    hooks_.prepare_static(nullptr);
    while (mutation_cursor_ < count) {
      ApplyNextBatch();
    }
  }

  // Mutation-log batches applied so far (the checkpoint cursor).
  size_t batches_applied() const { return mutation_cursor_; }

  // Wall-clock spent folding the overlay into fresh CSRs (all merges so far).
  uint64_t merge_micros() const { return merge_micros_; }

  // Live counters plus everything folded out at merges.
  MutationCounters counters() const {
    MutationCounters c = folded_;
    AddLiveCounters(c);
    c.delta_mutations = delta_.DeltaMutations();
    return c;
  }

 private:
  // Empty overlay on graph_, cursor, merges and counters at zero.
  void Restart() {
    delta_.Reset(&graph_);
    overlay_.Reset(graph_.num_vertices());
    mutation_cursor_ = 0;
    merge_micros_ = 0;
    folded_ = MutationCounters{};
  }

  // Applies the batch at the cursor and advances past it. Merges fire only
  // at batch boundaries: a threshold crossed mid-batch defers to here, so
  // every batch applies against one consistent base.
  void ApplyNextBatch() {
    for (const EdgeMutation& m : log_->batch(mutation_cursor_).mutations) {
      ApplyMutation(m);
    }
    ++mutation_cursor_;
    if (delta_.pending_merge()) {
      MergeOverlay();
    }
  }

  // One mutation: materialize on first touch (the only O(degree) step),
  // mirror the row edit into the weight-class sampler in O(1), refresh the
  // vertex's Pd envelope.
  void ApplyMutation(const EdgeMutation& m) {
    if (!delta_.IsDirty(m.src)) {
      delta_.Materialize(m.src);
      if (weighted_) {
        BuildOverlayRow(m.src);
      }
    }
    const RowEdit edit = delta_.Apply(m, merge_threshold_);
    if (weighted_) {
      switch (edit.kind) {
        case RowEdit::Kind::kNone:
          break;
        case RowEdit::Kind::kInsert:
          overlay_.PushBack(m.src, hooks_.ps(m.src, delta_.Neighbors(m.src)[edit.local_index]));
          break;
        case RowEdit::Kind::kRemove:
          overlay_.SwapRemove(m.src, edit.local_index);
          break;
        case RowEdit::Kind::kReweight:
          overlay_.Reweight(m.src, edit.local_index,
                            hooks_.ps(m.src, delta_.Neighbors(m.src)[edit.local_index]));
          break;
      }
    }
    if (edit.kind != RowEdit::Kind::kNone) {
      hooks_.refresh_envelope(m.src, delta_.OutDegree(m.src));
    }
  }

  // Computes the Ps row for a freshly materialized vertex and builds its
  // weight-class row.
  void BuildOverlayRow(vertex_id_t v) {
    auto nbrs = delta_.Neighbors(v);
    ps_row_buffer_.resize(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ps_row_buffer_[i] = hooks_.ps(v, nbrs[i]);
    }
    overlay_.BuildRow(v, ps_row_buffer_);
  }

  // Folds base + overlay into a fresh CSR and rebuilds the flat static state
  // over it. Clean rows byte-copy and dirty rows sort, in parallel vertex
  // chunks on the prepare pool; the static state rebuilds the dirty rows
  // only. Amortized over merge_threshold mutations per row. Wall-clock
  // accrues to merge_micros (graph.merge_micros, unstable).
  void MergeOverlay() {
    Timer merge_timer;
    // Preserves the live counters across the resets below.
    AddLiveCounters(folded_);
    graph_ = delta_.MergedCsr(hooks_.pool);
    // The overlay still marks the dirty rows; every other row kept its edges.
    hooks_.prepare_static([this](vertex_id_t v) { return !delta_.IsDirty(v); });
    delta_.Reset(&graph_);
    overlay_.Reset(graph_.num_vertices());
    ++folded_.merges;
    merge_micros_ += static_cast<uint64_t>(merge_timer.Seconds() * 1e6);
  }

  // Adds the counters the delta store and the overlay have kept since their
  // last reset.
  void AddLiveCounters(MutationCounters& c) const {
    const auto& s = delta_.stats();
    c.inserted += s.inserted;
    c.removed += s.removed;
    c.reweighted += s.reweighted;
    c.rejected += s.rejected;
    c.rows_materialized += s.rows_materialized;
    c.full_builds += overlay_.full_builds();
    c.bucket_builds += overlay_.bucket_builds();
    c.incremental_updates += overlay_.incremental_updates();
  }

  Csr<EdgeData> graph_;
  // Pristine base CSR captured when the mutation log attaches: the replay
  // origin recovery re-derives any merged graph from.
  Csr<EdgeData> pristine_graph_;
  DeltaStore<EdgeData> delta_;
  DynamicSamplerOverlay overlay_;
  const MutationLog* log_ = nullptr;
  uint32_t merge_threshold_ = 0;
  bool weighted_ = false;
  Hooks hooks_;
  std::vector<real_t> ps_row_buffer_;  // driver-only scratch for row builds
  size_t mutation_cursor_ = 0;         // log batches applied (checkpoint cut)
  uint64_t merge_micros_ = 0;  // wall-clock in MergeOverlay (unstable metric)
  MutationCounters folded_;  // counters folded out of overlay resets at merge, and merges
};

}  // namespace knightking

#endif  // SRC_ENGINE_MUTABLE_GRAPH_H_
