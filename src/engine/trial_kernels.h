// WalkEngine's trial kernels (§4, §5): the rejection-sampling trial, the
// exact fallback scan, committing a move, phase A's two step drivers and
// phase C's query re-issue. Out-of-line members; include walk_engine.h.
#ifndef SRC_ENGINE_TRIAL_KERNELS_H_
#define SRC_ENGINE_TRIAL_KERNELS_H_

#include "src/engine/walk_engine.h"

namespace knightking {

// Runs body(i) over [begin, end), pulling walker i+1's graph/sampler rows
// toward the cache while walker i computes (batches are cur-grouped, so
// the hint is almost always useful). Dirty overlay rows get no hint: they
// are small and recently written, so already hot.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
template <typename CurFn, typename BodyFn>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::PrefetchedRun(
    size_t begin, size_t end, const CurFn& cur_of, const BodyFn& body) const {
  for (size_t i = begin; i < end; ++i) {
    if (i + 1 < end) {
      const vertex_id_t next = cur_of(i + 1);
      if (!graph_.DirtyRow(next)) {
        graph_.csr().PrefetchNeighbors(next);
        sampler_.Prefetch(next);
      }
    }
    body(i);
  }
}

// One rejection-sampling trial for walker w at w.cur. Counts stats into
// `stats` (the lane's).
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline auto WalkEngine<EdgeData, WalkerState, QueryResponse>::RunTrial(
    WalkerT& w, SamplingStats& stats) -> TrialResult {
  vertex_id_t v = w.cur;
  vertex_id_t degree = graph_.DegreeOf(v);
  if (degree == 0) {
    return {TrialOutcome::kNoEdges, 0, 0.0f, 0};
  }
  if (!dynamic_) {
    // Static walk: Ps-proportional draw, always accepted.
    if (graph_.CandidateWidth(v, sampler_) <= 0.0) {
      return {TrialOutcome::kNoEdges, 0, 0.0f, 0};
    }
    stats.trials += 1;
    stats.trial_accepts += 1;
    return {TrialOutcome::kAccept, graph_.SampleCandidate(v, w.rng, sampler_), 0.0f, 0};
  }

  real_t q = upper_[v];
  double width = graph_.CandidateWidth(v, sampler_);
  if (q <= 0.0f || width <= 0.0) {
    return {TrialOutcome::kNoEdges, 0, 0.0f, 0};
  }
  double board = static_cast<double>(q) * width;

  // Outlier appendix blocks (Figure 3b).
  double appendix_block = 0.0;
  uint32_t outlier_count = 0;
  if (transition_->outlier_bound) {
    OutlierBound ob = transition_->outlier_bound(w, v);
    if (ob.count > 0 && ob.height > q) {
      outlier_count = ob.count;
      appendix_block = static_cast<double>(ob.height - q) *
                       static_cast<double>(graph_.CandidateMaxWeight(v, sampler_));
    }
  }

  stats.trials += 1;
  double x = w.rng.NextDouble(board + appendix_block * outlier_count);
  if (x >= board) {
    // Dart landed in an appendix: locate the outlier and correct.
    stats.outlier_hits += 1;
    auto k = static_cast<uint32_t>((x - board) / appendix_block);
    k = std::min(k, outlier_count - 1);
    std::optional<vertex_id_t> idx = transition_->outlier_locate(w, v, k);
    if (!idx.has_value()) {
      stats.trial_rejects += 1;
      return {TrialOutcome::kReject, 0, 0.0f, 0};
    }
    const AdjT& edge = graph_.NeighborsOf(v)[*idx];
    stats.pd_computations += 1;
    real_t pd = transition_->dynamic_comp(w, v, edge, std::nullopt);
    double chopped =
        std::max(0.0, static_cast<double>(pd) - static_cast<double>(q)) *
        static_cast<double>(PsOf(v, edge));
    if (w.rng.NextDouble(appendix_block) < chopped) {
      stats.trial_accepts += 1;
      return {TrialOutcome::kAccept, *idx, 0.0f, 0};
    }
    stats.trial_rejects += 1;
    return {TrialOutcome::kReject, 0, 0.0f, 0};
  }

  vertex_id_t candidate = graph_.SampleCandidate(v, w.rng, sampler_);
  real_t y = static_cast<real_t>(w.rng.NextDouble(q));
  if (!lower_.empty() && y < lower_[v]) {
    stats.pre_accepts += 1;
    stats.trial_accepts += 1;
    return {TrialOutcome::kAccept, candidate, y, 0};
  }
  const AdjT& edge = graph_.NeighborsOf(v)[candidate];
  if (second_order_) {
    std::optional<vertex_id_t> target = transition_->post_query(w, v, edge);
    if (target.has_value()) {
      // Neither accepted nor rejected yet: counted when the parked trial
      // resolves (locally below, or in phase C after the response).
      return {TrialOutcome::kNeedQuery, candidate, y, *target};
    }
  }
  stats.pd_computations += 1;
  real_t pd = transition_->dynamic_comp(w, v, edge, std::nullopt);
  bool accept = y < pd;
  (accept ? stats.trial_accepts : stats.trial_rejects) += 1;
  return {accept ? TrialOutcome::kAccept : TrialOutcome::kReject, candidate, y, 0};
}

// Exact fallback after repeated rejections (lockstep mode only): one full
// scan computing Ps * Pd for every out-edge, then an inverse-transform
// draw. Still exact; returns nullopt when no edge is eligible.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline std::optional<vertex_id_t> WalkEngine<EdgeData, WalkerState, QueryResponse>::FallbackScan(
    WalkerT& w, SamplingStats& stats) {
  vertex_id_t v = w.cur;
  auto neighbors = graph_.NeighborsOf(v);
  stats.fallback_scans += 1;
  stats.pd_computations += neighbors.size();
  double total = 0.0;
  thread_local std::vector<double> buf;
  buf.resize(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    real_t pd = transition_->dynamic_comp(w, v, neighbors[i], std::nullopt);
    total += static_cast<double>(PsOf(v, neighbors[i])) * static_cast<double>(pd);
    buf[i] = total;
  }
  if (total <= 0.0) {
    return std::nullopt;
  }
  double r = w.rng.NextDouble(total);
  auto it = std::upper_bound(buf.begin(), buf.end(), r);
  if (it == buf.end()) {
    --it;
  }
  return static_cast<vertex_id_t>(it - buf.begin());
}

// Commits a successful trial: advances the walker over edge `candidate`
// and routes it (or retires it).
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::CommitMove(
    WalkerT& w, vertex_id_t candidate, node_rank_t src_node, Scratch& scratch) {
  const AdjT& edge = graph_.NeighborsOf(w.cur)[candidate];
  vertex_id_t from = w.cur;
  w.prev = w.cur;
  w.cur = edge.neighbor;
  w.step += 1;
  if (transition_->on_move) {
    transition_->on_move(w, from, edge);
  }
  scratch.stats.steps += 1;
  if (options_.collect_paths) {
    scratch.paths.push_back({w.id, w.step, w.cur});
  }
  if (ArrivalTerminates(w)) {
    return;
  }
  node_rank_t dst_node = partition_.OwnerOf(w.cur);
  if (dst_node == src_node && !reliable_) {
    // Local landing, fault-free: skip the mailbox round trip. The walker
    // rejoins active through the same merge as stay-put walkers; walk
    // output is order-independent (per-walker RNG streams).
    scratch.stay.push_back(std::move(w));
    return;
  }
  if (dst_node != src_node) {
    scratch.stats.walker_moves_remote += 1;
  }
  if (reliable_ && (dst_node != src_node || include_local_faults_)) {
    // Keep a copy until the receiver acknowledges; retransmitted verbatim
    // on timeout, so a recovered walker continues its exact RNG stream.
    scratch.tracked.push_back(InFlightMove{w, dst_node, 0, 0});
  }
  scratch.moves[dst_node].push_back(std::move(w));
}

// Lockstep step: retries trials until acceptance (bounded, then exact
// fallback). Every surviving walker advances exactly one step.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::LockstepWalk(
    WalkerT& w, node_rank_t node_rank, Scratch& scratch) {
  for (uint32_t t = 0; t < kMaxTrialsPerStep; ++t) {
    TrialResult r = RunTrial(w, scratch.stats);
    switch (r.outcome) {
      case TrialOutcome::kAccept:
        CommitMove(w, r.candidate, node_rank, scratch);
        return;
      case TrialOutcome::kNoEdges:
        return;  // walk ends: no eligible out-edge
      case TrialOutcome::kReject:
        continue;
      case TrialOutcome::kNeedQuery:
        KK_CHECK(false);  // lockstep mode is never second-order
    }
  }
  std::optional<vertex_id_t> exact = FallbackScan(w, scratch.stats);
  if (exact.has_value()) {
    CommitMove(w, *exact, node_rank, scratch);
  }
}

// Second-order step: exactly one trial; local queries are answered
// immediately, remote ones park the walker (see NodeState::parked).
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::SecondOrderTrial(
    WalkerT& w, node_rank_t node_rank, Scratch& scratch) {
  TrialResult r = RunTrial(w, scratch.stats);
  switch (r.outcome) {
    case TrialOutcome::kAccept:
      CommitMove(w, r.candidate, node_rank, scratch);
      return;
    case TrialOutcome::kNoEdges:
      return;
    case TrialOutcome::kReject:
      scratch.stay.push_back(std::move(w));
      return;
    case TrialOutcome::kNeedQuery:
      break;
  }
  const AdjT& edge = graph_.NeighborsOf(w.cur)[r.candidate];
  vertex_id_t subject = edge.neighbor;
  if (partition_.OwnerOf(r.query_target) == node_rank) {
    // Local-answer fast path: the queried vertex lives here.
    scratch.stats.queries_local += 1;
    QueryResponse resp = transition_->respond_query(graph_.csr(), r.query_target, subject);
    scratch.stats.pd_computations += 1;
    real_t pd = transition_->dynamic_comp(w, w.cur, edge, resp);
    if (r.y < pd) {
      scratch.stats.trial_accepts += 1;
      CommitMove(w, r.candidate, node_rank, scratch);
    } else {
      scratch.stats.trial_rejects += 1;
      scratch.stay.push_back(std::move(w));
    }
    return;
  }
  scratch.stats.queries_remote += 1;
  PendingTrial pending;
  pending.candidate = r.candidate;
  pending.y = r.y;
  pending.query_target = r.query_target;
  pending.epoch = superstep_;
  // The slot is lane-local here; MergeLanes rebases it to the node's
  // parked vector.
  auto slot = static_cast<uint32_t>(scratch.pending_trials.size());
  scratch.queries[partition_.OwnerOf(r.query_target)].push_back(
      {w.id, r.query_target, subject, node_rank, slot, superstep_});
  pending.walker = std::move(w);
  scratch.pending_trials.push_back(std::move(pending));
}

// Phase C under faults: moves unanswered trials to the front of `trials`
// (index == new slot; order is unobservable) and ages them. One that is
// kRetryTimeout supersteps past its latest issue is re-issued under a fresh
// epoch, so no answer to an older issue can match it. Returns how many wait.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline size_t WalkEngine<EdgeData, WalkerState, QueryResponse>::RequeueUnanswered(
    NodeState& node, node_rank_t n, std::vector<PendingTrial>& trials, SamplingStats& delta) {
  auto answered = std::partition(trials.begin(), trials.end(),
                                 [](const PendingTrial& t) { return !t.responded; });
  const auto waiting = static_cast<size_t>(answered - trials.begin());
  for (uint32_t slot = 0; slot < waiting; ++slot) {
    PendingTrial& trial = trials[slot];
    if (++trial.age < kRetryTimeout) {
      continue;
    }
    KK_CHECK(trial.retries < kMaxRetries);
    trial.retries += 1;
    trial.age = 0;
    trial.epoch = superstep_ + 1;  // the re-issue is exchanged next superstep
    delta.query_retries += 1;
    vertex_id_t subject = graph_.NeighborsOf(trial.walker.cur)[trial.candidate].neighbor;
    node.requery_out[partition_.OwnerOf(trial.query_target)].push_back(
        QueryMsg{trial.walker.id, trial.query_target, subject, n, slot, trial.epoch});
  }
  query_mail_->PostAll(n, node.requery_out);
  return waiting;
}

}  // namespace knightking

#endif  // SRC_ENGINE_TRIAL_KERNELS_H_
