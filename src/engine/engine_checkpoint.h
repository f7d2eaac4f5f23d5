// WalkEngine's checkpoint save, load and crash recovery (docs/TESTING.md,
// "Checkpoint/restore"). Out-of-line members; include walk_engine.h.
#ifndef SRC_ENGINE_ENGINE_CHECKPOINT_H_
#define SRC_ENGINE_ENGINE_CHECKPOINT_H_

#include "src/engine/checkpoint.h"
#include "src/engine/walk_engine.h"

namespace knightking {

// One node's sections of a snapshot, as LoadCheckpoint reads them.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
struct WalkEngine<EdgeData, WalkerState, QueryResponse>::NodeSnapshot {
  SamplingStats stats;
  std::vector<WalkerT> active;
  std::vector<PendingTrial> parked;
  std::vector<InFlightMove> unacked;
  std::vector<PathEntry> path_log;
};

// The trailer proves a snapshot intact, not that this engine wrote it: every
// walker id, vertex, edge index and node rank later code indexes with must
// be in range, and the per-walker keys of the parked and unacknowledged
// sections must not repeat.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline bool WalkEngine<EdgeData, WalkerState, QueryResponse>::SnapshotContentValid(
    const NodeSnapshot& ns) const {
  const vertex_id_t num_v = graph_.csr().num_vertices();
  auto walker_ok = [&](const WalkerT& w) { return w.id < num_walkers_ && w.cur < num_v; };
  auto trial_ok = [&](const PendingTrial& t) {
    return walker_ok(t.walker) && t.candidate < graph_.csr().OutDegree(t.walker.cur);
  };
  auto move_ok = [&](const InFlightMove& m) {
    return walker_ok(m.walker) && m.dst < options_.num_nodes;
  };
  auto entry_ok = [&](const PathEntry& e) { return e.walker < num_walkers_; };
  auto keys_unique = [](const auto& records) {
    std::vector<walker_id_t> ids;
    for (const auto& record : records) {
      ids.push_back(record.walker.id);
    }
    std::ranges::sort(ids);
    return std::ranges::adjacent_find(ids) == ids.end();
  };
  return std::ranges::all_of(ns.active, walker_ok) && std::ranges::all_of(ns.parked, trial_ok) &&
         std::ranges::all_of(ns.unacked, move_ok) && std::ranges::all_of(ns.path_log, entry_ok) &&
         keys_unique(ns.parked) && keys_unique(ns.unacked);
}

// Serializes the current top-of-loop state to options_.checkpoint_path.
// The cut is exact: active walkers, parked second-order trials (only under
// faults), unacknowledged in-flight copies, path logs, per-node stats,
// plus the driver's dedup/progress state. The simulated network's traffic
// in transit at the cut (delayed messages, posted retransmits, fault
// epochs) is kept in memory for RecoverFromCrash, not written to the file.
// A checkpoint that cannot be written aborts the run: silently skipping it
// would void the recovery guarantee the caller asked for.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::SaveCheckpoint() {
  static_assert(std::is_trivially_copyable_v<WalkerT>);
  static_assert(std::is_trivially_copyable_v<PendingTrial>);
  static_assert(std::is_trivially_copyable_v<InFlightMove>);
  static_assert(std::is_trivially_copyable_v<PathEntry>);
  static_assert(std::is_trivially_copyable_v<SamplingStats>);
  Timer timer;
  obs::StageTimer span(options_.trace, "checkpoint", 0, superstep_);
  const std::string tmp = options_.checkpoint_path + ".tmp";
  BinaryFileWriter w(tmp);
  KK_CHECK_MSG(w.ok(), "cannot open checkpoint tmp file %s", tmp.c_str());
  CheckpointHeader h;
  h.num_nodes = options_.num_nodes;
  h.seed = options_.seed;
  h.superstep = superstep_;
  h.num_walkers = num_walkers_;
  h.walker_bytes = sizeof(WalkerT);
  h.pending_bytes = sizeof(PendingTrial);
  h.inflight_bytes = sizeof(InFlightMove);
  h.pathentry_bytes = sizeof(PathEntry);
  if (graph_.mutating()) {
    h.mutation_batches = graph_.batches_applied();
    h.mutation_hash = options_.mutation_log->PrefixHash(graph_.batches_applied());
  }
  WriteCheckpointHeader(w, h);
  w.WriteVec(walker_progress_);
  w.WriteVec(active_history_);
  // Canonical snapshot order of parked trials and in-flight copies.
  auto by_walker_id = [](const auto& a, const auto& b) { return a.walker.id < b.walker.id; };
  std::vector<PendingTrial> parked_sorted;
  std::vector<InFlightMove> inflight_sorted;
  for (auto& node : nodes_) {
    w.Write(static_cast<uint64_t>(sizeof(SamplingStats)));
    w.WriteBytes(&node->stats, sizeof(SamplingStats));
    w.WriteVec(node->active);
    // Only the parked and in-flight sections are canonical (sorted by
    // walker id, so they do not reflect merge order or hash-map layout).
    // The active and path_log sections keep merge order; recovery does
    // not depend on it, since every walker carries its own RNG stream and
    // path assembly places entries by (walker, step).
    parked_sorted.assign(node->parked.begin(), node->parked.end());
    std::ranges::sort(parked_sorted, by_walker_id);
    w.WriteVec(parked_sorted);
    inflight_sorted.clear();
    inflight_sorted.reserve(node->in_flight.size());
    // Sorted by walker id below, so the hash order never reaches the file.
    // kk-lint: nondeterministic-order-ok
    for (const auto& kv : node->in_flight) {
      inflight_sorted.push_back(kv.second);
    }
    std::ranges::sort(inflight_sorted, by_walker_id);
    w.WriteVec(inflight_sorted);
    w.WriteVec(node->path_log);
  }
  w.Write(w.checksum());
  uint64_t bytes = w.bytes_written();
  KK_CHECK_MSG(w.Close(), "checkpoint write to %s failed", tmp.c_str());
  KK_CHECK_MSG(CommitFile(tmp, options_.checkpoint_path),
               "cannot commit checkpoint to %s", options_.checkpoint_path.c_str());
  if (reliable_) {
    transit_at_cut_ = {walker_mail_->CaptureTransit(), query_mail_->CaptureTransit(),
                       response_mail_->CaptureTransit(), ack_mail_->CaptureTransit()};
  }
  ckpt_stats_.checkpoints += 1;
  ckpt_stats_.checkpoint_bytes += bytes;
  ckpt_stats_.checkpoint_micros += static_cast<uint64_t>(timer.Seconds() * 1e6);
}

template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline bool WalkEngine<EdgeData, WalkerState, QueryResponse>::LoadCheckpoint(
    const std::string& path) {
  if (options_.mutation_log != nullptr && transition_ == nullptr) {
    // Outside Run, a mutating engine's graph may already hold batches past
    // the snapshot's cut, and re-deriving the graph at the cut needs the
    // transition's Ps and bounds, which only a Run has.
    return false;
  }
  BinaryFileReader r(path);
  if (!r.ok()) {
    return false;
  }
  CheckpointHeader h;
  if (!ReadCheckpointHeader(r, &h)) {
    return false;
  }
  if (h.num_nodes != options_.num_nodes || h.seed != options_.seed ||
      h.num_walkers != num_walkers_ || h.walker_bytes != sizeof(WalkerT) ||
      h.pending_bytes != sizeof(PendingTrial) ||
      h.inflight_bytes != sizeof(InFlightMove) ||
      h.pathentry_bytes != sizeof(PathEntry)) {
    return false;
  }
  // Mutation cut: the snapshot must replay against exactly the log this
  // engine is configured with (or none at all). The prefix hash pins the
  // byte content of every batch the crashed run had applied; restoring a
  // walk over a different graph history would not be a recovery.
  if (options_.mutation_log == nullptr) {
    if (h.mutation_batches != 0 || h.mutation_hash != 0) {
      return false;
    }
  } else if (h.mutation_batches > options_.mutation_log->num_batches() ||
             h.mutation_hash !=
                 options_.mutation_log->PrefixHash(
                     static_cast<size_t>(h.mutation_batches))) {
    return false;
  }
  std::vector<step_t> progress;
  if (!r.ReadVec(&progress)) {
    return false;
  }
  // The progress section is written per the run's reliability mode: one
  // entry per walker under fault injection, empty otherwise.
  if (progress.size() != (reliable_ ? static_cast<size_t>(num_walkers_) : 0)) {
    return false;
  }
  std::vector<uint64_t> history;
  if (!r.ReadVec(&history)) {
    return false;
  }
  std::vector<NodeSnapshot> snap(options_.num_nodes);
  for (auto& ns : snap) {
    uint64_t stats_bytes = 0;
    if (!r.Read(&stats_bytes) || stats_bytes != sizeof(SamplingStats) ||
        !r.ReadBytes(&ns.stats, sizeof(SamplingStats))) {
      return false;
    }
    if (!r.ReadVec(&ns.active) || !r.ReadVec(&ns.parked) || !r.ReadVec(&ns.unacked) ||
        !r.ReadVec(&ns.path_log) || !SnapshotContentValid(ns)) {
      return false;
    }
  }
  uint64_t computed = r.checksum();
  uint64_t stored = 0;
  if (!r.Read(&stored) || stored != computed || r.remaining() != 0) {
    return false;
  }
  // Fully validated — commit. Parked trials
  // take their section's order, so each one's slot is its index there;
  // in-transit queries never survive a restore (RecoverFromCrash wipes the
  // mailboxes), so no response can address an older slot.
  superstep_ = h.superstep;
  walker_progress_ = std::move(progress);
  active_history_ = std::move(history);
  for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
    NodeState& node = *nodes_[n];
    NodeSnapshot& ns = snap[n];
    node.stats = ns.stats;
    node.active = std::move(ns.active);
    node.parked = std::move(ns.parked);
    node.in_flight.clear();
    for (InFlightMove& move : ns.unacked) {
      node.in_flight.emplace(move.walker.id, std::move(move));
    }
    node.path_log = std::move(ns.path_log);
  }
  if (options_.mutation_log != nullptr) {
    // In-Run restore (crash recovery): re-derive the graph at the cut by
    // replaying the applied prefix from the pristine CSR — overlay rows,
    // merge points, and incremental weight totals included, byte for byte
    // (see docs/DYNAMIC_GRAPHS.md).
    graph_.ReplayPrefix(static_cast<size_t>(h.mutation_batches));
  }
  return true;
}

// Simulated whole-node failure: node `rank` loses all volatile state, and
// the cluster performs a coordinated rollback — every node (not just the
// crashed one) reloads the last committed snapshot, the network goes back
// to the traffic it carried at that cut, and the superstep loop resumes
// from there. Rewinding the network matters on a mutating graph: there a
// message's fault schedule decides which superstep, and so which graph, a
// walker steps on, and a replay that dealt different faults (or lost the
// delayed messages) would walk a different path than the crash-free run.
template <typename EdgeData, typename WalkerState, typename QueryResponse>
inline void WalkEngine<EdgeData, WalkerState, QueryResponse>::RecoverFromCrash(node_rank_t rank) {
  KK_CHECK_MSG(options_.checkpoint_every > 0,
               "node crash fired with checkpointing disabled");
  KK_CHECK(rank < options_.num_nodes);
  obs::StageTimer span(options_.trace, "recover", 0, superstep_);
  NodeState& crashed = *nodes_[rank];
  crashed.DropWalkState();
  walker_mail_->RestoreTransit(transit_at_cut_.walker);
  query_mail_->RestoreTransit(transit_at_cut_.query);
  response_mail_->RestoreTransit(transit_at_cut_.response);
  ack_mail_->RestoreTransit(transit_at_cut_.ack);
  KK_CHECK_MSG(LoadCheckpoint(options_.checkpoint_path),
               "cannot restore checkpoint %s after node %u crash",
               options_.checkpoint_path.c_str(), static_cast<unsigned>(rank));
  ckpt_stats_.recoveries += 1;
  span.set_iteration(superstep_);  // the restored superstep
}

}  // namespace knightking

#endif  // SRC_ENGINE_ENGINE_CHECKPOINT_H_
