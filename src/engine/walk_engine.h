// The KnightKing walk engine (§4, §5, §6).
//
// Executes many walkers over a 1-D partitioned CSR graph in BSP supersteps
// on a simulated cluster of logical nodes. The sampling core is rejection
// sampling under a per-vertex envelope Q(v): each trial draws a candidate
// edge from the static component Ps (alias / ITS / uniform) and a height
// y ~ U[0, Q(v)), then accepts iff y < Pd(candidate). Optimizations
// implemented exactly as in the paper:
//
//   * lower-bound pre-acceptance: y < L(v) accepts without computing Pd,
//   * outlier folding: declared Pd outliers above Q(v) become appendix
//     blocks beside the dartboard,
//   * two-round walker-to-vertex state queries for second-order walks,
//   * straggler-aware light mode: a node whose active walker count drops
//     below a threshold abandons its worker pool and runs inline.
//
// First-order and static walks run in lockstep mode: every active walker
// completes one step per iteration (retrying trials locally until success).
// Second-order walks run one trial per walker per iteration; rejected
// walkers stay put and retry next iteration, producing the long-tail
// behaviour of Figure 5.
//
// Fault tolerance: with a FaultInjector attached (options.fault_injector)
// the engine runs a reliability protocol over the simulated network —
// positive acknowledgements plus bounded timeout/retransmit for inter-node
// walker messages, bounded re-issue of unanswered second-order state
// queries, and (walker, step) dedup at the receiver so duplicated or
// retransmitted messages never double-walk. Because every random decision
// lives in the walker's own RNG stream and retransmits carry the walker's
// exact state, a faulted run produces *bit-identical* walks to the
// fault-free run under the same seed. See docs/TESTING.md.
#ifndef SRC_ENGINE_WALK_ENGINE_H_
#define SRC_ENGINE_WALK_ENGINE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/checkpoint.h"
#include "src/engine/mailbox.h"
#include "src/obs/counters.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/engine/transition.h"
#include "src/engine/walker.h"
#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/partition.h"
#include "src/sampling/static_sampler.h"
#include "src/sampling/weight_class.h"
#include "src/sampling/stats.h"
#include "src/util/cache_geometry.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/util/types.h"

namespace knightking {

// One recorded walk position; paths are reassembled from these after a run.
struct PathEntry {
  walker_id_t walker = 0;
  step_t step = 0;
  vertex_id_t vertex = 0;

  friend bool operator==(const PathEntry&, const PathEntry&) = default;
};

// Every walker's path in one CSR blob: walker w visited
// vertices[offsets[w] .. offsets[w + 1]) in step order.
struct FlatPaths {
  std::vector<uint64_t> offsets;      // num_walkers + 1 entries, offsets[0] == 0
  std::vector<vertex_id_t> vertices;  // all paths, concatenated by walker id

  size_t num_paths() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const vertex_id_t> Path(size_t w) const {
    return {vertices.data() + offsets[w], static_cast<size_t>(offsets[w + 1] - offsets[w])};
  }
};

// Locality sort of each node's active walker batch by current vertex before
// chunking (§6.2's task scheduler, plus the memory-access-ordering insight of
// ThunderRW/FlashMob): trials against the same vertex then hit warm sampler
// rows and neighbor spans. Observationally safe — walkers carry their own RNG
// streams, so processing order never changes walk output.
enum class BatchSortMode {
  kAuto = 0,    // group when the estimated touched bytes overflow the L2 share
  kAlways = 1,  // group every batch (tests / ablations)
  kNever = 2,   // arrival order (pre-overhaul behaviour)
};

// Unread; see WalkEngineOptions::worker_schedule.
enum class WorkerSchedule {
  kFixed = 0,
};

struct WalkEngineOptions {
  // Logical cluster size (the paper's "nodes").
  node_rank_t num_nodes = 1;
  // Worker threads per node in full mode; 0 runs everything inline.
  size_t workers_per_node = 0;
  // Straggler-aware scheduling (§6.2): below the threshold a node stops
  // using its worker pool.
  bool enable_light_mode = false;
  uint64_t light_mode_threshold = 4000;
  // Static (Ps) candidate sampler strategy.
  StaticSamplerKind sampler_kind = StaticSamplerKind::kAuto;
  // Master seed; every walker derives its own deterministic stream.
  uint64_t seed = 1;
  // Record every walker position (costs memory; excluded from timing in the
  // paper, so benchmarks leave it off).
  bool collect_paths = false;
  // Run each phase's per-node work on one thread per logical node, as a
  // real cluster would execute concurrently. Results are identical either
  // way (walkers carry their own RNG); default off — on few-core machines
  // the sequential driver is faster and timing-stable.
  bool parallel_nodes = false;
  // Fault injection (non-owning; see src/testing/fault_injector.h). When
  // set, the engine attaches the injector to all mailboxes and activates
  // its reliability protocol: acks + bounded retransmit for walker
  // messages, bounded re-issue of unanswered state queries, and receiver
  // dedup. Null disables both (zero overhead).
  FaultInjector* fault_injector = nullptr;
  // Locality pass over each node's active batch in full (non-light) mode;
  // see BatchSortMode. kAuto pays the grouping pass only when the batch's
  // estimated touched bytes (walker state + distinct vertex rows) no longer
  // fit the cache share, and never below kMinSortBatch walkers — see
  // ShouldSortBatch.
  BatchSortMode sort_batches = BatchSortMode::kAuto;
  // Unread: the engine starts exactly workers_per_node pool threads per node
  // and, with parallel_nodes, num_nodes - 1 driver threads, none of them
  // bound to a CPU. The field and its single value remain only because
  // kkbench/bench.h still assigns it; both go with the next change to
  // kkbench.
  WorkerSchedule worker_schedule = WorkerSchedule::kFixed;
  // Trace recording (runtime toggle; see src/obs/trace.h). When non-null the
  // engine records one span per BSP phase per iteration at the driver level
  // plus one span per logical node inside each phase, exportable to
  // chrome://tracing JSON. Null costs nothing — the engine never reads the
  // clock for tracing unless a recorder is attached.
  obs::TraceRecorder* trace = nullptr;
  // Epoch-based checkpointing: every `checkpoint_every` supersteps (counting
  // from 0, so an initial snapshot is always taken before the first
  // iteration) the driver serializes all live walker state to
  // `checkpoint_path` (atomically, via tmp + rename). 0 disables
  // checkpointing entirely — the engine never touches the filesystem.
  // Required (> 0, non-empty path) when the attached FaultInjector schedules
  // node crashes; see src/engine/checkpoint.h and docs/TESTING.md.
  uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  // Long-lived ("run forever") mode: keep the static sampler and the Pd
  // envelope arrays across Runs instead of rebuilding them per Run. Only
  // valid when every Run uses the same static_comp / dynamic bound callbacks
  // (the serving layer replays the same transition for every batch); walker
  // state is still reset per Run. Off by default: batch callers may change
  // the transition between Runs.
  bool reuse_static_state = false;
  // Streaming graph mutations (ROADMAP item 2; docs/DYNAMIC_GRAPHS.md).
  // Non-owning log of epoch-tagged edge insert/delete/reweight batches; the
  // driver applies every batch whose epoch has been reached at the top of
  // the superstep loop, before that superstep's checkpoint cut. Null keeps
  // the graph static (the mutation read path costs one predictable branch).
  // Mutations are incompatible with second-order transitions (parked trials
  // hold local edge indices across supersteps, and respond_query reads the
  // base CSR) and with reuse_static_state — both are rejected by
  // ValidateRun() before any setup runs.
  const MutationLog* mutation_log = nullptr;
  // Per-vertex delta budget: once any overlay row has absorbed this many
  // mutations, the whole overlay is folded back into a fresh CSR at the next
  // batch boundary and the flat sampler state is rebuilt. 0 never merges.
  uint32_t merge_threshold = 64;
  // Unread: every weighted dirty row samples through a LazyAliasRow
  // (docs/DYNAMIC_GRAPHS.md). The field and its single value remain only
  // because kkbench/batch.cc still assigns it; both go with the next change
  // to kkbench.
  DynamicSamplerMode dynamic_sampler = DynamicSamplerMode::kAliasClass;
};

// Wall-clock breakdown of the last Run, accumulated per phase by the
// driver. With parallel_nodes the per-phase figure is the barrier-to-
// barrier wall time across all nodes.
struct EnginePhaseTimes {
  double prepare = 0.0;   // static sampler, Pd envelopes, per-node reset
  double deploy = 0.0;    // placing walkers on their start vertices
  double sample = 0.0;    // phase A: trials + lockstep walking
  double respond = 0.0;   // phase B: answering walker-to-vertex queries
  double resolve = 0.0;   // phase C: resolving parked trials
  double exchange = 0.0;  // mailbox barriers (walker moves + queries)
};

// Iterations without any walker progress before the engine declares the walk
// wedged (see Run()).
inline constexpr uint64_t kMaxStalledIterations = 100000;

// Lockstep mode: rejected trials per walker per iteration before the engine
// falls back to one exact full scan (FallbackScan). The scan samples the
// same law, so the bound only caps the darts spent on distributions with
// very low acceptance, such as Meta-path dead ends. A Meta-path sweep over
// 4..256 found 64 the knee between costly fallbacks and wasted trials
// (EXPERIMENTS.md).
inline constexpr uint32_t kMaxTrialsPerStep = 64;

// Supersteps a walker message may stay unacknowledged — or a state query
// unanswered — before it is re-sent. A fault-free round trip completes
// within one superstep; 2 tolerates one delay fault on a walker message or
// its ack without spurious retransmission. A state query's answer counts
// only in the superstep the query was issued for, so one delayed query or
// response always costs a re-issue.
inline constexpr uint32_t kRetryTimeout = 2;

// Bounded retries per message/query; exceeding this aborts the run (the
// simulated network is considered failed, not slow).
inline constexpr uint32_t kMaxRetries = 64;

// Checkpoint/recovery counters of the last Run. `checkpoint_micros` is
// wall-clock and therefore not comparable across runs; the other three are
// deterministic for a given configuration.
struct CheckpointStats {
  uint64_t checkpoints = 0;       // snapshots committed
  uint64_t checkpoint_bytes = 0;  // total bytes across committed snapshots
  uint64_t checkpoint_micros = 0; // wall-clock spent serializing
  uint64_t recoveries = 0;        // crash recoveries performed
};

// Cumulative streaming-mutation counters (docs/DYNAMIC_GRAPHS.md). They
// survive overlay merges (folded out before each reset) and are rebuilt by a
// recovery replay, so they always describe the applied history behind the
// engine's current graph state. All deterministic for a given configuration.
struct MutationCounters {
  uint64_t inserted = 0;
  uint64_t removed = 0;
  uint64_t reweighted = 0;
  uint64_t rejected = 0;             // delete-of-absent / reweight-on-unweighted
  uint64_t rows_materialized = 0;    // overlay rows created (first touches)
  uint64_t full_builds = 0;          // O(degree) whole-row sampler builds
  uint64_t bucket_builds = 0;        // lazy per-class alias (re)builds by samples
  uint64_t incremental_updates = 0;  // O(1) single-bucket sampler updates
  uint64_t merges = 0;               // overlay -> CSR folds
  uint64_t delta_mutations = 0;      // currently absorbed by the overlay (gauge)

  uint64_t applied() const { return inserted + removed + reweighted; }
};

template <typename EdgeData, typename WalkerState = EmptyWalkerState,
          typename QueryResponse = uint8_t>
class WalkEngine {
 public:
  using WalkerT = Walker<WalkerState>;
  using AdjT = AdjUnit<EdgeData>;
  using TransitionT = TransitionSpec<EdgeData, WalkerState, QueryResponse>;
  using WalkerSpecT = WalkerSpec<WalkerState>;

  WalkEngine(Csr<EdgeData> graph, WalkEngineOptions options)
      : graph_(std::move(graph)), options_(options) {
    KK_CHECK(options_.num_nodes > 0);
    std::vector<vertex_id_t> degrees(graph_.num_vertices());
    for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
      degrees[v] = graph_.OutDegree(v);
    }
    partition_ = Partition::FromDegrees(degrees, options_.num_nodes);
    nodes_.resize(options_.num_nodes);
    for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
      nodes_[n] = std::make_unique<NodeState>();
      if (options_.workers_per_node > 0) {
        nodes_[n]->pool = std::make_unique<ThreadPool>(options_.workers_per_node);
      }
    }
    if (options_.parallel_nodes && options_.num_nodes > 1) {
      // Persistent node-driver pool: the calling thread drives one node and
      // these workers drive the rest (see ForEachNode).
      driver_pool_ = std::make_unique<ThreadPool>(options_.num_nodes - 1);
    }
  }

  const Csr<EdgeData>& graph() const { return graph_; }
  const Partition& partition() const { return partition_; }
  const WalkEngineOptions& options() const { return options_; }

  // Reseeds subsequent Runs (multi-round deployments: §1's "repeated for
  // multiple rounds" run R rounds with distinct seeds over one engine).
  void set_seed(uint64_t seed) { options_.seed = seed; }

  // Validates the (options, transition) combination without running anything.
  // Returns the empty string when legal, else an actionable error message.
  // Long-lived callers (the serving layer) should reject configs here at
  // admission time: Run() enforces exactly these rules with KK_CHECK, which
  // aborts the process on a bad config submitted mid-flight.
  std::string ValidateRun(const TransitionT& transition) const {
    const bool checkpointing = options_.checkpoint_every > 0;
    if (checkpointing && options_.checkpoint_path.empty()) {
      return "checkpoint_every > 0 requires a checkpoint_path";
    }
    const FaultInjector* injector = options_.fault_injector;
    if (!checkpointing && injector != nullptr &&
        (injector->pending_crashes() != 0 || injector->pending_batch_crashes() != 0)) {
      return "scheduled node crashes require checkpointing "
             "(set WalkEngineOptions::checkpoint_every and checkpoint_path)";
    }
    if (transition.IsDynamic() && !transition.dynamic_upper_bound) {
      return "dynamic transition requires a dynamic_upper_bound callback "
             "(the rejection envelope has no ceiling without it)";
    }
    if (transition.IsSecondOrder() && !transition.respond_query) {
      return "second-order transition requires a respond_query callback "
             "(walkers must be able to ask the previous vertex's node)";
    }
    const bool mutating = options_.mutation_log != nullptr;
    if (mutating && transition.IsSecondOrder()) {
      return "streaming mutations are not supported with second-order "
             "transitions: parked trials carry local edge indices across "
             "supersteps and respond_query answers from the base CSR, both "
             "of which go stale under row edits. Run second-order walks on a "
             "static graph (drop WalkEngineOptions::mutation_log) or switch "
             "to a first-order transition (see docs/DYNAMIC_GRAPHS.md)";
    }
    if (mutating && options_.reuse_static_state) {
      return "streaming mutations rebuild static sampler state on merge; "
             "reuse_static_state would serve stale tables. Disable one of "
             "WalkEngineOptions::mutation_log / reuse_static_state";
    }
    return std::string();
  }

  // Executes the walk to completion and returns aggregate sampling stats.
  SamplingStats Run(const TransitionT& transition, const WalkerSpecT& walker_spec) {
    transition_ = &transition;
    walker_spec_ = &walker_spec;
    num_walkers_ = walker_spec.num_walkers;
    const std::string config_error = ValidateRun(transition);
    KK_CHECK_MSG(config_error.empty(), "%s", config_error.c_str());
    second_order_ = transition.IsSecondOrder();
    dynamic_ = transition.IsDynamic();
    mutating_ = options_.mutation_log != nullptr;
    weighted_ = transition.static_comp != nullptr || HasWeight<EdgeData>;
    if (mutating_ && !delta_.attached()) {
      // First mutating Run: snapshot the pristine CSR (the replay origin —
      // recovery re-derives any merged graph from it) and attach the overlay.
      pristine_graph_ = graph_;
      delta_.Reset(&graph_);
      overlay_.Reset(graph_.num_vertices());
      mutation_cursor_ = 0;
      merges_ = 0;
      merge_micros_ = 0;
      folded_ = MutationCounters{};
    }

    phase_times_ = EnginePhaseTimes{};
    ckpt_stats_ = CheckpointStats{};
    reliable_ = options_.fault_injector != nullptr;
    const bool checkpointing = options_.checkpoint_every > 0;
    include_local_faults_ =
        reliable_ && options_.fault_injector->policy().include_local;
    obs::TraceRecorder* const trace = options_.trace;
    if (trace != nullptr) {
      trace->SetProcessName(0, "driver");
      for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
        trace->SetProcessName(n + 1u, "node " + std::to_string(n));
      }
    }
    {
      obs::StageTimer span(trace, "prepare", 0, 0, &phase_times_.prepare);
      Prepare();
    }
    {
      obs::StageTimer span(trace, "deploy", 0, 0, &phase_times_.deploy);
      DeployWalkers();
    }

    active_history_.clear();
    walker_mail_ = std::make_unique<Mailbox<WalkerT>>(options_.num_nodes);
    query_mail_ = std::make_unique<Mailbox<QueryMsg>>(options_.num_nodes);
    response_mail_ = std::make_unique<Mailbox<ResponseMsg>>(options_.num_nodes);
    ack_mail_ = std::make_unique<Mailbox<AckMsg>>(options_.num_nodes);
    if (reliable_) {
      FaultInjector* injector = options_.fault_injector;
      // Fault decisions are keyed on message content (walker id, step, trial
      // epoch) — never buffer position — so the schedule is reproducible.
      walker_mail_->AttachFaultInjector(injector, 0x57414c4bULL, [](const WalkerT& w) {
        return HashCombine64(w.id, w.step);
      });
      query_mail_->AttachFaultInjector(injector, 0x51525259ULL, [](const QueryMsg& q) {
        return HashCombine64(q.walker, q.epoch);
      });
      response_mail_->AttachFaultInjector(injector, 0x52455350ULL, [](const ResponseMsg& r) {
        return HashCombine64(r.walker, r.epoch);
      });
      ack_mail_->AttachFaultInjector(injector, 0x41434b21ULL, [](const AckMsg& a) {
        return HashCombine64(a.walker, a.step);
      });
      walker_progress_.assign(num_walkers_, 0);
    } else {
      // Stale progress from an earlier reliable Run must not leak into this
      // run's snapshots (LoadCheckpoint validates the section size).
      walker_progress_.clear();
    }

    uint64_t iterations = 0;
    uint64_t last_progress_steps = 0;
    uint64_t stalled_iterations = 0;
    superstep_ = 0;
    for (;;) {
      uint64_t active_total = 0;
      uint64_t steps_total = 0;
      uint64_t outstanding = 0;  // parked trials + unacked walker messages
      for (auto& node : nodes_) {
        // Top-of-loop barrier: no phase in flight, but the analysis wants
        // the lock for parked/in_flight/stats — it is uncontended here.
        MutexLock lock(node->merge_mutex);
        active_total += node->active.size();
        outstanding += node->parked.size() + node->in_flight.size();
        steps_total += node->stats.steps;
      }
      if (active_total + outstanding == 0) {
        break;
      }
      // Safety net: a second-order walk whose parked walkers all face
      // zero-probability candidates would otherwise spin forever. Exact
      // algorithms with Pd bounded away from zero never trip this.
      if (steps_total == last_progress_steps) {
        KK_CHECK(++stalled_iterations < kMaxStalledIterations);
      } else {
        stalled_iterations = 0;
        last_progress_steps = steps_total;
      }
      // Mutations apply before this superstep's checkpoint cut, so a
      // snapshot at superstep s always contains every batch with epoch <= s
      // — the invariant the recovery replay depends on.
      if (mutating_) {
        ApplyDueMutations();
        // Once per superstep: RowBytes visits every overlay row, far too
        // slow for the per-node, per-superstep locality estimate.
        overlay_row_bytes_ =
            overlay_.NumRows() > 0 ? overlay_.RowBytes() / overlay_.NumRows() : 0;
      }
      // Snapshot before probing for crashes: the initial save at superstep 0
      // guarantees every crash finds a checkpoint at or before its epoch.
      // Re-saving after a recovery lands back on a checkpoint boundary just
      // rewrites an identical snapshot (the restored state is the state that
      // was saved).
      if (checkpointing && superstep_ % options_.checkpoint_every == 0) {
        SaveCheckpoint();
      }
      if (reliable_) {
        std::optional<node_rank_t> crashed =
            options_.fault_injector->TakeCrash(superstep_);
        if (crashed.has_value()) {
          RecoverFromCrash(*crashed);
          continue;  // re-enter the loop at the restored superstep
        }
      }
      active_history_.push_back(active_total);
      ++iterations;
      ++superstep_;
      RunIteration();
    }

    SamplingStats aggregate;
    for (auto& node : nodes_) {
      MutexLock lock(node->merge_mutex);
      aggregate.Merge(node->stats);
    }
    aggregate.iterations = iterations;
    last_stats_ = aggregate;
    // The spec references are only valid during Run (callers may pass
    // temporaries); clear them so later accessors cannot dangle.
    transition_ = nullptr;
    walker_spec_ = nullptr;
    return aggregate;
  }

  // Active walkers at the start of each iteration of the last Run (Fig. 5).
  const std::vector<uint64_t>& active_history() const { return active_history_; }

  // Per-phase wall-clock breakdown of the last Run.
  const EnginePhaseTimes& phase_times() const { return phase_times_; }

  // Communication volume of the last Run (acks only flow under fault
  // injection, so fault-free figures are unchanged by the ack mailbox).
  uint64_t cross_node_messages() const {
    return walker_mail_->cross_node_messages() + query_mail_->cross_node_messages() +
           response_mail_->cross_node_messages() + ack_mail_->cross_node_messages();
  }
  uint64_t cross_node_bytes() const {
    return walker_mail_->cross_node_bytes() + query_mail_->cross_node_bytes() +
           response_mail_->cross_node_bytes() + ack_mail_->cross_node_bytes();
  }

  const SamplingStats& last_stats() const { return last_stats_; }

  // Checkpoint/recovery counters of the last Run (all zero when
  // options.checkpoint_every is 0).
  const CheckpointStats& checkpoint_stats() const { return ckpt_stats_; }

  // Streaming-mutation counters over the engine lifetime (all zero without a
  // mutation log). Live counters plus everything folded out at merges.
  MutationCounters mutation_counters() const {
    MutationCounters c = folded_;
    AddLiveMutationCounters(c);
    c.merges = merges_;
    c.delta_mutations = delta_.DeltaMutations();
    return c;
  }

  // Mutation-log batches applied so far (the checkpoint cursor).
  size_t mutation_batches_applied() const { return mutation_cursor_; }

  // Wall-clock spent folding the overlay into fresh CSRs (all merges so
  // far). Unstable across machines — exported as an unstable metric.
  uint64_t merge_micros() const { return merge_micros_; }

  // kAuto locality estimate: bytes a batch of this size will touch — its own
  // walker state, one static row per distinct landing vertex, and (under
  // mutation) the overlay adjacency + weight-class rows of whatever dirty
  // vertices it can hit. ShouldSortBatch compares this against the L2
  // share; public so tests can pin the estimate's mutation term.
  uint64_t EstimatedBatchTouchedBytes(size_t batch_size) const {
    const uint64_t walker_bytes = batch_size * sizeof(WalkerT);
    const uint64_t rows = std::min<uint64_t>(batch_size, graph_.num_vertices());
    uint64_t touched = walker_bytes + rows * bytes_per_vertex_;
    // Delta-overlay rows are hot state the static footprint knows nothing about:
    // without this term the estimate goes stale as mutations accumulate and
    // kAuto under-sorts exactly when locality matters most. The weight-class
    // row size is the one sampled at the last superstep barrier.
    const uint64_t dirty = std::min<uint64_t>(rows, delta_.NumDirtyRows());
    if (dirty > 0) {
      touched += dirty * (delta_.BytesPerDirtyRow() + overlay_row_bytes_);
    }
    return touched;
  }

  // Restores engine state from a snapshot written by SaveCheckpoint. All
  // validation — header fields against this engine's configuration and
  // template instantiation, every declared count against the remaining file
  // size, the FNV-1a trailer, and every walker id, vertex, edge index and
  // node rank later code indexes with — happens before any state is touched,
  // so a corrupt or mismatched snapshot returns false and leaves the engine
  // unchanged. Driver-only.
  bool LoadCheckpoint(const std::string& path) {
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
    // Fully validated — commit. next_active is a transient that is always
    // empty at the top-of-loop cut the snapshot was taken at. Parked trials
    // take their section's order, so each one's slot is its index there;
    // in-transit queries never survive a restore (RecoverFromCrash wipes the
    // mailboxes), so no response can address an older slot.
    superstep_ = h.superstep;
    walker_progress_ = std::move(progress);
    active_history_ = std::move(history);
    for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
      NodeState& node = *nodes_[n];
      NodeSnapshot& ns = snap[n];
      MutexLock lock(node.merge_mutex);  // driver-only; satisfies the analysis
      node.stats = ns.stats;
      node.active = std::move(ns.active);
      node.next_active.clear();
      node.parked = std::move(ns.parked);
      node.in_flight.clear();
      for (InFlightMove& move : ns.unacked) {
        node.in_flight.emplace(move.walker.id, std::move(move));
      }
      node.path_log = std::move(ns.path_log);
    }
    if (options_.mutation_log != nullptr) {
      if (transition_ != nullptr) {
        // In-Run restore (crash recovery): re-derive the graph at the cut by
        // replaying the applied prefix from the pristine CSR — overlay rows,
        // merge points, and incremental weight totals included, byte for
        // byte (see docs/DYNAMIC_GRAPHS.md).
        ReplayMutationPrefix(static_cast<size_t>(h.mutation_batches));
      } else {
        // Driver-only restore outside Run: record the cursor; the graph
        // replay needs the transition's Ps and bounds, so Run performs it.
        mutation_cursor_ = static_cast<size_t>(h.mutation_batches);
      }
    }
    return true;
  }

  // Assembles the last Run's paths (requires options.collect_paths) into
  // *out with one two-pass counting scatter over the node logs: pass 1
  // counts each walker's entries into CSR offsets, pass 2 writes every
  // vertex at offsets[walker] + step. No sort and no per-walker allocation;
  // *out's buffers are reused. Aborts unless each walker's log holds every
  // step below its entry count exactly once.
  void TakeFlatPaths(FlatPaths* out) {
    std::vector<uint64_t>& offsets = out->offsets;
    std::vector<vertex_id_t>& vertices = out->vertices;
    offsets.assign(static_cast<size_t>(num_walkers_) + 1, 0);
    for (auto& node : nodes_) {
      MutexLock lock(node->merge_mutex);  // post-Run, uncontended
      for (const PathEntry& entry : node->path_log) {
        KK_CHECK(entry.walker < num_walkers_);
        offsets[entry.walker + 1] += 1;
      }
    }
    for (size_t w = 1; w < offsets.size(); ++w) {
      offsets[w] += offsets[w - 1];
    }
    // kInvalidVertex marks a slot not yet written; no graph vertex has it.
    vertices.assign(offsets.back(), kInvalidVertex);
    for (auto& node : nodes_) {
      MutexLock lock(node->merge_mutex);  // post-Run, uncontended
      for (const PathEntry& entry : node->path_log) {
        const uint64_t begin = offsets[entry.walker];
        const uint64_t count = offsets[entry.walker + 1] - begin;
        const bool fresh = entry.step < count && vertices[begin + entry.step] == kInvalidVertex;
        KK_CHECK_MSG(fresh && entry.vertex != kInvalidVertex,
                     "non-contiguous path log for walker %llu: step %u (vertex %u) %s "
                     "among its %llu log entries; a step record was dropped or "
                     "double-delivered upstream",
                     static_cast<unsigned long long>(entry.walker),
                     static_cast<unsigned>(entry.step), static_cast<unsigned>(entry.vertex),
                     entry.step >= count ? "is out of range" : "is logged twice",
                     static_cast<unsigned long long>(count));
        vertices[begin + entry.step] = entry.vertex;
      }
      node->path_log.clear();
    }
  }

  // The raw path log node n recorded during the last Run, in arrival order
  // (requires options.collect_paths; the Take* calls empty it). Read it only
  // between Runs, like node_observability below.
  const std::vector<PathEntry>& node_path_log(node_rank_t n) const
      KK_NO_THREAD_SAFETY_ANALYSIS {
    return nodes_[n]->path_log;
  }

  // The raw path log of the last Run in canonical (walker, step) order
  // (requires options.collect_paths): a view over TakeFlatPaths.
  // Deterministic-simulation tests compare this representation byte for byte.
  std::vector<PathEntry> TakePathEntries() {
    FlatPaths flat;
    TakeFlatPaths(&flat);
    std::vector<PathEntry> entries;
    entries.reserve(flat.vertices.size());
    for (size_t w = 0; w < flat.num_paths(); ++w) {
      step_t step = 0;
      for (vertex_id_t v : flat.Path(w)) {
        entries.push_back({static_cast<walker_id_t>(w), step++, v});
      }
    }
    return entries;
  }

  // The last Run's walk sequences indexed by walker id (requires
  // options.collect_paths): a copy of TakeFlatPaths into one vector per
  // walker.
  std::vector<std::vector<vertex_id_t>> TakePaths() {
    FlatPaths flat;
    TakeFlatPaths(&flat);
    std::vector<std::vector<vertex_id_t>> paths(flat.num_paths());
    for (size_t w = 0; w < paths.size(); ++w) {
      std::span<const vertex_id_t> path = flat.Path(w);
      paths[w].assign(path.begin(), path.end());
    }
    return paths;
  }

  // Per-node phase-attributed counters of the last Run (empty no-op type
  // when built with -DKK_OBS=OFF; see src/obs/counters.h).
  // KK_NO_THREAD_SAFETY_ANALYSIS: returns a reference to merge_mutex-guarded
  // state. Safe because callers read it only between Runs, after every
  // worker chunk joined at the BSP barrier (ParallelFor's return is the
  // happens-before edge); holding the lock here could not outlive the return
  // anyway.
  const obs::PhaseAccumulator& node_observability(node_rank_t n) const
      KK_NO_THREAD_SAFETY_ANALYSIS {
    return nodes_[n]->obs;
  }

  // Publishes the last Run's counters into `out` under the metrics-snapshot
  // schema (docs/OBSERVABILITY.md). `base_labels` is attached to every
  // metric (e.g. {{"workload", "node2vec"}}). Aggregate counters, phase
  // timings, and cross-node totals are always available; the per-node
  // per-phase breakdown, scratch-pool counters, and the per-destination
  // mailbox matrix additionally require a KK_OBS build.
  void ExportMetrics(obs::MetricsRegistry& out, const obs::Labels& base_labels = {}) const {
    auto with = [&base_labels](obs::Labels extra) {
      extra.insert(extra.end(), base_labels.begin(), base_labels.end());
      return extra;
    };
    last_stats_.ForEachField([&](const char* field, uint64_t v) {
      out.AddCounter(std::string("engine.") + field, with({}), v);
    });
    out.SetGauge("engine.acceptance_rate", with({}), last_stats_.AcceptanceRate(),
                 /*stable=*/true);
    out.AddCounter("engine.sampler_bytes", with({}), sampler_.MemoryBytes());
    // Streaming-mutation counters (all zero without a mutation log; see
    // docs/DYNAMIC_GRAPHS.md). All deterministic for a given configuration.
    const MutationCounters mc = mutation_counters();
    out.SetGauge("graph.delta_edges", with({}),
                 static_cast<double>(mc.delta_mutations), /*stable=*/true);
    out.AddCounter("graph.merges", with({}), mc.merges);
    // Wall-clock: never part of the deterministic snapshot contract.
    out.AddCounter("graph.merge_micros", with({}), merge_micros_, /*stable=*/false);
    out.AddCounter("graph.mutations_applied", with({}), mc.applied());
    out.AddCounter("graph.mutations_rejected", with({}), mc.rejected);
    out.AddCounter("sampler.incremental_updates", with({}), mc.incremental_updates);
    out.AddCounter("sampler.full_builds", with({}), mc.full_builds);
    out.AddCounter("sampler.bucket_builds", with({}), mc.bucket_builds);
    out.AddCounter("engine.checkpoints", with({}), ckpt_stats_.checkpoints);
    out.AddCounter("engine.checkpoint_bytes", with({}), ckpt_stats_.checkpoint_bytes);
    // Wall-clock: never part of the deterministic snapshot contract.
    out.AddCounter("engine.checkpoint_micros", with({}), ckpt_stats_.checkpoint_micros,
                   /*stable=*/false);
    out.AddCounter("engine.recoveries", with({}), ckpt_stats_.recoveries);
    out.SetGauge("engine.phase_seconds", with({{"phase", "prepare"}}), phase_times_.prepare);
    out.SetGauge("engine.phase_seconds", with({{"phase", "deploy"}}), phase_times_.deploy);
    out.SetGauge("engine.phase_seconds", with({{"phase", "sample"}}), phase_times_.sample);
    out.SetGauge("engine.phase_seconds", with({{"phase", "respond"}}), phase_times_.respond);
    out.SetGauge("engine.phase_seconds", with({{"phase", "resolve"}}), phase_times_.resolve);
    out.SetGauge("engine.phase_seconds", with({{"phase", "exchange"}}), phase_times_.exchange);
    if (obs::kObsEnabled) {
      // Scratch-pool reuse depends on worker-pool scheduling, so it is only
      // a stable (run-to-run comparable) metric when chunks run inline.
      const bool scratch_stable = options_.workers_per_node == 0;
      for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
        MutexLock node_lock(nodes_[n]->merge_mutex);  // post-Run, uncontended
        const obs::PhaseAccumulator& acc = nodes_[n]->obs;
        obs::Labels node_label = {{"node", std::to_string(n)}};
        for (size_t p = 0; p < obs::kNumPhases; ++p) {
          auto phase = static_cast<obs::Phase>(p);
          SamplingStats stats = acc.Stats(phase);
          stats.ForEachField([&](const char* field, uint64_t v) {
            if (v != 0) {
              out.AddCounter(std::string("engine.phase.") + field,
                             with({{"node", std::to_string(n)},
                                   {"phase", obs::PhaseName(phase)}}),
                             v);
            }
          });
        }
        out.AddCounter("engine.scratch_pool.hits", with(node_label), acc.scratch_hits,
                       scratch_stable);
        out.AddCounter("engine.scratch_pool.misses", with(node_label), acc.scratch_misses,
                       scratch_stable);
        out.AddCounter("engine.batch_sorts", with(node_label), acc.batch_sorts);
      }
    }
    auto export_mailbox = [&](const char* name, const auto& mail) {
      if (mail == nullptr) {
        return;
      }
      obs::Labels mail_label = {{"mailbox", name}};
      out.AddCounter("engine.mailbox.cross_node_messages", with(mail_label),
                     mail->cross_node_messages());
      out.AddCounter("engine.mailbox.cross_node_bytes", with(mail_label),
                     mail->cross_node_bytes());
      if (obs::kObsEnabled) {
        for (node_rank_t src = 0; src < options_.num_nodes; ++src) {
          for (node_rank_t dst = 0; dst < options_.num_nodes; ++dst) {
            uint64_t messages = mail->posted_messages(src, dst);
            if (messages == 0) {
              continue;
            }
            obs::Labels channel = {{"mailbox", name},
                                   {"src", std::to_string(src)},
                                   {"dst", std::to_string(dst)}};
            out.AddCounter("engine.mailbox.posted_messages", with(channel), messages);
            out.AddCounter("engine.mailbox.posted_bytes", with(channel),
                           mail->posted_bytes(src, dst));
          }
        }
      }
    };
    export_mailbox("walker", walker_mail_);
    export_mailbox("query", query_mail_);
    export_mailbox("response", response_mail_);
    export_mailbox("ack", ack_mail_);
  }

 private:
  // State query of a parked second-order trial (§5.1's two-round exchange).
  // `slot` locates the trial in the origin node's `parked` vector; the
  // content key (walker, epoch) names the issue the fault injector hashes and
  // phase C checks the slot against. A walker has at most one trial parked,
  // and every issue of it (first or re-issued) has its own epoch: the
  // superstep whose query exchange first carries it.
  struct QueryMsg {
    walker_id_t walker = 0;   // content key, with epoch
    vertex_id_t target = 0;   // vertex whose owner answers
    vertex_id_t subject = 0;  // candidate destination being asked about
    node_rank_t origin = 0;   // node holding the parked trial
    uint32_t slot = 0;        // index into the origin's parked vector
    uint64_t epoch = 0;       // superstep the issue is answered in
  };

  struct ResponseMsg {
    walker_id_t walker = 0;
    uint64_t epoch = 0;
    uint32_t slot = 0;
    QueryResponse payload{};
  };

  // The slot fills alignment padding, so it costs no message bytes.
  static_assert(sizeof(QueryMsg) == 32);
  static_assert(sizeof(QueryResponse) > sizeof(uint32_t) || sizeof(ResponseMsg) == 24);

  // Canonical snapshot order of parked trials and in-flight copies.
  static constexpr auto kByWalkerId = [](const auto& a, const auto& b) {
    return a.walker.id < b.walker.id;
  };

  // Positive acknowledgement of a delivered walker message (reliability
  // protocol; only flows under fault injection).
  struct AckMsg {
    walker_id_t walker = 0;
    step_t step = 0;
  };

  // A second-order trial parked while its state query is in flight.
  struct PendingTrial {
    WalkerT walker;
    vertex_id_t candidate = 0;     // local edge index at walker.cur
    real_t y = 0.0f;               // dart height, compared against Pd
    vertex_id_t query_target = 0;  // queried vertex (kept for re-issue)
    uint64_t epoch = 0;            // epoch of the latest query issue
    uint32_t age = 0;              // phase Cs waited since the latest issue
    uint32_t retries = 0;
    QueryResponse response{};
    bool responded = false;
  };

  // A walker message awaiting acknowledgement; the stored copy is
  // retransmitted verbatim after kRetryTimeout supersteps.
  struct InFlightMove {
    WalkerT walker;
    node_rank_t dst = 0;
    uint32_t age = 0;
    uint32_t retries = 0;
  };

  // Per-chunk scratch: merged into node/mailbox state at chunk end so the
  // hot loop takes no locks. Every outbound message kind accumulates in a
  // per-destination vector and flushes through the mailbox batch Post once
  // per chunk — the per-message Post overload never appears on a hot path.
  // Instances are pooled per node (Clear()-and-reuse), so steady-state
  // iterations allocate nothing: every vector keeps its high-water capacity.
  struct Scratch {
    std::vector<std::vector<WalkerT>> moves;         // per destination node
    std::vector<std::vector<QueryMsg>> queries;      // per destination node
    std::vector<std::vector<ResponseMsg>> responses; // per destination node
    std::vector<WalkerT> stay;
    std::vector<PendingTrial> pending_trials;
    std::vector<InFlightMove> tracked;  // copies awaiting acknowledgement
    std::vector<PathEntry> paths;
    SamplingStats stats;

    // Empties every buffer while retaining capacity. Batch Post moves the
    // *elements* out of the per-destination vectors but leaves the vectors'
    // storage in place, so a cleared scratch re-fills without reallocating.
    void Clear(node_rank_t num_nodes) {
      moves.resize(num_nodes);
      queries.resize(num_nodes);
      responses.resize(num_nodes);
      for (auto& m : moves) {
        m.clear();
      }
      for (auto& q : queries) {
        q.clear();
      }
      for (auto& r : responses) {
        r.clear();
      }
      stay.clear();
      pending_trials.clear();
      tracked.clear();
      paths.clear();
      stats = SamplingStats{};
    }
  };

  struct NodeState {
    // merge_mutex is the node's only capability: worker chunks merge their
    // scratch under it (MergeScratch / Acquire/ReleaseScratch), and every
    // driver-phase touch of the guarded members below takes it too — those
    // acquisitions are uncontended at BSP barriers, so the lock's cost is
    // confined to the per-chunk merges it always covered.
    Mutex merge_mutex;
    // Node-exclusive: only this node's phase driver (one thread at a time)
    // touches the active batch.
    std::vector<WalkerT> active;
    std::vector<WalkerT> next_active KK_GUARDED_BY(merge_mutex);
    // Second-order trials awaiting their state query's answer; a trial's
    // index is the slot its query carries. Fault-free, every slot is answered
    // in its own superstep and the vector drains each phase C (capacity
    // persists). Under faults, unanswered trials stay at the front.
    std::vector<PendingTrial> parked KK_GUARDED_BY(merge_mutex);
    std::unordered_map<walker_id_t, InFlightMove> in_flight KK_GUARDED_BY(merge_mutex);
    std::vector<PathEntry> path_log KK_GUARDED_BY(merge_mutex);
    SamplingStats stats KK_GUARDED_BY(merge_mutex);
    // Phase-attributed counters (empty no-op type under -DKK_OBS=OFF).
    obs::PhaseAccumulator obs KK_GUARDED_BY(merge_mutex);
    std::unique_ptr<ThreadPool> pool;
    // Scratch freelist: grows to the number of chunks this node ever runs
    // concurrently (workers + driver), then every acquisition is a pop.
    std::vector<std::unique_ptr<Scratch>> scratch_pool KK_GUARDED_BY(merge_mutex);
    // Driver-only buffer for phase C query re-issues (one per destination);
    // reused across iterations.
    std::vector<std::vector<QueryMsg>> requery_out;
    // Reused counting-sort buffers for the locality pass (driver-only per
    // node; see SortBatchByLocality).
    std::vector<WalkerT> sort_tmp_walkers;
    std::vector<uint32_t> sort_bucket_counts;
  };

  // Pops a cleared scratch from the node's freelist (or makes the pool's
  // first few on a cold start).
  std::unique_ptr<Scratch> AcquireScratch(NodeState& node) {
    {
      MutexLock lock(node.merge_mutex);
      if (!node.scratch_pool.empty()) {
        node.obs.CountScratch(/*hit=*/true);
        std::unique_ptr<Scratch> scratch = std::move(node.scratch_pool.back());
        node.scratch_pool.pop_back();
        return scratch;
      }
      node.obs.CountScratch(/*hit=*/false);
    }
    auto scratch = std::make_unique<Scratch>();
    scratch->Clear(options_.num_nodes);
    return scratch;
  }

  void ReleaseScratch(NodeState& node, std::unique_ptr<Scratch> scratch) {
    scratch->Clear(options_.num_nodes);  // clear outside the lock
    MutexLock lock(node.merge_mutex);
    node.scratch_pool.push_back(std::move(scratch));
  }

  enum class TrialOutcome { kAccept, kReject, kNeedQuery, kNoEdges };

  struct TrialResult {
    TrialOutcome outcome = TrialOutcome::kReject;
    vertex_id_t candidate = 0;
    real_t y = 0.0f;
    vertex_id_t query_target = 0;
  };

  real_t PsOf(vertex_id_t v, const AdjT& edge) const {
    return transition_->static_comp ? transition_->static_comp(v, edge)
                                    : StaticWeight(edge.data);
  }

  // ---- Mutation-aware read path -------------------------------------------
  // Every sampling-path graph access routes through these: a clean vertex
  // reads the base CSR / flat sampler tables exactly as before, a dirty one
  // reads its overlay adjacency / weight-class row. Without a mutation log
  // each helper is the old access plus one predictable branch.

  bool DirtyRow(vertex_id_t v) const { return mutating_ && delta_.IsDirty(v); }

  std::span<const AdjT> NeighborsOf(vertex_id_t v) const {
    return mutating_ ? delta_.Neighbors(v) : graph_.Neighbors(v);
  }

  vertex_id_t DegreeOf(vertex_id_t v) const {
    return mutating_ ? delta_.OutDegree(v) : graph_.OutDegree(v);
  }

  // Ps-proportional candidate draw at v. Unweighted dirty rows draw uniform
  // over the live degree (the flat uniform sampler's degree would be stale).
  // Non-const: an overlay sample may lazily materialize the class it lands
  // in (worker-thread-safe — see LazyAliasRow).
  vertex_id_t SampleCandidate(vertex_id_t v, Rng& rng) {
    if (DirtyRow(v)) {
      if (weighted_) {
        return static_cast<vertex_id_t>(overlay_.Sample(v, rng));
      }
      return static_cast<vertex_id_t>(rng.NextUInt64(delta_.OutDegree(v)));
    }
    return sampler_.Sample(v, rng);
  }

  // Sum of Ps over v's out-edges (the dartboard width).
  double CandidateWidth(vertex_id_t v) const {
    if (DirtyRow(v)) {
      return weighted_ ? overlay_.TotalWeight(v)
                       : static_cast<double>(delta_.OutDegree(v));
    }
    return sampler_.TotalWeight(v);
  }

  // Upper bound on any single Ps at v (outlier appendix width). The overlay
  // bound is monotone over the row's history — an over-estimate costs
  // appendix efficiency, never correctness.
  real_t CandidateMaxWeight(vertex_id_t v) const {
    if (DirtyRow(v)) {
      return weighted_ ? overlay_.MaxWeight(v) : 1.0f;
    }
    return sampler_.MaxWeight(v);
  }

  // ---- Streaming mutations (driver-only between supersteps) ---------------
  // See docs/DYNAMIC_GRAPHS.md. All of this runs at the top-of-loop barrier
  // with no phase in flight, so overlay rows are edited with no concurrent
  // reader.

  // Applies every not-yet-applied log batch whose epoch has been reached.
  void ApplyDueMutations() {
    const MutationLog& log = *options_.mutation_log;
    while (mutation_cursor_ < log.num_batches() &&
           log.batch(mutation_cursor_).epoch <= superstep_) {
      ApplyBatch(log.batch(mutation_cursor_));
      if (reliable_) {
        // Live path only (replay never re-arms): lets tests pin a crash to
        // "right after this batch landed" by content id. The crash fires in
        // this same superstep's TakeCrash probe, after the checkpoint save.
        options_.fault_injector->NotifyMutationBatch(log.batch(mutation_cursor_).id,
                                                     superstep_);
      }
      ++mutation_cursor_;
      // Merges fire only at batch boundaries: a threshold crossed mid-batch
      // defers to here, so every batch applies against one consistent base.
      if (delta_.pending_merge()) {
        MergeOverlay();
      }
    }
  }

  void ApplyBatch(const MutationBatch& batch) {
    for (const EdgeMutation& m : batch.mutations) {
      ApplyMutation(m);
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
    const RowEdit edit = delta_.Apply(m, options_.merge_threshold);
    if (weighted_) {
      switch (edit.kind) {
        case RowEdit::Kind::kNone:
          break;
        case RowEdit::Kind::kInsert:
          overlay_.PushBack(m.src,
                            PsOf(m.src, delta_.Neighbors(m.src)[edit.local_index]));
          break;
        case RowEdit::Kind::kRemove:
          overlay_.SwapRemove(m.src, edit.local_index);
          break;
        case RowEdit::Kind::kReweight:
          overlay_.Reweight(m.src, edit.local_index,
                            PsOf(m.src, delta_.Neighbors(m.src)[edit.local_index]));
          break;
      }
    }
    if (dynamic_ && edit.kind != RowEdit::Kind::kNone) {
      const vertex_id_t deg = delta_.OutDegree(m.src);
      upper_[m.src] = transition_->dynamic_upper_bound(m.src, deg);
      if (!lower_.empty()) {
        lower_[m.src] = transition_->dynamic_lower_bound(m.src, deg);
      }
    }
  }

  // Computes the Ps row for a freshly materialized vertex and builds its
  // weight-class row.
  void BuildOverlayRow(vertex_id_t v) {
    auto nbrs = delta_.Neighbors(v);
    ps_row_buffer_.resize(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ps_row_buffer_[i] = PsOf(v, nbrs[i]);
    }
    overlay_.BuildRow(v, ps_row_buffer_);
  }

  // Folds base + overlay into a fresh CSR and rebuilds the flat static state
  // over it. Clean rows byte-copy and dirty rows sort, in parallel vertex
  // chunks on the prepare pool; amortized over merge_threshold mutations per
  // row. Wall-clock accrues to merge_micros (graph.merge_micros, unstable).
  void MergeOverlay() {
    Timer merge_timer;
    // Preserves the live counters across the resets below.
    AddLiveMutationCounters(folded_);
    Csr<EdgeData> merged = delta_.MergedCsr(PreparePool());
    graph_ = std::move(merged);
    delta_.Reset(&graph_);
    overlay_.Reset(graph_.num_vertices());
    ++merges_;
    PrepareStatic();  // flat sampler tables, envelope arrays, partition plan
    merge_micros_ += static_cast<uint64_t>(merge_timer.Seconds() * 1e6);
  }

  // Adds the counters the delta store and the overlay have kept since their
  // last reset.
  void AddLiveMutationCounters(MutationCounters& c) const {
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

  // Rebuilds the graph exactly as it stood after `count` applied batches:
  // pristine CSR, replayed prefix, merges re-executed at the same points —
  // the same IEEE operation sequence the live run performed, so overlay rows
  // and incremental weight totals come back byte-identical. Counters reset
  // and re-accumulate, so post-recovery figures match a run that never
  // crashed up to the restored cut.
  void ReplayMutationPrefix(size_t count) {
    KK_CHECK(mutating_ && transition_ != nullptr);
    const MutationLog& log = *options_.mutation_log;
    KK_CHECK_MSG(count <= log.num_batches(),
                 "checkpoint applied %zu mutation batches but the log has %zu",
                 count, log.num_batches());
    graph_ = pristine_graph_;
    delta_.Reset(&graph_);
    overlay_.Reset(graph_.num_vertices());
    merges_ = 0;
    merge_micros_ = 0;
    folded_ = MutationCounters{};
    PrepareStatic();
    mutation_cursor_ = 0;
    while (mutation_cursor_ < count) {
      ApplyBatch(log.batch(mutation_cursor_));
      ++mutation_cursor_;
      if (delta_.pending_merge()) {
        MergeOverlay();
      }
    }
  }

  // The pool Prepare's O(V + E) precomputation runs on: the persistent
  // driver pool when one exists, else the first node's worker pool (all the
  // pools are otherwise idle between Runs), else inline.
  ThreadPool* PreparePool() {
    if (driver_pool_ != nullptr) {
      return driver_pool_.get();
    }
    if (!nodes_.empty() && nodes_[0]->pool != nullptr) {
      return nodes_[0]->pool.get();
    }
    return nullptr;
  }

  // Runs fn(begin, end) over [0, total) on `pool` in coarse chunks (inline
  // when pool is null). fn must write disjoint slices only.
  template <typename Fn>
  static void ParallelFill(ThreadPool* pool, size_t total, const Fn& fn) {
    if (pool == nullptr || pool->num_workers() == 0 || total == 0) {
      fn(0, total);
      return;
    }
    pool->ParallelFor(total, BuildChunkSize(total, pool->num_workers()), fn);
  }

  // Precomputes the static sampler and per-vertex envelope arrays. Both are
  // per-vertex independent, so the whole of Prepare parallelizes over vertex
  // chunks; the transition's bound callbacks must be pure (they are: the
  // apps' bounds are closed-form in the degree).
  void Prepare() {
    if (!options_.reuse_static_state || !static_prepared_) {
      PrepareStatic();
      static_prepared_ = true;
    }
    for (auto& node : nodes_) {
      MutexLock lock(node->merge_mutex);  // pre-Run, uncontended
      node->active.clear();
      node->next_active.clear();
      node->parked.clear();
      node->in_flight.clear();
      node->path_log.clear();
      node->stats = SamplingStats{};
      node->obs.Reset();
      node->requery_out.resize(options_.num_nodes);
    }
    ack_out_.resize(options_.num_nodes);
    retransmit_out_.resize(options_.num_nodes);
  }

  void PrepareStatic() {
    ThreadPool* pool = PreparePool();
    sampler_.Build(graph_, options_.sampler_kind, transition_->static_comp, pool);
    upper_.clear();
    lower_.clear();
    if (dynamic_) {
      upper_.resize(graph_.num_vertices());
      ParallelFill(pool, graph_.num_vertices(), [this](size_t begin, size_t end) {
        for (size_t v = begin; v < end; ++v) {
          auto vid = static_cast<vertex_id_t>(v);
          upper_[v] = transition_->dynamic_upper_bound(vid, graph_.OutDegree(vid));
        }
      });
      if (transition_->dynamic_lower_bound) {
        lower_.resize(graph_.num_vertices());
        ParallelFill(pool, graph_.num_vertices(), [this](size_t begin, size_t end) {
          for (size_t v = begin; v < end; ++v) {
            auto vid = static_cast<vertex_id_t>(v);
            lower_[v] = transition_->dynamic_lower_bound(vid, graph_.OutDegree(vid));
          }
        });
      }
    }
    // Average hot-state bytes per vertex row: adjacency, sampler tables and
    // the envelope scalars (the kAuto locality estimate's row size).
    const vertex_id_t num_v = graph_.num_vertices();
    const uint64_t footprint = graph_.num_edges() * sizeof(AdjT) + sampler_.MemoryBytes() +
                               (upper_.size() + lower_.size()) * sizeof(real_t);
    bytes_per_vertex_ = num_v > 0 ? std::max<uint64_t>(1, footprint / num_v) : 1;
  }

  void DeployWalkers() {
    // Deployment draws use the last stream block; walker i owns stream i.
    // Counter-block streams can never overlap or correlate (see rng.h).
    KK_CHECK(walker_spec_->num_walkers < kDeployStream);
    Rng deploy_rng;
    deploy_rng.SeedStream(options_.seed, kDeployStream);
    vertex_id_t num_v = graph_.num_vertices();
    KK_CHECK(num_v > 0);
    for (walker_id_t i = 0; i < walker_spec_->num_walkers; ++i) {
      WalkerT w;
      w.id = i;
      w.step = 0;
      w.prev = kInvalidVertex;
      w.cur = walker_spec_->start_vertex
                  ? walker_spec_->start_vertex(i, deploy_rng)
                  : static_cast<vertex_id_t>(i % num_v);
      KK_CHECK(w.cur < num_v);
      uint64_t stream = walker_spec_->rng_stream ? walker_spec_->rng_stream(i) : i;
      KK_CHECK(stream < kDeployStream);
      w.rng.SeedStream(options_.seed, stream);
      if (walker_spec_->init_state) {
        walker_spec_->init_state(w);
      }
      NodeState& node = *nodes_[partition_.OwnerOf(w.cur)];
      if (options_.collect_paths) {
        MutexLock lock(node.merge_mutex);  // sequential deploy, uncontended
        node.path_log.push_back({w.id, 0, w.cur});
      }
      // Arrival processing for step 0 (termination coin etc.).
      if (!ArrivalTerminates(w)) {
        node.active.push_back(std::move(w));
      }
    }
  }

  // Evaluates Pe on arrival: fixed length, per-step stop coin, and custom
  // exception criteria. Returns true when the walk ends here.
  bool ArrivalTerminates(WalkerT& w) {
    if (walker_spec_->max_steps != 0 && w.step >= walker_spec_->max_steps) {
      return true;
    }
    if (walker_spec_->terminate_prob > 0.0 &&
        w.rng.NextBernoulli(walker_spec_->terminate_prob)) {
      return true;
    }
    if (walker_spec_->terminate_if && walker_spec_->terminate_if(w)) {
      return true;
    }
    return false;
  }

  ThreadPool* PoolFor(NodeState& node, size_t work_items) {
    if (node.pool == nullptr) {
      return nullptr;
    }
    if (options_.enable_light_mode && work_items < options_.light_mode_threshold) {
      return nullptr;  // light mode: run inline, skip pool coordination
    }
    return node.pool.get();
  }

  template <typename Fn>
  void ParallelOver(NodeState& node, size_t total, const Fn& fn) {
    if (total == 0) {
      // Nothing to do: skip the call entirely so empty phases pay neither a
      // scratch acquisition nor a merge lock.
      return;
    }
    ThreadPool* pool = PoolFor(node, total);
    if (pool == nullptr) {
      fn(0, total);
      return;
    }
    pool->ParallelFor(total, kDefaultChunkSize, fn);
  }

  // Locality pass (§6.2 scheduling + the access-ordering insight ThunderRW
  // and FlashMob quantify): processing a batch in `cur` order turns the
  // sampler-row and neighbor-span accesses of consecutive walkers into reuse
  // hits instead of random misses. kAuto estimates the bytes the batch will
  // actually touch — its own walker state plus one vertex row per distinct
  // landing vertex — and pays the O(n) grouping pass only once that working
  // set overflows the L2 share; below that everything stays resident
  // regardless of order. The estimate uses the graph's measured
  // bytes-per-vertex, so heavier per-walker app state and denser graphs both
  // lower the trip point.
  bool ShouldSortBatch(size_t batch_size) const {
    switch (options_.sort_batches) {
      case BatchSortMode::kNever:
        return false;
      case BatchSortMode::kAlways:
        return batch_size > 1;
      case BatchSortMode::kAuto:
        break;
    }
    if (options_.enable_light_mode && batch_size < options_.light_mode_threshold) {
      return false;  // light mode: the node runs inline on a small tail
    }
    if (batch_size < kMinSortBatch) {
      return false;
    }
    return EstimatedBatchTouchedBytes(batch_size) >
           cache_geo_.l2_bytes / kBucketCacheShareDiv;
  }

  // The locality pass: groups `batch` by cur's vertex range (kSortBuckets
  // fixed ranges) with a stable counting sort into a per-node reused buffer
  // (steady state allocates nothing). The pass is a pure function of message
  // content plus input order. Never observable in walk output — each
  // walker's RNG stream is its own.
  void SortBatchByLocality(NodeState& node, std::vector<WalkerT>& batch) {
    uint64_t num_v = graph_.num_vertices();
    auto bucket_of = [num_v](const WalkerT& w) {
      return static_cast<size_t>(static_cast<uint64_t>(w.cur) * kSortBuckets / num_v);
    };
    std::vector<uint32_t>& counts = node.sort_bucket_counts;
    counts.assign(kSortBuckets + 1, 0);
    for (const WalkerT& w : batch) {
      counts[bucket_of(w) + 1] += 1;
    }
    for (size_t b = 0; b < kSortBuckets; ++b) {
      counts[b + 1] += counts[b];
    }
    std::vector<WalkerT>& tmp = node.sort_tmp_walkers;
    tmp.resize(batch.size());
    for (WalkerT& w : batch) {
      tmp[counts[bucket_of(w)]++] = std::move(w);
    }
    batch.swap(tmp);
  }

  // Runs body(i) over [begin, end), pulling walker i+1's graph/sampler rows
  // toward the cache while walker i computes (batches are cur-grouped, so
  // the hint is almost always useful). Dirty overlay rows get no hint: they
  // are small and recently written, so already hot.
  template <typename CurFn, typename BodyFn>
  void PrefetchedRun(size_t begin, size_t end, const CurFn& cur_of, const BodyFn& body) const {
    for (size_t i = begin; i < end; ++i) {
      if (i + 1 < end) {
        const vertex_id_t next = cur_of(i + 1);
        if (!DirtyRow(next)) {
          graph_.PrefetchNeighbors(next);
          sampler_.Prefetch(next);
        }
      }
      body(i);
    }
  }

  // One rejection-sampling trial for walker w at w.cur. Counts stats into
  // `stats` (chunk-local).
  TrialResult RunTrial(WalkerT& w, SamplingStats& stats) {
    vertex_id_t v = w.cur;
    vertex_id_t degree = DegreeOf(v);
    if (degree == 0) {
      return {TrialOutcome::kNoEdges, 0, 0.0f, 0};
    }
    if (!dynamic_) {
      // Static walk: Ps-proportional draw, always accepted.
      if (CandidateWidth(v) <= 0.0) {
        return {TrialOutcome::kNoEdges, 0, 0.0f, 0};
      }
      stats.trials += 1;
      stats.trial_accepts += 1;
      return {TrialOutcome::kAccept, SampleCandidate(v, w.rng), 0.0f, 0};
    }

    real_t q = upper_[v];
    double width = CandidateWidth(v);
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
                         static_cast<double>(CandidateMaxWeight(v));
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
      const AdjT& edge = NeighborsOf(v)[*idx];
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

    vertex_id_t candidate = SampleCandidate(v, w.rng);
    real_t y = static_cast<real_t>(w.rng.NextDouble(q));
    if (!lower_.empty() && y < lower_[v]) {
      stats.pre_accepts += 1;
      stats.trial_accepts += 1;
      return {TrialOutcome::kAccept, candidate, y, 0};
    }
    const AdjT& edge = NeighborsOf(v)[candidate];
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
  std::optional<vertex_id_t> FallbackScan(WalkerT& w, SamplingStats& stats) {
    vertex_id_t v = w.cur;
    auto neighbors = NeighborsOf(v);
    stats.fallback_scans += 1;
    stats.pd_computations += neighbors.size();
    double total = 0.0;
    scan_buffer_tl().resize(neighbors.size());
    auto& buf = scan_buffer_tl();
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

  static std::vector<double>& scan_buffer_tl() {
    thread_local std::vector<double> buf;
    return buf;
  }

  // Commits a successful trial: advances the walker over edge `candidate`
  // and routes it (or retires it).
  void CommitMove(WalkerT& w, vertex_id_t candidate, node_rank_t src_node, Scratch& scratch) {
    const AdjT& edge = NeighborsOf(w.cur)[candidate];
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
      // joins next_active through the same merge as stay-put walkers; walk
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
  void LockstepWalk(WalkerT& w, node_rank_t node_rank, Scratch& scratch) {
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
  void SecondOrderTrial(WalkerT& w, node_rank_t node_rank, Scratch& scratch) {
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
    const AdjT& edge = NeighborsOf(w.cur)[r.candidate];
    vertex_id_t subject = edge.neighbor;
    if (partition_.OwnerOf(r.query_target) == node_rank) {
      // Local-answer fast path: the queried vertex lives here.
      scratch.stats.queries_local += 1;
      QueryResponse resp = transition_->respond_query(graph_, r.query_target, subject);
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
    // The slot is scratch-local here; MergeScratch rebases it to the node's
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
  size_t RequeueUnanswered(NodeState& node, node_rank_t n, std::vector<PendingTrial>& trials,
                           SamplingStats& delta) {
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
      vertex_id_t subject = NeighborsOf(trial.walker.cur)[trial.candidate].neighbor;
      node.requery_out[partition_.OwnerOf(trial.query_target)].push_back(
          QueryMsg{trial.walker.id, trial.query_target, subject, n, slot, trial.epoch});
    }
    for (node_rank_t dst = 0; dst < options_.num_nodes; ++dst) {
      query_mail_->Post(n, dst, std::move(node.requery_out[dst]));
      node.requery_out[dst].clear();
    }
    return waiting;
  }

  // Merges chunk-local results into node state and flushes every outbound
  // buffer as one batch Post per destination (one channel lock per batch,
  // not one per message).
  void MergeScratch(NodeState& node, node_rank_t node_rank, Scratch& scratch, obs::Phase phase) {
    size_t parked_base = 0;
    {
      MutexLock lock(node.merge_mutex);
      node.stats.Merge(scratch.stats);
      node.obs.MergeStats(phase, scratch.stats);
      if (node.next_active.empty()) {
        // First merge of the iteration (always, in inline mode): adopt the
        // chunk's buffer wholesale instead of copying walkers one by one.
        // Capacities circulate — the scratch inherits next_active's drained
        // storage and refills it next acquisition.
        node.next_active.swap(scratch.stay);
      } else {
        node.next_active.insert(node.next_active.end(),
                                std::make_move_iterator(scratch.stay.begin()),
                                std::make_move_iterator(scratch.stay.end()));
      }
      node.path_log.insert(node.path_log.end(), scratch.paths.begin(), scratch.paths.end());
      if (!scratch.pending_trials.empty()) {
        parked_base = node.parked.size();
        KK_DCHECK(parked_base + scratch.pending_trials.size() <= UINT32_MAX);
        if (parked_base == 0) {
          node.parked.swap(scratch.pending_trials);
        } else {
          node.parked.insert(node.parked.end(),
                             std::make_move_iterator(scratch.pending_trials.begin()),
                             std::make_move_iterator(scratch.pending_trials.end()));
        }
      }
      for (auto& move : scratch.tracked) {
        // Overwrites any stale entry from an earlier acked-but-unlearned
        // step; receiver-side dedup makes the old copy harmless.
        node.in_flight[move.walker.id] = std::move(move);
      }
    }
    if (parked_base > 0) {
      // Rebase scratch-local slots to node-level parked slots.
      for (auto& dst_queries : scratch.queries) {
        for (QueryMsg& q : dst_queries) {
          q.slot += static_cast<uint32_t>(parked_base);
        }
      }
    }
    for (node_rank_t dst = 0; dst < options_.num_nodes; ++dst) {
      query_mail_->Post(node_rank, dst, std::move(scratch.queries[dst]));
      walker_mail_->Post(node_rank, dst, std::move(scratch.moves[dst]));
    }
  }

  // Runs fn(node_rank) for every logical node, concurrently when
  // parallel_nodes is set. fn must only touch its own node's state plus the
  // (internally synchronized) mailboxes. Concurrent execution dispatches one
  // node per chunk onto the persistent driver pool — the pre-overhaul
  // per-phase std::thread spawning cost a thread create/join per node per
  // phase per iteration.
  template <typename Fn>
  void ForEachNode(const Fn& fn) {
    node_rank_t num_nodes = options_.num_nodes;
    if (driver_pool_ != nullptr && num_nodes > 1) {
      driver_pool_->ParallelFor(num_nodes, 1, [&fn](size_t begin, size_t end) {
        for (size_t n = begin; n < end; ++n) {
          fn(static_cast<node_rank_t>(n));
        }
      });
    } else {
      for (node_rank_t n = 0; n < num_nodes; ++n) {
        fn(n);
      }
    }
  }

  // One node's sections of a snapshot, as LoadCheckpoint reads them.
  struct NodeSnapshot {
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
  bool SnapshotContentValid(const NodeSnapshot& ns) const {
    const vertex_id_t num_v = graph_.num_vertices();
    auto walker_ok = [&](const WalkerT& w) { return w.id < num_walkers_ && w.cur < num_v; };
    auto trial_ok = [&](const PendingTrial& t) {
      return walker_ok(t.walker) && t.candidate < graph_.OutDegree(t.walker.cur);
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
  // plus the driver's dedup/progress state. Mailbox buffers are not part of
  // the snapshot — undelivered retransmits and re-queries are regenerated by
  // the reliability protocol's timeout machinery after a restore, and
  // receiver-side dedup keeps the walk output byte-identical regardless.
  // A checkpoint that cannot be written aborts the run: silently skipping it
  // would void the recovery guarantee the caller asked for.
  void SaveCheckpoint() {
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
    if (mutating_) {
      h.mutation_batches = mutation_cursor_;
      h.mutation_hash = options_.mutation_log->PrefixHash(mutation_cursor_);
    }
    WriteCheckpointHeader(w, h);
    w.WriteVec(walker_progress_);
    w.WriteVec(active_history_);
    std::vector<PendingTrial> parked_sorted;
    std::vector<InFlightMove> inflight_sorted;
    for (auto& node : nodes_) {
      MutexLock lock(node->merge_mutex);  // top-of-loop barrier, uncontended
      w.Write(static_cast<uint64_t>(sizeof(SamplingStats)));
      w.WriteBytes(&node->stats, sizeof(SamplingStats));
      w.WriteVec(node->active);
      // Only the parked and in-flight sections are canonical (sorted by
      // walker id, so they do not reflect merge order or hash-map layout).
      // The active and path_log sections keep merge order; recovery does
      // not depend on it, since every walker carries its own RNG stream and
      // path assembly places entries by (walker, step).
      parked_sorted.assign(node->parked.begin(), node->parked.end());
      std::ranges::sort(parked_sorted, kByWalkerId);
      w.WriteVec(parked_sorted);
      inflight_sorted.clear();
      inflight_sorted.reserve(node->in_flight.size());
      // kk-lint: nondeterministic-order-ok
      for (const auto& kv : node->in_flight) {
        inflight_sorted.push_back(kv.second);
      }
      std::ranges::sort(inflight_sorted, kByWalkerId);
      w.WriteVec(inflight_sorted);
      w.WriteVec(node->path_log);
    }
    w.Write(w.checksum());
    uint64_t bytes = w.bytes_written();
    KK_CHECK_MSG(w.Close(), "checkpoint write to %s failed", tmp.c_str());
    KK_CHECK_MSG(CommitFile(tmp, options_.checkpoint_path),
                 "cannot commit checkpoint to %s", options_.checkpoint_path.c_str());
    ckpt_stats_.checkpoints += 1;
    ckpt_stats_.checkpoint_bytes += bytes;
    ckpt_stats_.checkpoint_micros += static_cast<uint64_t>(timer.Seconds() * 1e6);
  }

  // Simulated whole-node failure: node `rank` loses all volatile state, and
  // the cluster performs a coordinated rollback — every node (not just the
  // crashed one) reloads the last committed snapshot and the superstep loop
  // resumes from the restored cut. In-transit messages are wiped with the
  // node; the reliability protocol regenerates them. Mailbox fault epochs are
  // deliberately NOT rewound, so the injector may deal the replayed
  // supersteps a different fault schedule — the protocol makes walk output
  // invariant to that too, which is exactly what the recovery tests assert.
  void RecoverFromCrash(node_rank_t rank) {
    KK_CHECK_MSG(options_.checkpoint_every > 0,
                 "node crash fired with checkpointing disabled");
    KK_CHECK(rank < options_.num_nodes);
    obs::StageTimer span(options_.trace, "recover", 0, superstep_);
    NodeState& crashed = *nodes_[rank];
    {
      MutexLock lock(crashed.merge_mutex);  // no phase in flight during recovery
      crashed.active.clear();
      crashed.next_active.clear();
      crashed.parked.clear();
      crashed.in_flight.clear();
      crashed.path_log.clear();
      crashed.stats = SamplingStats{};
    }
    walker_mail_->Wipe();
    query_mail_->Wipe();
    response_mail_->Wipe();
    ack_mail_->Wipe();
    KK_CHECK_MSG(LoadCheckpoint(options_.checkpoint_path),
                 "cannot restore checkpoint %s after node %u crash",
                 options_.checkpoint_path.c_str(), static_cast<unsigned>(rank));
    ckpt_stats_.recoveries += 1;
    span.set_iteration(superstep_);  // the restored superstep
  }

  // One BSP superstep. Phase A samples; a second-order walk then delivers
  // its state queries (phase B) and resolves the parked trials with the
  // answers (phase C); walker moves are delivered last. Each phase records
  // one driver-lane span plus one span per logical node.
  void RunIteration() {
    SamplePhase();
    if (second_order_) {
      TimedExchange(*query_mail_);
      RespondPhase();
      TimedExchange(*response_mail_);
      ResolvePhase();
    }
    DeliverWalkers();
  }

  // A mailbox barrier outside the traced phases; its wall time counts as
  // exchange.
  template <typename Mail>
  void TimedExchange(Mail& mail) {
    Timer timer;
    mail.Exchange();
    phase_times_.exchange += timer.Seconds();
  }

  // Phase A: every active walker performs its sampling work. The locality
  // pass groups the batch by vertex first; the step loop then prefetches
  // one walker ahead. Both are unobservable in walk output — each walker's
  // RNG stream is its own.
  void SamplePhase() {
    obs::TraceRecorder* const trace = options_.trace;
    obs::StageTimer phase(trace, "sample", 0, superstep_, &phase_times_.sample);
    ForEachNode([&](node_rank_t n) {
      obs::StageTimer span(trace, "sample", n + 1u, superstep_);
      NodeState& node = *nodes_[n];
      std::vector<WalkerT> batch = std::move(node.active);
      node.active.clear();
      if (ShouldSortBatch(batch.size())) {
        SortBatchByLocality(node, batch);
        MutexLock lock(node.merge_mutex);  // pre-dispatch, uncontended
        node.obs.CountBatchSort();
      }
      ParallelOver(node, batch.size(), [&](size_t begin, size_t end) {
        std::unique_ptr<Scratch> scratch = AcquireScratch(node);
        PrefetchedRun(
            begin, end, [&](size_t i) { return batch[i].cur; },
            [&](size_t i) {
              if (second_order_) {
                SecondOrderTrial(batch[i], n, *scratch);
              } else {
                LockstepWalk(batch[i], n, *scratch);
              }
            });
        MergeScratch(node, n, *scratch, obs::Phase::kSample);
        ReleaseScratch(node, std::move(scratch));
      });
    });
  }

  // Phase B: the owners of the queried vertices answer the delivered
  // queries.
  void RespondPhase() {
    obs::TraceRecorder* const trace = options_.trace;
    obs::StageTimer phase(trace, "respond", 0, superstep_, &phase_times_.respond);
    ForEachNode([&](node_rank_t n) {
      obs::StageTimer span(trace, "respond", n + 1u, superstep_);
      NodeState& node = *nodes_[n];
      auto& inbox = query_mail_->Inbox(n);
      ParallelOver(node, inbox.size(), [&](size_t begin, size_t end) {
        std::unique_ptr<Scratch> scratch = AcquireScratch(node);
        for (size_t i = begin; i < end; ++i) {
          const QueryMsg& q = inbox[i];
          KK_DCHECK(partition_.Owns(n, q.target));
          QueryResponse payload = transition_->respond_query(graph_, q.target, q.subject);
          scratch->responses[q.origin].push_back({q.walker, q.epoch, q.slot, payload});
        }
        for (node_rank_t dst = 0; dst < options_.num_nodes; ++dst) {
          response_mail_->Post(n, dst, std::move(scratch->responses[dst]));
        }
        ReleaseScratch(node, std::move(scratch));
      });
      inbox.clear();
    });
  }

  // Phase C: responses have returned; parked trials decide.
  void ResolvePhase() {
    obs::TraceRecorder* const trace = options_.trace;
    obs::StageTimer phase(trace, "resolve", 0, superstep_, &phase_times_.resolve);
    ForEachNode([&](node_rank_t n) {
      obs::StageTimer span(trace, "resolve", n + 1u, superstep_);
      NodeState& node = *nodes_[n];
      SamplingStats resolve_delta;
      auto& resp_inbox = response_mail_->Inbox(n);
      // Every parked trial drains into this phase-local vector so the
      // worker chunks below never alias merge_mutex-guarded state (the
      // thread-safety analysis cannot track references into guarded
      // containers); swapping keeps parked's high-water capacity.
      std::vector<PendingTrial> trials;
      {
        MutexLock lock(node.merge_mutex);
        trials.swap(node.parked);
      }
      // A response lands in its slot only if the slot still holds the issue
      // it answers, unanswered and unmoved since (age 0). Anything else — a
      // duplicate, or a late answer to a trial that has waited through a
      // phase C — is stale. So acceptance depends on message content alone,
      // never on which slot merge order gave a trial.
      size_t answered = 0;
      for (const ResponseMsg& resp : resp_inbox) {
        PendingTrial* trial = resp.slot < trials.size() ? &trials[resp.slot] : nullptr;
        if (trial == nullptr || trial->walker.id != resp.walker ||
            trial->epoch != resp.epoch || trial->age != 0 || trial->responded) {
          resolve_delta.stale_responses += 1;
          continue;
        }
        trial->response = resp.payload;
        trial->responded = true;
        ++answered;
      }
      resp_inbox.clear();
      size_t waiting = 0;
      if (answered != trials.size()) {
        KK_CHECK_MSG(reliable_, "a state query went unanswered in a fault-free superstep");
        waiting = RequeueUnanswered(node, n, trials, resolve_delta);
      }
      // No locality re-sort here: resolved trials already arrive roughly
      // cur-clustered (phase A grouped their walkers), and PendingTrial is
      // heavy enough that another counting pass costs more than it saves.
      ParallelOver(node, trials.size() - waiting, [&](size_t begin, size_t end) {
        std::unique_ptr<Scratch> scratch = AcquireScratch(node);
        PrefetchedRun(
            waiting + begin, waiting + end, [&](size_t i) { return trials[i].walker.cur; },
            [&](size_t i) {
              PendingTrial& trial = trials[i];
              WalkerT& w = trial.walker;
              const AdjT& edge = NeighborsOf(w.cur)[trial.candidate];
              scratch->stats.pd_computations += 1;
              real_t pd = transition_->dynamic_comp(w, w.cur, edge, trial.response);
              if (trial.y < pd) {
                scratch->stats.trial_accepts += 1;
                CommitMove(w, trial.candidate, n, *scratch);
              } else {
                scratch->stats.trial_rejects += 1;
                scratch->stay.push_back(std::move(w));
              }
            });
        MergeScratch(node, n, *scratch, obs::Phase::kResolve);
        ReleaseScratch(node, std::move(scratch));
      });
      MutexLock lock(node.merge_mutex);
      // The waiting prefix is the new parked vector, slots unchanged
      // (phase C resolution commits or stays; it never parks a trial).
      KK_DCHECK(node.parked.empty());
      trials.resize(waiting);
      node.parked.swap(trials);
      node.stats.Merge(resolve_delta);
      node.obs.MergeStats(obs::Phase::kResolve, resolve_delta);
    });
  }

  // Walker movement: deliver and merge into next iteration's active sets,
  // then (under faults) process acks and retransmit timed-out moves.
  void DeliverWalkers() {
    const node_rank_t num_nodes = options_.num_nodes;
    obs::StageTimer phase(options_.trace, "exchange", 0, superstep_, &phase_times_.exchange);
    walker_mail_->Exchange();
    for (node_rank_t n = 0; n < num_nodes; ++n) {
      NodeState& node = *nodes_[n];
      SamplingStats exchange_delta;
      // Sequential driver loop after the barrier Exchange; the lock is
      // uncontended and covers next_active/stats/obs for the analysis.
      MutexLock lock(node.merge_mutex);
      auto& inbox = walker_mail_->Inbox(n);
      if (!reliable_) {
        node.next_active.insert(node.next_active.end(),
                                std::make_move_iterator(inbox.begin()),
                                std::make_move_iterator(inbox.end()));
      } else {
        for (WalkerT& w : inbox) {
          // Ack every delivery — including duplicates, so a lost ack does
          // not leave the sender retransmitting forever. The sender of a
          // moved walker is always the owner of its prev vertex.
          node_rank_t prev_owner = partition_.OwnerOf(w.prev);
          if (prev_owner != n || include_local_faults_) {
            ack_out_[prev_owner].push_back(AckMsg{w.id, w.step});
          }
          KK_DCHECK(w.id < walker_progress_.size());
          KK_DCHECK(w.step > 0);  // deployment never goes through the mailbox
          if (w.step <= walker_progress_[w.id]) {
            exchange_delta.duplicates_suppressed += 1;
            continue;  // duplicate or retransmit of an already-accepted step
          }
          walker_progress_[w.id] = w.step;
          node.next_active.push_back(std::move(w));
        }
        for (node_rank_t dst = 0; dst < num_nodes; ++dst) {
          ack_mail_->Post(n, dst, std::move(ack_out_[dst]));
          ack_out_[dst].clear();
        }
      }
      inbox.clear();
      node.active = std::move(node.next_active);
      node.next_active.clear();
      node.stats.Merge(exchange_delta);
      node.obs.MergeStats(obs::Phase::kExchange, exchange_delta);
    }
    // Ack processing: retire acknowledged in-flight copies, retransmit the
    // timed-out ones (reliability protocol; no-op fault-free).
    if (reliable_) {
      ack_mail_->Exchange();
      for (node_rank_t n = 0; n < num_nodes; ++n) {
        NodeState& node = *nodes_[n];
        SamplingStats ack_delta;
        MutexLock lock(node.merge_mutex);  // sequential driver loop, uncontended
        for (const AckMsg& a : ack_mail_->Inbox(n)) {
          auto it = node.in_flight.find(a.walker);
          if (it != node.in_flight.end() && it->second.walker.step == a.step) {
            node.in_flight.erase(it);
          }
        }
        ack_mail_->Inbox(n).clear();
        // Retransmit bookkeeping is per-entry and commutative; receivers dedup
        // by (walker, step), so posting order cannot change observable state.
        // kk-lint: nondeterministic-order-ok
        for (auto& [id, fl] : node.in_flight) {
          if (++fl.age >= kRetryTimeout) {
            KK_CHECK(fl.retries < kMaxRetries);
            fl.retries += 1;
            fl.age = 0;
            ack_delta.walker_retransmits += 1;
            retransmit_out_[fl.dst].push_back(fl.walker);
          }
        }
        for (node_rank_t dst = 0; dst < num_nodes; ++dst) {
          walker_mail_->Post(n, dst, std::move(retransmit_out_[dst]));
          retransmit_out_[dst].clear();
        }
        node.stats.Merge(ack_delta);
        node.obs.MergeStats(obs::Phase::kExchange, ack_delta);
      }
    }
  }

  Csr<EdgeData> graph_;
  WalkEngineOptions options_;
  Partition partition_;
  // Cache geometry detected once per engine; the kAuto grouping heuristic
  // derives from it.
  CacheGeometry cache_geo_ = CacheGeometry::Detect();
  // Average static row footprint, rebuilt with the static state (kAuto
  // heuristic; see EstimatedBatchTouchedBytes).
  uint64_t bytes_per_vertex_ = 1;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  // Persistent driver pool for parallel_nodes mode (null otherwise).
  std::unique_ptr<ThreadPool> driver_pool_;
  // Driver-only per-destination staging for ack and retransmit batches;
  // reused across nodes and iterations (the delivery loop is sequential).
  std::vector<std::vector<AckMsg>> ack_out_;
  std::vector<std::vector<WalkerT>> retransmit_out_;
  StaticSamplerSet<EdgeData> sampler_;
  // True once PrepareStatic has run; with options_.reuse_static_state set,
  // later Runs skip the sampler/envelope rebuild (serving hot path).
  bool static_prepared_ = false;
  std::vector<real_t> upper_;
  std::vector<real_t> lower_;
  // ---- Streaming mutations (docs/DYNAMIC_GRAPHS.md) ----
  // Pristine base CSR captured when the mutation log attaches: the replay
  // origin recovery re-derives any merged graph from.
  Csr<EdgeData> pristine_graph_;
  DeltaStore<EdgeData> delta_;
  DynamicSamplerOverlay overlay_;
  // Overlay sampler bytes per row as of this superstep's top-of-loop barrier
  // (EstimatedBatchTouchedBytes reads it; only batch order depends on it).
  uint64_t overlay_row_bytes_ = 0;
  std::vector<real_t> ps_row_buffer_;  // driver-only scratch for row builds
  size_t mutation_cursor_ = 0;         // log batches applied (checkpoint cut)
  uint64_t merges_ = 0;
  uint64_t merge_micros_ = 0;  // wall-clock in MergeOverlay (unstable metric)
  MutationCounters folded_;  // counters folded out of overlay resets at merge
  bool mutating_ = false;
  bool weighted_ = false;
  std::vector<uint64_t> active_history_;
  EnginePhaseTimes phase_times_;
  CheckpointStats ckpt_stats_;
  std::unique_ptr<Mailbox<WalkerT>> walker_mail_;
  std::unique_ptr<Mailbox<QueryMsg>> query_mail_;
  std::unique_ptr<Mailbox<ResponseMsg>> response_mail_;
  std::unique_ptr<Mailbox<AckMsg>> ack_mail_;
  // Highest step accepted per walker (reliability protocol dedup; only
  // consulted by the sequential driver loop, never by worker threads).
  std::vector<step_t> walker_progress_;
  uint64_t superstep_ = 0;
  bool reliable_ = false;
  bool include_local_faults_ = false;
  const TransitionT* transition_ = nullptr;
  const WalkerSpecT* walker_spec_ = nullptr;
  walker_id_t num_walkers_ = 0;
  bool second_order_ = false;
  bool dynamic_ = false;
  SamplingStats last_stats_;
};

}  // namespace knightking

#endif  // SRC_ENGINE_WALK_ENGINE_H_
