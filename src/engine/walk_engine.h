// The KnightKing walk engine (§4, §5, §6).
//
// Executes many walkers over a 1-D partitioned CSR graph in BSP supersteps
// on a simulated cluster of logical nodes. The sampling core is rejection
// sampling under a per-vertex envelope Q(v): each trial draws a candidate
// edge from the static component Ps (an alias table, or a uniform draw when
// the walk is unbiased) and a height y ~ U[0, Q(v)), then accepts iff
// y < Pd(candidate). Optimizations
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
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/engine_options.h"
#include "src/engine/mailbox.h"
#include "src/engine/mutable_graph.h"
#include "src/engine/path_log.h"
#include "src/obs/counters.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/engine/transition.h"
#include "src/engine/walker.h"
#include "src/graph/csr.h"
#include "src/graph/partition.h"
#include "src/sampling/static_sampler.h"
#include "src/sampling/stats.h"
#include "src/util/cache_geometry.h"
#include "src/util/check.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/util/types.h"

namespace knightking {

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
    std::vector<vertex_id_t> degrees(graph_.csr().num_vertices());
    for (vertex_id_t v = 0; v < graph_.csr().num_vertices(); ++v) {
      degrees[v] = graph_.csr().OutDegree(v);
    }
    partition_ = Partition::FromDegrees(degrees, options_.num_nodes);
    nodes_.resize(options_.num_nodes);
    for (node_rank_t n = 0; n < options_.num_nodes; ++n) {
      nodes_[n] = std::make_unique<NodeState>();
      if (options_.workers_per_node > 0) {
        nodes_[n]->pool = std::make_unique<ThreadPool>(options_.workers_per_node);
      }
      nodes_[n]->lanes.resize(options_.workers_per_node + 1);
      for (Scratch& lane : nodes_[n]->lanes) {
        lane.Resize(options_.num_nodes);
      }
    }
    walker_mail_ = std::make_unique<Mailbox<WalkerT>>(options_.num_nodes);
    query_mail_ = std::make_unique<Mailbox<QueryMsg>>(options_.num_nodes);
    response_mail_ = std::make_unique<Mailbox<ResponseMsg>>(options_.num_nodes);
    ack_mail_ = std::make_unique<Mailbox<AckMsg>>(options_.num_nodes);
    if (options_.parallel_nodes && options_.num_nodes > 1) {
      // Persistent node-driver pool: the calling thread drives one node and
      // these workers drive the rest (see ForEachNode).
      driver_pool_ = std::make_unique<ThreadPool>(options_.num_nodes - 1);
    }
  }

  const Csr<EdgeData>& graph() const { return graph_.csr(); }

  // The flat Ps tables over graph(); a dirty row of a mutating Run samples
  // from its overlay row instead.
  const StaticSamplerSet<EdgeData>& static_sampler() const { return sampler_; }

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
    if (injector != nullptr && options_.num_nodes == 1 && !injector->policy().include_local) {
      const FaultPolicy& policy = injector->policy();
      if (policy.drop > 0.0 || policy.delay > 0.0 || policy.duplicate > 0.0) {
        return "drop / delay / duplicate faults hit cross-node channels only, so on a "
               "one-node engine they never fire: set FaultPolicy::include_local or run "
               "more than one node";
      }
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
    graph_.BeginRun(options_.mutation_log, options_.merge_threshold,
                    /*weighted=*/transition.static_comp != nullptr || HasWeight<EdgeData>,
                    {.ps = [this](vertex_id_t v, const AdjT& edge) { return PsOf(v, edge); },
                     .refresh_envelope = [this](auto v, auto deg) { RefreshEnvelope(v, deg); },
                     .prepare_static = [this](const auto& reuse) { PrepareStatic(reuse); },
                     .pool = PreparePool()});

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
    walker_mail_->Reset();
    query_mail_->Reset();
    response_mail_->Reset();
    ack_mail_->Reset();
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
    // Phase wall times take one clock read per phase boundary (see
    // RunIteration). The census at the top of the loop counts toward the
    // sample phase; mutation batches, checkpoints and crash recovery count
    // toward no phase, so a Run that may do them restarts the clock after.
    const bool untimed_top = graph_.mutating() || checkpointing || reliable_;
    Timer phase_clock;
    for (;;) {
      uint64_t active_total = 0;
      uint64_t steps_total = 0;
      uint64_t outstanding = 0;  // parked trials + unacked walker messages
      for (const auto& node : nodes_) {
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
      if (graph_.mutating()) {
        Timer mutate_clock;
        graph_.ApplyDue(superstep_, options_.fault_injector);
        phase_times_.mutate += mutate_clock.Seconds();
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
      if (untimed_top) {
        phase_clock.Restart();
      }
      active_history_.push_back(active_total);
      ++iterations;
      ++superstep_;
      RunIteration(phase_clock);
    }

    ReleaseLargeBuffers();
    SamplingStats aggregate;
    for (const auto& node : nodes_) {
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

  // Checkpoint/recovery counters of the last Run (all zero when
  // options.checkpoint_every is 0).
  const CheckpointStats& checkpoint_stats() const { return ckpt_stats_; }

  // Streaming-mutation counters over the engine lifetime (all zero without a
  // mutation log). Live counters plus everything folded out at merges.
  MutationCounters mutation_counters() const { return graph_.counters(); }

  // Mutation-log batches applied so far (the checkpoint cursor).
  size_t mutation_batches_applied() const { return graph_.batches_applied(); }

  // Wall-clock spent folding the overlay into fresh CSRs (all merges so
  // far). Unstable across machines — exported as an unstable metric.
  uint64_t merge_micros() const { return graph_.merge_micros(); }

  // Restores engine state from a snapshot written by SaveCheckpoint. All
  // validation — header fields against this engine's configuration and
  // template instantiation, every declared count against the remaining file
  // size, the FNV-1a trailer, and every walker id, vertex, edge index and
  // node rank later code indexes with — happens before any state is touched,
  // so a corrupt or mismatched snapshot returns false and leaves the engine
  // unchanged. An engine with a mutation log restores only inside Run (crash
  // recovery); outside Run it refuses. Driver-only.
  bool LoadCheckpoint(const std::string& path);

  // The last Run's paths into *out (requires options.collect_paths); see AssembleFlatPaths.
  void TakeFlatPaths(FlatPaths* out) { AssembleFlatPaths(num_walkers_, PathLogs(), out); }

  // The raw path log node n recorded during the last Run, in arrival order
  // (requires options.collect_paths; the Take* calls empty it). Read it only
  // between Runs, like node_observability below.
  const std::vector<PathEntry>& node_path_log(node_rank_t n) const {
    return nodes_[n]->path_log;
  }

  // The raw path log of the last Run in canonical (walker, step) order
  // (requires options.collect_paths): a view over TakeFlatPaths.
  // Deterministic-simulation tests compare this representation byte for byte.
  std::vector<PathEntry> TakePathEntries() { return AssemblePathEntries(num_walkers_, PathLogs()); }

  // The last Run's walk sequences indexed by walker id (requires
  // options.collect_paths): a copy of TakeFlatPaths into one vector per
  // walker.
  std::vector<std::vector<vertex_id_t>> TakePaths() {
    return AssemblePaths(num_walkers_, PathLogs());
  }

  // Per-node phase-attributed counters of the last Run (empty no-op type
  // when built with -DKK_OBS=OFF; see src/obs/counters.h). Read them only
  // between Runs.
  const obs::PhaseAccumulator& node_observability(node_rank_t n) const {
    return nodes_[n]->obs;
  }

  // Publishes the last Run's counters into `out` under the metrics-snapshot
  // schema (docs/OBSERVABILITY.md). `base_labels` is attached to every
  // metric (e.g. {{"workload", "node2vec"}}). Aggregate counters, phase
  // timings, and cross-node totals are always available; the per-node
  // per-phase breakdown, locality-sort counts, and the per-destination
  // mailbox matrix additionally require a KK_OBS build.
  void ExportMetrics(obs::MetricsRegistry& out, const obs::Labels& base_labels = {}) const;

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

  // One lane's output buffers: a node owns one Scratch per thread that runs
  // its chunks (the node's driver is lane 0, pool worker i is lane i), so
  // the hot loop writes without locks. Every outbound message kind
  // accumulates in a per-destination vector and flushes through the mailbox
  // batch Post when the node merges its lanes, after the phase's chunks
  // joined — the per-message Post overload never appears on a hot path.
  // Every vector keeps its high-water capacity across phases.
  struct Scratch {
    std::vector<std::vector<WalkerT>> moves;         // per destination node
    std::vector<std::vector<QueryMsg>> queries;      // per destination node
    std::vector<std::vector<ResponseMsg>> responses; // per destination node
    std::vector<WalkerT> stay;
    std::vector<PendingTrial> pending_trials;
    std::vector<InFlightMove> tracked;  // copies awaiting acknowledgement
    std::vector<PathEntry> paths;
    SamplingStats stats;

    void Resize(node_rank_t num_nodes) {
      moves.resize(num_nodes);
      queries.resize(num_nodes);
      responses.resize(num_nodes);
    }
  };

  // One logical node. Only the node's driver touches it — the calling
  // thread, or with parallel_nodes the driver-pool thread running the node,
  // one phase at a time. The node's pool workers read the batch a phase
  // hands them and write only their own lane. So no member needs a lock:
  // ParallelForLanes' return orders the lanes' writes before the merge.
  struct NodeState {
    // Walkers that take a step this superstep. Phase A drains it; the
    // walkers staying on the node then refill it, and the ones delivered to
    // the node join them. A batch of at most one chunk trades storage with
    // the lanes' stay buffers, so a small superstep allocates nothing.
    std::vector<WalkerT> active;
    // Second-order trials awaiting their state query's answer; a trial's
    // index is the slot its query carries. Fault-free, every slot is answered
    // in its own superstep and the vector drains each phase C (capacity
    // persists). Under faults, unanswered trials stay at the front.
    std::vector<PendingTrial> parked;
    std::unordered_map<walker_id_t, InFlightMove> in_flight;
    std::vector<PathEntry> path_log;
    SamplingStats stats;
    // Phase-attributed counters (empty no-op type under -DKK_OBS=OFF).
    obs::PhaseAccumulator obs;
    std::unique_ptr<ThreadPool> pool;
    // One output lane per thread that runs this node's chunks: the driver
    // plus each pool worker.
    std::vector<Scratch> lanes;
    // Driver-only buffer for phase C query re-issues (one per destination);
    // reused across iterations.
    std::vector<std::vector<QueryMsg>> requery_out;
    // Reused counting-sort buffers for the locality pass (driver-only per
    // node; see SortBatchByLocality).
    std::vector<WalkerT> sort_tmp_walkers;
    std::vector<uint32_t> sort_bucket_counts;

    // Empties every walker, trial, in-flight copy and path entry and zeroes
    // the stats (a new Run, or a crashed node's lost volatile state).
    void DropWalkState() {
      active.clear();
      parked.clear();
      in_flight.clear();
      path_log.clear();
      stats = SamplingStats{};
    }
  };

  enum class TrialOutcome { kAccept, kReject, kNeedQuery, kNoEdges };

  struct TrialResult {
    TrialOutcome outcome = TrialOutcome::kReject;
    vertex_id_t candidate = 0;
    real_t y = 0.0f;
    vertex_id_t query_target = 0;
  };

  // Every node's path log; read only between Runs, like node_observability.
  std::vector<std::vector<PathEntry>*> PathLogs() {
    std::vector<std::vector<PathEntry>*> logs;
    for (auto& node : nodes_) {
      logs.push_back(&node->path_log);
    }
    return logs;
  }

  real_t PsOf(vertex_id_t v, const AdjT& edge) const {
    return transition_->static_comp ? transition_->static_comp(v, edge)
                                    : StaticWeight(edge.data);
  }

  // MutableGraph::Hooks::refresh_envelope: v's Pd envelope at its new degree.
  void RefreshEnvelope(vertex_id_t v, vertex_id_t degree) {
    if (dynamic_) {
      upper_[v] = transition_->dynamic_upper_bound(v, degree);
      if (!lower_.empty()) {
        lower_[v] = transition_->dynamic_lower_bound(v, degree);
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
      node->DropWalkState();
      node->obs.Reset();
      node->requery_out.resize(options_.num_nodes);
    }
    ack_out_.resize(options_.num_nodes);
    retransmit_out_.resize(options_.num_nodes);
  }

  // The static sampler and the Pd envelopes over graph_.csr(). A row for
  // which `reuse_row` holds kept its edges since the last call (a merge's
  // clean rows), so its sampler row and envelope carry over.
  void PrepareStatic(const typename StaticSamplerSet<EdgeData>::RowReuseFn& reuse_row = nullptr) {
    ThreadPool* pool = PreparePool();
    const Csr<EdgeData>& csr = graph_.csr();
    sampler_.Build(csr, StaticSamplerKind::kAuto, transition_->static_comp, pool, reuse_row);
    if (!reuse_row) {
      upper_.assign(dynamic_ ? csr.num_vertices() : 0, 0.0f);
      lower_.assign(dynamic_ && transition_->dynamic_lower_bound ? csr.num_vertices() : 0, 0.0f);
    }
    if (dynamic_) {
      ParallelFill(pool, csr.num_vertices(), [&](size_t begin, size_t end) {
        for (size_t v = begin; v < end; ++v) {
          auto vid = static_cast<vertex_id_t>(v);
          if (!reuse_row || !reuse_row(vid)) {
            RefreshEnvelope(vid, csr.OutDegree(vid));
          }
        }
      });
    }
    // Average hot-state bytes per vertex row: adjacency, sampler tables and
    // the envelope scalars (the kAuto locality estimate's row size).
    const vertex_id_t num_v = csr.num_vertices();
    const uint64_t footprint = csr.num_edges() * sizeof(AdjT) + sampler_.MemoryBytes() +
                               (upper_.size() + lower_.size()) * sizeof(real_t);
    bytes_per_vertex_ = num_v > 0 ? std::max<uint64_t>(1, footprint / num_v) : 1;
  }

  void DeployWalkers() {
    // Deployment draws use the last stream block; walker i owns stream i.
    // Counter-block streams can never overlap or correlate (see rng.h).
    KK_CHECK(walker_spec_->num_walkers < kDeployStream);
    Rng deploy_rng;
    deploy_rng.SeedStream(options_.seed, kDeployStream);
    vertex_id_t num_v = graph_.csr().num_vertices();
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

  // Returns the storage of every drained buffer that outgrew one chunk, at
  // the end of a Run: a long-lived engine's small Runs keep reusing small
  // buffers, but one large Run (a service's index build) must not pin its
  // peak buffers for the engine's lifetime.
  void ReleaseLargeBuffers() {
    auto release = [](auto& buffer) {
      if (buffer.capacity() > kDefaultChunkSize) {
        buffer.shrink_to_fit();
      }
    };
    auto release_each = [&](auto& buffers) {
      for (auto& buffer : buffers) {
        release(buffer);
      }
    };
    for (auto& node : nodes_) {
      release(node->active);
      release(node->sort_tmp_walkers);
      release_each(node->requery_out);
      for (Scratch& lane : node->lanes) {
        release_each(lane.moves);
        release_each(lane.queries);
        release_each(lane.responses);
        release(lane.stay);
        release(lane.pending_trials);
        release(lane.tracked);
        release(lane.paths);
      }
    }
    release_each(ack_out_);
    release_each(retransmit_out_);
    walker_mail_->ReleaseLargeBuffers(kDefaultChunkSize);
    query_mail_->ReleaseLargeBuffers(kDefaultChunkSize);
    response_mail_->ReleaseLargeBuffers(kDefaultChunkSize);
    ack_mail_->ReleaseLargeBuffers(kDefaultChunkSize);
  }

  // Runs fn(lane, begin, end) over [0, total): inline on the driver's lane
  // without a pool or in light mode, else across the node's pool with each
  // thread writing its own lane.
  template <typename Fn>
  void ParallelOver(NodeState& node, size_t total, const Fn& fn) {
    if (total == 0) {
      return;
    }
    // Light mode: run inline, skip pool coordination.
    const bool light = options_.enable_light_mode && total < options_.light_mode_threshold;
    if (node.pool == nullptr || light) {
      fn(node.lanes[0], 0, total);
      return;
    }
    node.pool->ParallelForLanes(total, kDefaultChunkSize,
                                [&](size_t lane, size_t begin, size_t end) {
                                  fn(node.lanes[lane], begin, end);
                                });
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

  // kAuto locality estimate: bytes a batch of this size will touch — its own
  // walker state and one static row per distinct landing vertex.
  uint64_t EstimatedBatchTouchedBytes(size_t batch_size) const {
    const uint64_t rows = std::min<uint64_t>(batch_size, graph_.csr().num_vertices());
    return batch_size * sizeof(WalkerT) + rows * bytes_per_vertex_;
  }

  // The locality pass: groups `batch` by cur's vertex range (kSortBuckets
  // fixed ranges) with a stable counting sort into a per-node reused buffer
  // (steady state allocates nothing). The pass is a pure function of message
  // content plus input order. Never observable in walk output — each
  // walker's RNG stream is its own.
  void SortBatchByLocality(NodeState& node, std::vector<WalkerT>& batch) {
    uint64_t num_v = graph_.csr().num_vertices();
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

  // ---- Trial kernels (trial_kernels.h) ----
  template <typename CurFn, typename BodyFn>
  void PrefetchedRun(size_t begin, size_t end, const CurFn& cur_of, const BodyFn& body) const;
  TrialResult RunTrial(WalkerT& w, SamplingStats& stats);
  std::optional<vertex_id_t> FallbackScan(WalkerT& w, SamplingStats& stats);
  void CommitMove(WalkerT& w, vertex_id_t candidate, node_rank_t src_node, Scratch& scratch);
  void LockstepWalk(WalkerT& w, node_rank_t node_rank, Scratch& scratch);
  void SecondOrderTrial(WalkerT& w, node_rank_t node_rank, Scratch& scratch);
  size_t RequeueUnanswered(NodeState& node, node_rank_t n, std::vector<PendingTrial>& trials,
                           SamplingStats& delta);

  // Folds a phase's lanes into the node once its chunks joined, in lane
  // order: stays refill active, paths the path log, parked trials the
  // parked vector (their queries' slots rebased to it), tracked copies the
  // in-flight set, and stats the node's totals and `phase`'s share. Every
  // outbound buffer flushes as one batch Post per destination. Leaves every
  // lane empty.
  void MergeLanes(NodeState& node, node_rank_t node_rank, obs::Phase phase) {
    for (Scratch& lane : node.lanes) {
      node.stats.Merge(lane.stats);
      node.obs.MergeStats(phase, lane.stats);
      lane.stats = SamplingStats{};
      if (node.active.empty()) {
        // Adopt the lane's buffer wholesale instead of copying walkers one
        // by one; the lane inherits active's drained storage.
        node.active.swap(lane.stay);
      } else {
        node.active.insert(node.active.end(), std::make_move_iterator(lane.stay.begin()),
                           std::make_move_iterator(lane.stay.end()));
      }
      lane.stay.clear();
      node.path_log.insert(node.path_log.end(), lane.paths.begin(), lane.paths.end());
      lane.paths.clear();
      if (!lane.pending_trials.empty()) {
        const size_t parked_base = node.parked.size();
        KK_DCHECK(parked_base + lane.pending_trials.size() <= UINT32_MAX);
        if (parked_base == 0) {
          node.parked.swap(lane.pending_trials);
        } else {
          node.parked.insert(node.parked.end(),
                             std::make_move_iterator(lane.pending_trials.begin()),
                             std::make_move_iterator(lane.pending_trials.end()));
          // Rebase lane-local slots to node-level parked slots.
          for (auto& dst_queries : lane.queries) {
            for (QueryMsg& q : dst_queries) {
              q.slot += static_cast<uint32_t>(parked_base);
            }
          }
        }
        lane.pending_trials.clear();
      }
      for (auto& move : lane.tracked) {
        // Overwrites any stale entry from an earlier acked-but-unlearned
        // step; receiver-side dedup makes the old copy harmless.
        node.in_flight[move.walker.id] = std::move(move);
      }
      lane.tracked.clear();
      query_mail_->PostAll(node_rank, lane.queries);
      response_mail_->PostAll(node_rank, lane.responses);
      walker_mail_->PostAll(node_rank, lane.moves);
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

  // ---- Checkpoint save, validation and recovery (engine_checkpoint.h) ----
  struct NodeSnapshot;
  bool SnapshotContentValid(const NodeSnapshot& ns) const;
  void SaveCheckpoint();
  void RecoverFromCrash(node_rank_t rank);

  // One BSP superstep. Phase A samples; a second-order walk then delivers
  // its state queries (phase B) and resolves the parked trials with the
  // answers (phase C); walker moves are delivered last. Each phase records
  // one driver-lane span plus one span per busy logical node; the query and
  // response barriers between them count as exchange. `clock` runs from
  // the previous phase boundary; each boundary takes one read.
  void RunIteration(Timer& clock) {
    SamplePhase();
    phase_times_.sample += clock.Lap();
    if (second_order_) {
      query_mail_->Exchange();
      phase_times_.exchange += clock.Lap();
      RespondPhase();
      phase_times_.respond += clock.Lap();
      response_mail_->Exchange();
      phase_times_.exchange += clock.Lap();
      ResolvePhase();
      phase_times_.resolve += clock.Lap();
    }
    DeliverWalkers();
    phase_times_.exchange += clock.Lap();
  }

  // Phase A: every active walker performs its sampling work. The locality
  // pass groups the batch by vertex first; the step loop then prefetches
  // one walker ahead. Both are unobservable in walk output — each walker's
  // RNG stream is its own. A node without walkers costs one branch.
  void SamplePhase() {
    obs::TraceRecorder* const trace = options_.trace;
    obs::StageTimer phase(trace, "sample", 0, superstep_);
    ForEachNode([&](node_rank_t n) {
      NodeState& node = *nodes_[n];
      std::vector<WalkerT>& batch = node.active;
      if (batch.empty()) {
        return;
      }
      obs::StageTimer span(trace, "sample", n + 1u, superstep_);
      if (ShouldSortBatch(batch.size())) {
        SortBatchByLocality(node, batch);
        node.obs.CountBatchSort();
      }
      ParallelOver(node, batch.size(), [&](Scratch& lane, size_t begin, size_t end) {
        PrefetchedRun(
            begin, end, [&](size_t i) { return batch[i].cur; },
            [&](size_t i) {
              if (second_order_) {
                SecondOrderTrial(batch[i], n, lane);
              } else {
                LockstepWalk(batch[i], n, lane);
              }
            });
      });
      batch.clear();  // every walker moved to a lane
      if (batch.capacity() > kDefaultChunkSize) {
        // A batch past one chunk returns its storage: one allocation is
        // cheap against that many walkers, and a Run's large early batches
        // must not pin memory its later supersteps and path assembly need.
        // Smaller batches keep it and trade it with the lanes.
        batch.shrink_to_fit();
      }
      MergeLanes(node, n, obs::Phase::kSample);
    });
  }

  // Phase B: the owners of the queried vertices answer the delivered
  // queries.
  void RespondPhase() {
    obs::TraceRecorder* const trace = options_.trace;
    obs::StageTimer phase(trace, "respond", 0, superstep_);
    ForEachNode([&](node_rank_t n) {
      NodeState& node = *nodes_[n];
      auto& inbox = query_mail_->Inbox(n);
      if (inbox.empty()) {
        return;
      }
      obs::StageTimer span(trace, "respond", n + 1u, superstep_);
      ParallelOver(node, inbox.size(), [&](Scratch& lane, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const QueryMsg& q = inbox[i];
          KK_DCHECK(partition_.Owns(n, q.target));
          QueryResponse payload = transition_->respond_query(graph_.csr(), q.target, q.subject);
          lane.responses[q.origin].push_back({q.walker, q.epoch, q.slot, payload});
        }
      });
      inbox.clear();
      MergeLanes(node, n, obs::Phase::kRespond);
    });
  }

  // Phase C: responses have returned; parked trials decide.
  void ResolvePhase() {
    obs::TraceRecorder* const trace = options_.trace;
    obs::StageTimer phase(trace, "resolve", 0, superstep_);
    ForEachNode([&](node_rank_t n) {
      NodeState& node = *nodes_[n];
      auto& resp_inbox = response_mail_->Inbox(n);
      std::vector<PendingTrial>& trials = node.parked;
      if (trials.empty() && resp_inbox.empty()) {
        return;
      }
      obs::StageTimer span(trace, "resolve", n + 1u, superstep_);
      SamplingStats resolve_delta;
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
      ParallelOver(node, trials.size() - waiting, [&](Scratch& lane, size_t begin, size_t end) {
        PrefetchedRun(
            waiting + begin, waiting + end, [&](size_t i) { return trials[i].walker.cur; },
            [&](size_t i) {
              PendingTrial& trial = trials[i];
              WalkerT& w = trial.walker;
              const AdjT& edge = graph_.NeighborsOf(w.cur)[trial.candidate];
              lane.stats.pd_computations += 1;
              real_t pd = transition_->dynamic_comp(w, w.cur, edge, trial.response);
              if (trial.y < pd) {
                lane.stats.trial_accepts += 1;
                CommitMove(w, trial.candidate, n, lane);
              } else {
                lane.stats.trial_rejects += 1;
                lane.stay.push_back(std::move(w));
              }
            });
      });
      // The waiting prefix stays parked, slots unchanged (phase C
      // resolution commits or stays; it never parks a trial).
      trials.resize(waiting);
      MergeLanes(node, n, obs::Phase::kResolve);
      node.stats.Merge(resolve_delta);
      node.obs.MergeStats(obs::Phase::kResolve, resolve_delta);
    });
  }

  // Walker movement: deliver and merge into next iteration's active sets,
  // then (under faults) process acks and retransmit timed-out moves.
  void DeliverWalkers() {
    const node_rank_t num_nodes = options_.num_nodes;
    obs::StageTimer phase(options_.trace, "exchange", 0, superstep_);
    walker_mail_->Exchange();
    for (node_rank_t n = 0; n < num_nodes; ++n) {
      NodeState& node = *nodes_[n];
      auto& inbox = walker_mail_->Inbox(n);
      if (!reliable_) {
        node.active.insert(node.active.end(), std::make_move_iterator(inbox.begin()),
                           std::make_move_iterator(inbox.end()));
      } else {
        SamplingStats exchange_delta;
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
          node.active.push_back(std::move(w));
        }
        ack_mail_->PostAll(n, ack_out_);
        node.stats.Merge(exchange_delta);
        node.obs.MergeStats(obs::Phase::kExchange, exchange_delta);
      }
      inbox.clear();
    }
    // Ack processing: retire acknowledged in-flight copies, retransmit the
    // timed-out ones (reliability protocol; no-op fault-free).
    if (reliable_) {
      ack_mail_->Exchange();
      for (node_rank_t n = 0; n < num_nodes; ++n) {
        NodeState& node = *nodes_[n];
        SamplingStats ack_delta;
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
        walker_mail_->PostAll(n, retransmit_out_);
        node.stats.Merge(ack_delta);
        node.obs.MergeStats(obs::Phase::kExchange, ack_delta);
      }
    }
  }

  MutableGraph<EdgeData> graph_;
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
  std::vector<uint64_t> active_history_;
  EnginePhaseTimes phase_times_;
  CheckpointStats ckpt_stats_;
  // Made once with the engine and Reset at every Run's start, so channel
  // and inbox buffers keep their capacity across Runs.
  std::unique_ptr<Mailbox<WalkerT>> walker_mail_;
  std::unique_ptr<Mailbox<QueryMsg>> query_mail_;
  std::unique_ptr<Mailbox<ResponseMsg>> response_mail_;
  std::unique_ptr<Mailbox<AckMsg>> ack_mail_;
  // The mailboxes' traffic in transit at the last checkpoint cut, taken
  // under fault injection for crash recovery (engine_checkpoint.h).
  struct TransitAtCut {
    typename Mailbox<WalkerT>::Transit walker;
    typename Mailbox<QueryMsg>::Transit query;
    typename Mailbox<ResponseMsg>::Transit response;
    typename Mailbox<AckMsg>::Transit ack;
  };
  TransitAtCut transit_at_cut_;
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

// Out-of-line members (trial kernels, checkpoint code, metrics export).
#include "src/engine/engine_checkpoint.h"
#include "src/engine/engine_metrics.h"
#include "src/engine/trial_kernels.h"

#endif  // SRC_ENGINE_WALK_ENGINE_H_
