// WalkEngineOptions, the engine's fixed protocol bounds, and the phase-time,
// checkpoint and mutation counters a Run leaves behind.
#ifndef SRC_ENGINE_ENGINE_OPTIONS_H_
#define SRC_ENGINE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/graph/delta_store.h"
#include "src/obs/trace.h"
#include "src/sampling/weight_class.h"
#include "src/testing/fault_injector.h"
#include "src/util/types.h"

namespace knightking {

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
  // Straggler-aware light mode (§6.2): a node whose active batch holds
  // fewer walkers than this runs it inline instead of on its worker pool.
  // 0 disables light mode.
  uint64_t light_mode_threshold = 0;
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
  // Streaming graph mutations (docs/DYNAMIC_GRAPHS.md).
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
  double mutate = 0.0;    // ApplyDue: mutation batches and overlay merges
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

}  // namespace knightking

#endif  // SRC_ENGINE_ENGINE_OPTIONS_H_
