// Streaming graph mutations: delta-store edge cases, weight-class sampler
// maintenance, and the tentpole determinism matrix.
//
// The acceptance bar mirrors the checkpoint suite's: a walk over a mutating
// graph must produce byte-identical path logs across worker counts {0, 4},
// with and without message faults, and across a crash-and-replay recovery
// that restores the snapshot's mutation-log prefix from the pristine CSR
// (docs/DYNAMIC_GRAPHS.md). On top of the matrix, the incremental-sampler
// counters pin the O(1) update contract: one O(degree) row build per dirty
// vertex, every subsequent mutation an O(1) bucket edit, never a rebuild.
//
// The CI deterministic-sim job's mutation-soak leg re-runs this binary under
// TSan with KK_SIM_WORKERS=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/no_return.h"
#include "src/apps/node2vec.h"
#include "src/engine/checkpoint.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/generators.h"
#include "src/obs/metrics_registry.h"
#include "src/sampling/static_sampler.h"
#include "src/sampling/weight_class.h"
#include "src/testing/fault_injector.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 77;

size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

std::string SnapshotPath(const std::string& tag) {
  return testing::TempDir() + "kk_mut_" + tag + ".bin";
}

WalkEngineOptions BaseOptions(node_rank_t num_nodes, size_t workers) {
  WalkEngineOptions opts;
  opts.num_nodes = num_nodes;
  opts.workers_per_node = workers;
  opts.collect_paths = true;
  opts.seed = kSeed;
  return opts;
}

EdgeMutation Ins(vertex_id_t src, vertex_id_t dst, real_t w) {
  return EdgeMutation{src, dst, w, MutationOp::kInsert};
}
EdgeMutation Del(vertex_id_t src, vertex_id_t dst) {
  return EdgeMutation{src, dst, 0.0f, MutationOp::kDelete};
}
EdgeMutation Rew(vertex_id_t src, vertex_id_t dst, real_t w) {
  return EdgeMutation{src, dst, w, MutationOp::kReweight};
}

// ---------------------------------------------------------------------------
// MutationLog: canonical ordering and prefix hashing.
// ---------------------------------------------------------------------------

TEST(MutationLogTest, BatchIdIndependentOfSubmissionOrder) {
  std::vector<EdgeMutation> fwd = {Ins(0, 1, 2.0f), Ins(2, 3, 1.0f), Del(4, 5),
                                   Rew(6, 7, 0.5f)};
  std::vector<EdgeMutation> rev(fwd.rbegin(), fwd.rend());
  MutationLog a(kSeed);
  MutationLog b(kSeed);
  uint64_t id_a = a.Append(1, fwd);
  uint64_t id_b = b.Append(1, rev);
  EXPECT_EQ(id_a, id_b);
  ASSERT_EQ(a.batch(0).mutations.size(), b.batch(0).mutations.size());
  for (size_t i = 0; i < a.batch(0).mutations.size(); ++i) {
    EXPECT_EQ(a.batch(0).mutations[i], b.batch(0).mutations[i]) << i;
  }
  EXPECT_EQ(a.PrefixHash(1), b.PrefixHash(1));
}

TEST(MutationLogTest, PrefixHashChainsPerBatch) {
  MutationLog log(kSeed);
  uint64_t empty = log.PrefixHash(0);
  log.Append(0, {Ins(0, 1, 1.0f)});
  log.Append(2, {Del(0, 1)});
  EXPECT_NE(log.PrefixHash(1), empty);
  EXPECT_NE(log.PrefixHash(2), log.PrefixHash(1));
  EXPECT_EQ(log.num_batches(), 2u);
  EXPECT_EQ(log.num_mutations(), 2u);
}

TEST(MutationLogTest, ContentChangesTheId) {
  MutationLog a(kSeed);
  MutationLog b(kSeed);
  uint64_t id_a = a.Append(1, {Ins(0, 1, 2.0f)});
  uint64_t id_b = b.Append(1, {Ins(0, 1, 2.5f)});
  EXPECT_NE(id_a, id_b);
}

TEST(MutationLogDeathTest, RejectsEpochRegressionAndBadWeights) {
  MutationLog log(kSeed);
  log.Append(3, {Ins(0, 1, 1.0f)});
  EXPECT_DEATH(log.Append(2, {Ins(0, 1, 1.0f)}), "epoch");
  EXPECT_DEATH(log.Append(3, {Ins(0, 1, -1.0f)}), "weight");
}

// ---------------------------------------------------------------------------
// DeltaStore edge cases.
// ---------------------------------------------------------------------------

Csr<WeightedEdgeData> SmallWeightedCsr() {
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 6;
  list.edges = {{0, 1, {1.0f}}, {0, 2, {2.0f}}, {0, 3, {4.0f}},
                {1, 0, {1.0f}}, {2, 0, {1.0f}}, {3, 0, {1.0f}}};
  return Csr<WeightedEdgeData>::FromEdgeList(list);
}

TEST(DeltaStoreTest, DeleteOfNeverInsertedEdgeIsCountedNoOp) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  RowEdit edit = delta.Apply(Del(0, 5), /*merge_threshold=*/0);
  EXPECT_EQ(edit.kind, RowEdit::Kind::kNone);
  EXPECT_EQ(delta.stats().rejected, 1u);
  EXPECT_EQ(delta.OutDegree(0), 3u);
  // A rejected mutation still counts toward nothing else: row untouched.
  EXPECT_EQ(delta.stats().removed, 0u);
  EXPECT_FALSE(delta.pending_merge());
}

TEST(DeltaStoreTest, DeleteSwapsWithLastAndPreservesMembership) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  RowEdit edit = delta.Apply(Del(0, 1), 0);
  ASSERT_EQ(edit.kind, RowEdit::Kind::kRemove);
  EXPECT_EQ(delta.OutDegree(0), 2u);
  std::vector<vertex_id_t> left;
  for (const auto& u : delta.Neighbors(0)) {
    left.push_back(u.neighbor);
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<vertex_id_t>{2, 3}));
  // Clean vertices keep reading the base CSR.
  EXPECT_EQ(delta.Neighbors(1).data(), csr.Neighbors(1).data());
}

TEST(DeltaStoreTest, ReweightToZeroKeepsEdgeInRow) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  RowEdit edit = delta.Apply(Rew(0, 2, 0.0f), 0);
  ASSERT_EQ(edit.kind, RowEdit::Kind::kReweight);
  EXPECT_EQ(delta.OutDegree(0), 3u);
  bool found = false;
  for (const auto& u : delta.Neighbors(0)) {
    if (u.neighbor == 2) {
      found = true;
      EXPECT_EQ(u.data.weight, 0.0f);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeltaStoreTest, MergeThresholdExactlyHitSetsPendingMerge) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  EXPECT_EQ(delta.Apply(Ins(0, 4, 1.0f), 3).kind, RowEdit::Kind::kInsert);
  EXPECT_FALSE(delta.pending_merge());
  EXPECT_EQ(delta.Apply(Ins(0, 5, 1.0f), 3).kind, RowEdit::Kind::kInsert);
  EXPECT_FALSE(delta.pending_merge());
  // Third mutation lands exactly on the threshold — pending, not deferred
  // past it. (The engine still defers the merge itself to the enclosing
  // batch boundary.)
  EXPECT_EQ(delta.Apply(Rew(0, 1, 9.0f), 3).kind, RowEdit::Kind::kReweight);
  EXPECT_TRUE(delta.pending_merge());
  // Rejected mutations never advance a row toward its merge threshold.
  auto csr2 = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> d2;
  d2.Reset(&csr2);
  d2.Materialize(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d2.Apply(Del(0, 5), 3).kind, RowEdit::Kind::kNone);
  }
  EXPECT_FALSE(d2.pending_merge());
}

TEST(DeltaStoreTest, MergedCsrFoldsOverlayAndRestoresSortedRows) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  delta.Apply(Ins(0, 5, 7.0f), 0);
  delta.Apply(Del(0, 1), 0);
  delta.Apply(Rew(0, 3, 0.25f), 0);
  auto merged = delta.MergedCsr();
  ASSERT_EQ(merged.OutDegree(0), 3u);
  std::map<vertex_id_t, real_t> row;
  vertex_id_t prev = 0;
  bool first = true;
  for (const auto& u : merged.Neighbors(0)) {
    if (!first) {
      EXPECT_LT(prev, u.neighbor) << "merged row must be neighbor-sorted";
    }
    first = false;
    prev = u.neighbor;
    row[u.neighbor] = u.data.weight;
  }
  EXPECT_EQ(row.count(1), 0u);
  EXPECT_EQ(row[2], 2.0f);
  EXPECT_EQ(row[3], 0.25f);
  EXPECT_EQ(row[5], 7.0f);
  // Untouched rows survive the fold verbatim.
  EXPECT_EQ(merged.OutDegree(2), csr.OutDegree(2));
}

TEST(DeltaStoreTest, ReweightOnUnweightedPayloadIsRejected) {
  auto edges = GenerateUniformDegree(10, 3, 5);
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(edges);
  DeltaStore<EmptyEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  vertex_id_t dst = csr.Neighbors(0)[0].neighbor;
  EXPECT_EQ(delta.Apply(Rew(0, dst, 2.0f), 0).kind, RowEdit::Kind::kNone);
  EXPECT_EQ(delta.stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// LazyAliasRow: O(1) maintenance, exact distribution, lazy per-class
// materialization, zero-rejection alias draws.
// ---------------------------------------------------------------------------

TEST(LazyAliasRowTest, SampleMatchesWeightsAfterIncrementalEdits) {
  LazyAliasRow row;
  std::vector<real_t> weights = {1.0f, 2.0f, 4.0f, 0.5f};
  row.Build(weights);
  row.PushBack(8.0f);          // weights: 1 2 4 .5 8
  row.Reweight(1, 6.0f);       // weights: 1 6 4 .5 8
  row.SwapRemove(0);           // index 0 now holds old last: 8 6 4 .5
  std::vector<double> expect = {8.0, 6.0, 4.0, 0.5};
  EXPECT_NEAR(row.total_weight(), 18.5, 1e-9);
  Rng rng(kSeed);
  std::vector<uint64_t> counts(expect.size(), 0);
  for (int i = 0; i < 40000; ++i) {
    uint32_t idx = row.Sample(rng);
    ASSERT_LT(idx, counts.size());
    ++counts[idx];
  }
  ExpectChiSquareOk(counts, expect);
}

TEST(LazyAliasRowTest, ZeroWeightEntriesAreNeverSampled) {
  LazyAliasRow row;
  row.Build(std::vector<real_t>{1.0f, 0.0f, 3.0f});
  row.Reweight(2, 0.0f);
  row.PushBack(5.0f);  // live: index 0 (1.0) and index 3 (5.0)
  Rng rng(kSeed);
  for (int i = 0; i < 5000; ++i) {
    uint32_t idx = row.Sample(rng);
    EXPECT_TRUE(idx == 0 || idx == 3) << idx;
  }
  EXPECT_NEAR(row.total_weight(), 6.0, 1e-9);
}

TEST(LazyAliasRowTest, WideDynamicRangeStaysExact) {
  // 2^-20 vs 2^20: both weights sit in their own class, the class CDF stays
  // proportional across 40 doublings, and the dominant class is the only one
  // that ever materializes.
  LazyAliasRow row;
  row.Build(std::vector<real_t>{0x1.0p-20f, 0x1.0p20f});
  Rng rng(kSeed);
  uint64_t big = 0;
  for (int i = 0; i < 10000; ++i) {
    if (row.Sample(rng) == 1) ++big;
  }
  EXPECT_EQ(big, 10000u);  // tiny weight ~ 1e-12 probability: never in 1e4 draws
  EXPECT_EQ(row.max_weight(), 0x1.0p20f);
  EXPECT_EQ(row.bucket_builds(), 1u);  // the 2^-20 class was never built
}

TEST(LazyAliasRowTest, BucketsMaterializeLazilyAndRebuildOnStale) {
  // All three weights share ilogb == 1, so the row has exactly one class.
  LazyAliasRow row;
  row.Build(std::vector<real_t>{2.0f, 2.5f, 3.0f});
  EXPECT_EQ(row.bucket_builds(), 0u);  // Build is summary-only
  Rng rng(kSeed);
  for (int i = 0; i < 50; ++i) {
    row.Sample(rng);
  }
  EXPECT_EQ(row.bucket_builds(), 1u);  // first sample built it, rest reused
  // An in-class reweight keeps membership but stales the alias: exactly one
  // rebuild on the next sample, O(bucket) not O(degree * samples).
  row.Reweight(0, 3.5f);
  EXPECT_EQ(row.bucket_builds(), 1u);
  for (int i = 0; i < 50; ++i) {
    row.Sample(rng);
  }
  EXPECT_EQ(row.bucket_builds(), 2u);
  // A new class costs nothing until a sample lands in it.
  row.PushBack(1000.0f);
  EXPECT_EQ(row.bucket_builds(), 2u);
  for (int i = 0; i < 2000; ++i) {
    row.Sample(rng);
  }
  // The 1000-class built once; the small class was already fresh.
  EXPECT_EQ(row.bucket_builds(), 3u);
}

TEST(LazyAliasRowTest, EditsAfterMaterializationKeepExactWeights) {
  // Four classes, two entries each: [1, 2), [2, 4), [4, 8), [8, 16).
  LazyAliasRow row;
  row.Build(std::vector<real_t>{1.0f, 1.5f, 2.0f, 3.0f, 4.0f, 6.0f, 8.0f, 12.0f});
  Rng rng(kSeed);
  for (int i = 0; i < 10000 && row.bucket_builds() < 4; ++i) {
    row.Sample(rng);
  }
  ASSERT_EQ(row.bucket_builds(), 4u);  // every class has built items + alias
  // Index 1 sits in [1, 2); its replacement, old last index 7, sits in the
  // materialized [8, 16) class, whose item list still names index 7.
  row.SwapRemove(1);       // 1 12 2 3 4 6 8
  row.PushBack(5.0f);      // into the materialized [4, 8) class
  row.Reweight(3, 1.25f);  // [2, 4) -> [1, 2)
  std::vector<double> expect = {1.0, 12.0, 2.0, 1.25, 4.0, 6.0, 8.0, 5.0};
  ASSERT_EQ(row.size(), expect.size());
  EXPECT_NEAR(row.total_weight(), 39.25, 1e-9);
  std::vector<uint64_t> counts(expect.size(), 0);
  for (int i = 0; i < 80000; ++i) {
    uint32_t idx = row.Sample(rng);
    ASSERT_LT(idx, row.size());
    ++counts[idx];
  }
  ExpectChiSquareOk(counts, expect);
}

// ---------------------------------------------------------------------------
// Engine integration: the determinism matrix (tentpole acceptance).
// ---------------------------------------------------------------------------

// A mutation schedule exercising every op against the 200-vertex fixture:
// inserts (new + duplicate-tolerant), deletes (real + never-inserted),
// reweights (including to zero), spread over three superstep epochs.
MutationLog BuildSchedule(const Csr<WeightedEdgeData>& csr) {
  MutationLog log(kSeed);
  vertex_id_t d0 = csr.Neighbors(4)[0].neighbor;
  vertex_id_t d1 = csr.Neighbors(9)[1].neighbor;
  log.Append(1, {Ins(4, 100, 3.5f), Ins(9, 120, 0.75f), Rew(4, d0, 8.0f),
                 Ins(50, 51, 2.0f), Ins(50, 52, 1.0f)});
  log.Append(3, {Del(9, d1), Del(4, 199), /* never inserted -> rejected */
                 Ins(120, 9, 1.5f), Rew(9, 120, 4.0f)});
  log.Append(5, {Rew(4, 100, 0.0f), Ins(4, 101, 1.0f), Del(50, 51)});
  return log;
}

struct MatrixRun {
  std::vector<PathEntry> paths;
  SamplingStats stats;
  MutationCounters mutations;
  CheckpointStats ckpt;
};

// One cell of the matrix. `fault_rate` is both the drop and the delay
// probability (0 = no message faults); `crash_epoch` schedules an
// epoch-keyed crash of node 1; `crash_batch` additionally pins a crash of
// node 2 to a mutation batch id.
MatrixRun RunDeepWalkWithMutations(const EdgeList<WeightedEdgeData>& edges,
                                   const MutationLog& log, size_t workers, double fault_rate,
                                   std::optional<uint64_t> crash_epoch,
                                   std::optional<uint64_t> crash_batch,
                                   uint32_t merge_threshold, const std::string& tag) {
  WalkEngineOptions opts = BaseOptions(/*num_nodes=*/4, workers);
  opts.mutation_log = &log;
  opts.merge_threshold = merge_threshold;
  FaultInjector* injector_ptr = nullptr;
  FaultInjector injector(FaultPolicy{.drop = fault_rate, .delay = fault_rate});
  if (fault_rate > 0.0 || crash_epoch.has_value() || crash_batch.has_value()) {
    injector_ptr = &injector;
    opts.fault_injector = injector_ptr;
  }
  if (crash_epoch.has_value()) {
    injector.CrashNode(1, *crash_epoch);
  }
  if (crash_batch.has_value()) {
    injector.CrashOnMutationBatch(2, *crash_batch);
  }
  if (crash_epoch.has_value() || crash_batch.has_value()) {
    opts.checkpoint_every = 2;
    opts.checkpoint_path = SnapshotPath(tag);
  }
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  MatrixRun run;
  run.stats =
      engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(100, {.walk_length = 12}));
  run.paths = engine.TakePathEntries();
  run.mutations = engine.mutation_counters();
  run.ckpt = engine.checkpoint_stats();
  EXPECT_EQ(engine.mutation_batches_applied(), log.num_batches());
  if (injector_ptr != nullptr) {
    EXPECT_EQ(injector.pending_crashes(), 0u);
    EXPECT_EQ(injector.pending_batch_crashes(), 0u);
  }
  if (!opts.checkpoint_path.empty()) {
    std::remove(opts.checkpoint_path.c_str());
  }
  return run;
}

TEST(MutationDeterminismTest, DeepWalkMatrixIsByteIdentical) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);

  // On a mutating graph the fault schedule is part of the seeded trajectory:
  // a deterministically delayed walker takes its step one superstep later
  // and legitimately observes a younger graph (docs/DYNAMIC_GRAPHS.md). So
  // the reference is per fault policy, and byte-identity is required across
  // worker placement and crash-and-replay recovery within each policy —
  // exactly the axes an operator cannot control.
  for (uint32_t merge_threshold : {0u, 4u}) {
    for (bool faulty : {false, true}) {
      SCOPED_TRACE("merge_threshold=" + std::to_string(merge_threshold) +
                   " faulty=" + std::to_string(faulty));
      const double fault_rate = faulty ? 0.1 : 0.0;
      MatrixRun reference =
          RunDeepWalkWithMutations(edges, log, /*workers=*/0, fault_rate, std::nullopt,
                                   std::nullopt, merge_threshold, "ref");
      ASSERT_FALSE(reference.paths.empty());
      EXPECT_GT(reference.mutations.applied(), 0u);
      if (merge_threshold != 0) {
        EXPECT_GT(reference.mutations.merges, 0u);
      }
      int variant = 0;
      for (size_t workers : {size_t{0}, size_t{4}}) {
        for (bool crash : {false, true}) {
          SCOPED_TRACE("workers=" + std::to_string(workers) + " crash=" +
                       std::to_string(crash));
          std::string tag = "m" + std::to_string(merge_threshold) + "_f" +
                            std::to_string(faulty) + "_" + std::to_string(variant++);
          MatrixRun run = RunDeepWalkWithMutations(
              edges, log, workers, fault_rate,
              crash ? std::optional<uint64_t>(4) : std::nullopt, std::nullopt,
              merge_threshold, tag);
          EXPECT_EQ(run.paths, reference.paths) << "mutating walk diverged";
          EXPECT_EQ(run.stats.steps, reference.stats.steps);
          // Post-recovery mutation counters must match an uncrashed run's:
          // the replay re-derives them rather than double-counting.
          EXPECT_EQ(run.mutations.applied(), reference.mutations.applied());
          EXPECT_EQ(run.mutations.rejected, reference.mutations.rejected);
          EXPECT_EQ(run.mutations.merges, reference.mutations.merges);
          if (crash) {
            EXPECT_GT(run.ckpt.recoveries, 0u);
          }
        }
      }
    }
  }
}

TEST(MutationDeterminismTest, CrashPinnedToMutationBatchRecovers) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  MatrixRun reference = RunDeepWalkWithMutations(edges, log, 0, 0.0, std::nullopt,
                                                 std::nullopt, 0, "bref");
  // Crash node 2 the instant the epoch-3 batch applies. Its id is a content
  // hash — the test does not need to know the epoch schedule. That batch
  // mutates vertices 4/9/120, including the crashed node's own vertex range
  // (4 nodes x 200 vertices -> node 2 owns [100, 150)): recovery must replay
  // the mutation for the crashed range, not just restore walker state.
  MatrixRun run = RunDeepWalkWithMutations(edges, log, WorkersFromEnv(), 0.0,
                                           std::nullopt, log.batch(1).id, 0, "batchcrash");
  EXPECT_EQ(run.paths, reference.paths);
  EXPECT_GT(run.ckpt.recoveries, 0u);
}

TEST(MutationDeterminismTest, FaultedChurnRecoversTwoCrashesAtEveryMergeThreshold) {
  // Message faults (5% drop, 5% delay) plus two crashes: node 1 at epoch 3,
  // and node 2 the moment the epoch-5 batch applies, after a checkpoint has
  // been cut. Both recoveries must replay the mutation prefix so the walk
  // ends byte-identical to the same fault policy's crash-free run, at a
  // merge threshold that folds the overlay mid-run (4) and at one that
  // never merges (0), where lazily built dirty rows survive both crashes.
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  for (uint32_t merge_threshold : {4u, 0u}) {
    SCOPED_TRACE("merge_threshold=" + std::to_string(merge_threshold));
    const std::string tag = "faultcrash_m" + std::to_string(merge_threshold);
    MatrixRun reference = RunDeepWalkWithMutations(
        edges, log, 0, 0.05, std::nullopt, std::nullopt, merge_threshold, tag + "_ref");
    MatrixRun run =
        RunDeepWalkWithMutations(edges, log, WorkersFromEnv(), 0.05, std::optional<uint64_t>(3),
                                 log.batch(2).id, merge_threshold, tag);
    ASSERT_FALSE(reference.paths.empty());
    EXPECT_EQ(run.paths, reference.paths);
    EXPECT_EQ(run.ckpt.recoveries, 2u);
    EXPECT_GT(run.ckpt.checkpoints, 0u);
    if (merge_threshold != 0) {
      EXPECT_GT(run.mutations.merges, 0u);
    }
  }
}

TEST(MutationDeterminismTest, DynamicTransitionWithMutationsIsDeterministic) {
  // Non-backtracking walk (dynamic Pd, first-order) over a mutating graph:
  // exercises the envelope refresh on overlay edits.
  auto edges = AssignUniformWeights(GenerateUniformDegree(120, 6, 17), 1.0f, 3.0f, 5);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log(kSeed);
  log.Append(1, {Ins(3, 60, 6.0f), Rew(3, csr.Neighbors(3)[0].neighbor, 0.5f)});
  log.Append(2, {Del(60, csr.Neighbors(60)[0].neighbor), Ins(60, 3, 2.0f)});

  auto run_once = [&](size_t workers) {
    WalkEngineOptions opts = BaseOptions(3, workers);
    opts.mutation_log = &log;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(NoReturnTransition<WeightedEdgeData>(),
               NoReturnWalkers(80, {.walk_length = 10}));
    return engine.TakePathEntries();
  };
  std::vector<PathEntry> base = run_once(0);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(run_once(4), base);
}

TEST(MutationDeterminismTest, AliasSamplerCrashRecoveryIsByteIdentical) {
  // The replay rebuilds overlay rows without sampling, so recovery only
  // stays byte-identical because materialized class state is a pure function
  // of current row membership (item lists in ascending index order, rebuilt
  // on first post-recovery sample). Rows never merge here, so the classes
  // built before the crash stay live to the end; the crash lands once before
  // the second mutation batch and once after the last, when edits have
  // already hit materialized classes. The matrix above crashes at epoch 4.
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  MatrixRun reference = RunDeepWalkWithMutations(edges, log, 0, 0.0, std::nullopt,
                                                 std::nullopt, /*merge_threshold=*/0, "alref");
  ASSERT_FALSE(reference.paths.empty());
  EXPECT_GT(reference.mutations.bucket_builds, 0u);
  for (uint64_t crash_epoch : {2u, 6u}) {
    SCOPED_TRACE("crash_epoch=" + std::to_string(crash_epoch));
    MatrixRun run = RunDeepWalkWithMutations(
        edges, log, WorkersFromEnv(), 0.0, std::optional<uint64_t>(crash_epoch),
        std::nullopt, /*merge_threshold=*/0, "alcrash" + std::to_string(crash_epoch));
    EXPECT_EQ(run.paths, reference.paths);
    EXPECT_GT(run.ckpt.recoveries, 0u);
    EXPECT_EQ(run.mutations.applied(), reference.mutations.applied());
    EXPECT_EQ(run.mutations.merges, reference.mutations.merges);
  }
}

// ---------------------------------------------------------------------------
// Option validation: bad configs are rejected with an actionable error
// before any setup runs (so a service can refuse them instead of dying on
// the KK_CHECK inside Run).
// ---------------------------------------------------------------------------

TEST(ValidateRunTest, RejectsMutatingSecondOrderAndStaleStateCombos) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(50, 6, 301), 1.0f, 5.0f, 11);
  MutationLog log(kSeed);
  log.Append(1, {Ins(0, 30, 2.0f)});

  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  // First-order transitions are fine under mutation.
  EXPECT_EQ(engine.ValidateRun(DeepWalkTransition<WeightedEdgeData>()), "");
  // Second-order x mutation: rejected with a pointer at the fix.
  std::string err =
      engine.ValidateRun(Node2VecTransition(engine.graph(), Node2VecParams{}));
  EXPECT_NE(err.find("second-order"), std::string::npos) << err;
  EXPECT_NE(err.find("mutation_log"), std::string::npos) << err;

  // reuse_static_state x mutation: also rejected, distinct message.
  WalkEngineOptions sopts = BaseOptions(2, 0);
  sopts.mutation_log = &log;
  sopts.reuse_static_state = true;
  WalkEngine<WeightedEdgeData> stale(Csr<WeightedEdgeData>::FromEdgeList(edges), sopts);
  std::string serr = stale.ValidateRun(DeepWalkTransition<WeightedEdgeData>());
  EXPECT_NE(serr.find("reuse_static_state"), std::string::npos) << serr;

  // Without a mutation log the same transitions validate cleanly.
  WalkEngineOptions copts = BaseOptions(2, 0);
  WalkEngine<WeightedEdgeData> clean(Csr<WeightedEdgeData>::FromEdgeList(edges), copts);
  EXPECT_EQ(clean.ValidateRun(Node2VecTransition(clean.graph(), Node2VecParams{})), "");
}

// ---------------------------------------------------------------------------
// Incremental-maintenance cost: the O(1) counter pins.
// ---------------------------------------------------------------------------

TEST(IncrementalSamplerTest, OneRowBuildPerDirtyVertexThenO1Updates) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  WalkEngineOptions opts = BaseOptions(2, WorkersFromEnv());
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(60, {.walk_length = 10}));
  MutationCounters mc = engine.mutation_counters();
  // BuildSchedule touches vertices {4, 9, 50, 120}: exactly one O(degree)
  // materialization + sampler row build each, no matter how many mutations
  // land on the row afterwards.
  EXPECT_EQ(mc.rows_materialized, 4u);
  EXPECT_EQ(mc.full_builds, 4u);
  // Class alias tables build lazily, only where samples actually landed:
  // strictly fewer than an eager build of every class of every dirty row
  // would cost, but nonzero because walkers do hit the dirty vertices.
  EXPECT_GT(mc.bucket_builds, 0u);
  EXPECT_LT(mc.bucket_builds,
            mc.rows_materialized * static_cast<uint64_t>(LazyAliasRow::kNumClasses));
  // Every accepted mutation is one O(1) bucket edit; the rejected delete
  // (4 -> 199) mirrors nothing.
  EXPECT_EQ(mc.rejected, 1u);
  EXPECT_EQ(mc.applied(), log.num_mutations() - mc.rejected);
  EXPECT_EQ(mc.incremental_updates, mc.applied());
  EXPECT_EQ(mc.merges, 0u);
  EXPECT_GT(mc.delta_mutations, 0u);

  // Metrics surface the same story.
  obs::MetricsRegistry reg;
  engine.ExportMetrics(reg);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("graph.delta_edges"), std::string::npos);
  EXPECT_NE(json.find("graph.merge_micros"), std::string::npos);
  EXPECT_NE(json.find("graph.mutations_applied"), std::string::npos);
  EXPECT_NE(json.find("sampler.incremental_updates"), std::string::npos);
  EXPECT_NE(json.find("sampler.full_builds"), std::string::npos);
  EXPECT_NE(json.find("sampler.bucket_builds"), std::string::npos);
}

TEST(IncrementalSamplerTest, AliasModeBuildsSummariesEagerlyBucketsLazily) {
  // Two dirty rows: vertex 0, where walker 0 starts, and vertex 205, which
  // has no in-edges in the padded graph, so no walker ever samples it.
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  vertex_id_t hop = Csr<WeightedEdgeData>::FromEdgeList(edges).Neighbors(0)[0].neighbor;
  edges.num_vertices = 210;
  MutationLog log(kSeed);
  log.Append(0, {Ins(205, 206, 1.0f), Ins(205, 207, 3.0f), Rew(0, hop, 9.0f)});
  WalkEngineOptions opts = BaseOptions(2, WorkersFromEnv());
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  WalkerSpec<> walkers = DeepWalkWalkers(60, {.walk_length = 10});
  walkers.start_vertex = [](walker_id_t id, Rng&) -> vertex_id_t {
    return static_cast<vertex_id_t>(id % 200);
  };
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), walkers);
  MutationCounters mc = engine.mutation_counters();
  // Both rows build their class totals when the batch lands...
  EXPECT_EQ(mc.rows_materialized, 2u);
  EXPECT_EQ(mc.full_builds, 2u);
  EXPECT_EQ(mc.incremental_updates, mc.applied());
  EXPECT_EQ(mc.applied(), 3u);
  // ...but class alias tables build only on a sample, so only vertex 0's
  // classes ([1, 2), [2, 4), [4, 8) and [8, 16)) can have been built, each
  // at most once since no edit follows the first sample.
  EXPECT_GT(mc.bucket_builds, 0u);
  EXPECT_LE(mc.bucket_builds, 4u);
}

// ---------------------------------------------------------------------------
// Incremental merges: a merge rebuilds the static tables of dirty rows only.
// ---------------------------------------------------------------------------

// Eight batches of random inserts, deletes and reweights, a quarter of them
// on five hot sources, so rows cross merge_threshold 4 again and again.
// Deletes and reweights name edges the row holds, and no row drops below
// one edge.
MutationLog RandomChurnLog(const Csr<WeightedEdgeData>& csr) {
  const vertex_id_t n = csr.num_vertices();
  std::vector<std::vector<vertex_id_t>> rows(n);
  for (vertex_id_t v = 0; v < n; ++v) {
    for (const auto& adj : csr.Neighbors(v)) {
      rows[v].push_back(adj.neighbor);
    }
  }
  Rng rng(kSeed);
  MutationLog log(kSeed);
  for (uint64_t epoch = 1; epoch <= 8; ++epoch) {
    std::vector<EdgeMutation> muts;
    for (int i = 0; i < 40; ++i) {
      const auto src = static_cast<vertex_id_t>(rng.NextUInt64(4) == 0 ? rng.NextUInt64(5)
                                                                       : rng.NextUInt64(n));
      std::vector<vertex_id_t>& row = rows[src];
      const auto w = static_cast<real_t>(0.25 + rng.NextDouble() * 8.0);
      const size_t j = rng.NextUInt64(row.size());
      switch (rng.NextUInt64(3)) {
        case 0: {
          const auto dst = static_cast<vertex_id_t>(rng.NextUInt64(n));
          muts.push_back(Ins(src, dst, w));
          row.push_back(dst);
          break;
        }
        case 1:
          if (row.size() > 1) {
            muts.push_back(Del(src, row[j]));
            row[j] = row.back();
            row.pop_back();
          }
          break;
        default:
          muts.push_back(Rew(src, row[j], w));
          break;
      }
    }
    log.Append(epoch, std::move(muts));
  }
  return log;
}

// After several merges, the tables the engine carried over and rebuilt row
// by row equal a fresh full build over the merged CSR: same totals, same
// bounds, same draws from the same RNG.
TEST(IncrementalMergeTest, MergedTablesEqualAFullBuild) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(300, 8, 303), 0.5f, 6.0f, 13);
  const MutationLog log = RandomChurnLog(Csr<WeightedEdgeData>::FromEdgeList(edges));
  WalkEngineOptions opts = BaseOptions(2, WorkersFromEnv());
  opts.mutation_log = &log;
  opts.merge_threshold = 4;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(100, {.walk_length = 12}));
  ASSERT_GE(engine.mutation_counters().merges, 3u);

  const StaticSamplerSet<WeightedEdgeData>& merged = engine.static_sampler();
  ASSERT_EQ(merged.kind(), StaticSamplerKind::kAlias);
  StaticSamplerSet<WeightedEdgeData> fresh;
  fresh.Build(engine.graph(), StaticSamplerKind::kAlias, nullptr);
  EXPECT_EQ(merged.MemoryBytes(), fresh.MemoryBytes());
  Rng merged_rng(kSeed);
  Rng fresh_rng(kSeed);
  for (vertex_id_t v = 0; v < engine.graph().num_vertices(); ++v) {
    ASSERT_EQ(merged.TotalWeight(v), fresh.TotalWeight(v)) << "vertex " << v;
    ASSERT_EQ(merged.MaxWeight(v), fresh.MaxWeight(v)) << "vertex " << v;
    if (fresh.TotalWeight(v) <= 0.0) {
      continue;
    }
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(merged.Sample(v, merged_rng), fresh.Sample(v, fresh_rng)) << "vertex " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Distribution correctness over a mutated row.
// ---------------------------------------------------------------------------

TEST(MutationDistributionTest, FirstStepsMatchLiveRowWeights) {
  // Star graph: every walk starts at the hub, so first steps sample the
  // hub's (mutated) row directly.
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 8;
  list.edges = {{0, 1, {1.0f}}, {0, 2, {2.0f}}, {0, 3, {3.0f}},
                {1, 0, {1.0f}}, {2, 0, {1.0f}}, {3, 0, {1.0f}}};
  MutationLog log(kSeed);
  log.Append(0, {Ins(0, 4, 4.0f), Rew(0, 2, 6.0f), Del(0, 1)});
  WalkEngineOptions opts = BaseOptions(1, WorkersFromEnv());
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(list), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 30000;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng&) -> vertex_id_t { return 0; };
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), walkers);
  auto paths = engine.TakePathEntries();
  // Live row after the epoch-0 batch: {2: 6, 3: 3, 4: 4}; 1 deleted.
  std::vector<uint64_t> counts(5, 0);
  for (const PathEntry& p : paths) {
    if (p.step == 1) {
      ASSERT_LT(p.vertex, counts.size());
      ++counts[p.vertex];
    }
  }
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  ExpectChiSquareOk({counts[2], counts[3], counts[4]}, {6.0, 3.0, 4.0});
}

TEST(MutationDistributionTest, FirstStepsMatchLiveRowWeightsAliasSampler) {
  // The hub row spans five weight classes and the batch moves entries
  // between them, so the first step draws a class from the class totals and
  // then an entry from that class's alias table: together they must
  // reproduce the exact edge-weight law over the mutated row.
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 8;
  list.edges = {{0, 1, {0.25f}}, {0, 2, {1.0f}}, {0, 3, {3.0f}}, {0, 4, {10.0f}},
                {0, 5, {40.0f}}, {1, 0, {1.0f}}, {2, 0, {1.0f}}, {3, 0, {1.0f}},
                {4, 0, {1.0f}},  {5, 0, {1.0f}}};
  MutationLog log(kSeed);
  log.Append(0, {Ins(0, 6, 0.5f), Rew(0, 4, 2.5f), Rew(0, 1, 20.0f), Del(0, 2)});
  WalkEngineOptions opts = BaseOptions(1, WorkersFromEnv());
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(list), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 30000;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng&) -> vertex_id_t { return 0; };
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), walkers);
  auto paths = engine.TakePathEntries();
  // Live row after the epoch-0 batch: {1: 20, 3: 3, 4: 2.5, 5: 40, 6: 0.5};
  // 2 deleted.
  std::vector<uint64_t> counts(7, 0);
  for (const PathEntry& p : paths) {
    if (p.step == 1) {
      ASSERT_LT(p.vertex, counts.size());
      ++counts[p.vertex];
    }
  }
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[2], 0u);
  ExpectChiSquareOk({counts[1], counts[3], counts[4], counts[5], counts[6]},
                    {20.0, 3.0, 2.5, 40.0, 0.5});
}

// ---------------------------------------------------------------------------
// Checkpoint v2 interplay.
// ---------------------------------------------------------------------------

TEST(MutationCheckpointTest, SnapshotRecordsMutationCutAndHash) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.mutation_log = &log;
  opts.checkpoint_every = 4;  // snapshot at superstep 8 sits after all batches
  opts.checkpoint_path = SnapshotPath("cut");
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(60, {.walk_length = 12}));

  CheckpointInfo info;
  std::string error;
  ASSERT_TRUE(InspectCheckpoint(opts.checkpoint_path, &info, &error)) << error;
  EXPECT_EQ(info.header.version, 2u);
  EXPECT_EQ(info.header.mutation_batches, log.num_batches());
  EXPECT_EQ(info.header.mutation_hash, log.PrefixHash(log.num_batches()));
  std::remove(opts.checkpoint_path.c_str());
}

TEST(MutationCheckpointTest, RestoreRefusesMismatchedLog) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  std::string path = SnapshotPath("mismatch");
  {
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &log;
    opts.checkpoint_every = 4;
    opts.checkpoint_path = path;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(),
               DeepWalkWalkers(60, {.walk_length = 12}));
  }
  // Same run shape, different mutation history: the snapshot's prefix hash
  // cannot match, so LoadCheckpoint must refuse before touching state.
  MutationLog other(kSeed);
  other.Append(1, {Ins(4, 100, 3.5f)});
  other.Append(3, {Del(9, 1)});
  other.Append(5, {Ins(50, 51, 1.0f)});
  {
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &other;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(),
               DeepWalkWalkers(60, {.walk_length = 12}));
    EXPECT_FALSE(engine.LoadCheckpoint(path));
  }
  // No log at all: a mutation-bearing snapshot is not restorable either.
  {
    WalkEngineOptions opts = BaseOptions(2, 0);
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(),
               DeepWalkWalkers(60, {.walk_length = 12}));
    EXPECT_FALSE(engine.LoadCheckpoint(path));
  }
  std::remove(path.c_str());
}

// Crash recovery refuses a snapshot written under another mutation log:
// replaying this log's prefix under it would put walkers on a graph history
// they never walked. The run's only snapshot, saved at superstep 0, is
// swapped once the walk is under way for one of the same Run shape. Only
// the mutation prefix hash tells a foreign snapshot from a snapshot written
// under a byte-identical log, which restores.
TEST(MutationCheckpointDeathTest, RecoveryRefusesSnapshotFromAnotherLog) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  const MutationLog log = BuildSchedule(csr);
  const MutationLog same = BuildSchedule(csr);
  MutationLog other(kSeed);
  other.Append(1, {Ins(4, 100, 3.5f)});
  other.Append(3, {Del(9, csr.Neighbors(9)[0].neighbor)});
  other.Append(5, {Ins(50, 51, 1.0f)});
  const auto walkers = DeepWalkWalkers(60, {.walk_length = 12});

  // The last snapshot of a reliable Run under `writer_log`: superstep 8,
  // after all three batches.
  auto write_snapshot = [&](const MutationLog& writer_log, const std::string& path) {
    FaultInjector injector(FaultPolicy{});
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &writer_log;
    opts.fault_injector = &injector;
    opts.checkpoint_every = 4;
    opts.checkpoint_path = path;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(), walkers);
  };
  // Runs `log` with a crash at superstep 6 after `swap_in` replaced the
  // snapshot; returns the recoveries.
  auto run_with_swapped_snapshot = [&](const std::string& swap_in) {
    const std::string path = SnapshotPath("swapped");
    FaultInjector injector(FaultPolicy{});
    injector.CrashNode(1, 6);
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &log;
    opts.fault_injector = &injector;
    opts.checkpoint_every = 1000;  // only superstep 0 saves
    opts.checkpoint_path = path;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    WalkerSpec<> swapping = walkers;
    std::atomic<bool> swapped{false};
    swapping.terminate_if = [&](const Walker<>& w) {
      if (w.step >= 1 && !swapped.exchange(true)) {
        std::filesystem::copy_file(swap_in, path,
                                   std::filesystem::copy_options::overwrite_existing);
      }
      return false;
    };
    engine.Run(DeepWalkTransition<WeightedEdgeData>(), swapping);
    std::remove(path.c_str());
    return engine.checkpoint_stats().recoveries;
  };

  const std::string foreign = SnapshotPath("foreign_log");
  const std::string own = SnapshotPath("same_log");
  write_snapshot(other, foreign);
  write_snapshot(same, own);
  EXPECT_EQ(run_with_swapped_snapshot(own), 1u);
  EXPECT_DEATH(run_with_swapped_snapshot(foreign), "cannot restore checkpoint");
  std::remove(foreign.c_str());
  std::remove(own.c_str());
}

// Outside Run, a mutating engine refuses a restore. Its graph already holds
// the epoch-6 batch, past the superstep-4 snapshot's cut; accepting the
// restore would rewind only the batch cursor, and the next Run would apply
// that batch a second time.
TEST(MutationCheckpointTest, OutOfRunRestoreIsRefused) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  MutationLog log(kSeed);
  log.Append(1, {Ins(4, 100, 3.5f)});
  log.Append(6, {Ins(50, 51, 1.0f)});
  const std::string path = SnapshotPath("out_of_run");
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.mutation_log = &log;
  opts.checkpoint_every = 4;
  opts.checkpoint_path = path;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  const auto spec = DeepWalkWalkers(60, {.walk_length = 7});
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), spec);
  ASSERT_EQ(engine.mutation_counters().applied(), 2u);
  CheckpointInfo info;
  std::string error;
  ASSERT_TRUE(InspectCheckpoint(path, &info, &error)) << error;
  ASSERT_EQ(info.header.superstep, 4u);
  ASSERT_EQ(info.header.mutation_batches, 1u);

  EXPECT_FALSE(engine.LoadCheckpoint(path));
  EXPECT_EQ(engine.mutation_batches_applied(), 2u);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), spec);
  EXPECT_EQ(engine.mutation_batches_applied(), 2u);
  EXPECT_EQ(engine.mutation_counters().applied(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace knightking
