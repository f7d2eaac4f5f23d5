// Golden bytes for the walk engine: fixed graphs, seeds and schedules whose
// assembled paths and checkpoint file hash to recorded constants. Any change
// to a walk byte (trial arithmetic, RNG consumption order, mutation replay,
// fault recovery) or to the snapshot layout fails here, so a refactor that
// claims to move code without changing behaviour can be checked against it.
// The PPR and faulted node2vec cases also pin the driver's counters (stats,
// active history, cross-node traffic, per-node phase stats), so a superstep
// driver that drops a merge or miscounts a message fails too.
//
// Path hashes are independent of the worker count (each walker carries its
// own RNG stream), so those tests take KK_SIM_WORKERS like the rest of the
// sim suite. The checkpoint's active and path-log sections keep merge order,
// which depends on worker scheduling, so the checkpoint test runs inline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/node2vec.h"
#include "src/apps/ppr.h"
#include "src/engine/checkpoint.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/generators.h"
#include "src/obs/counters.h"
#include "src/testing/fault_injector.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 91;

size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

WalkEngineOptions BaseOptions(size_t workers) {
  WalkEngineOptions opts;
  opts.num_nodes = 4;
  opts.workers_per_node = workers;
  opts.collect_paths = true;
  opts.seed = kSeed;
  return opts;
}

// FNV-1a 64, continued from `hash`.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename EngineT>
uint64_t FlatPathsHash(EngineT& engine) {
  FlatPaths flat;
  engine.TakeFlatPaths(&flat);
  EXPECT_GT(flat.vertices.size(), flat.num_paths());
  const uint64_t h = Fnv1a64(flat.offsets.data(), flat.offsets.size() * sizeof(uint64_t));
  return Fnv1a64(flat.vertices.data(), flat.vertices.size() * sizeof(vertex_id_t), h);
}

// Hashes of the counters a Run leaves behind. `core` covers the returned
// SamplingStats, active_history() and the cross-node message and byte
// totals; `phases` covers every node's per-phase stats.
struct CounterHashes {
  uint64_t core = 0;
  uint64_t phases = 0;
};

template <typename EngineT>
CounterHashes CountersHash(const EngineT& engine, const SamplingStats& stats) {
  auto add = [](uint64_t& hash, uint64_t v) { hash = Fnv1a64(&v, sizeof(v), hash); };
  CounterHashes h{Fnv1a64(nullptr, 0), Fnv1a64(nullptr, 0)};
  stats.ForEachField([&](const char*, uint64_t v) { add(h.core, v); });
  add(h.core, engine.active_history().size());
  for (uint64_t active : engine.active_history()) {
    add(h.core, active);
  }
  add(h.core, engine.cross_node_messages());
  add(h.core, engine.cross_node_bytes());
  for (node_rank_t n = 0; n < engine.options().num_nodes; ++n) {
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      engine.node_observability(n).Stats(static_cast<obs::Phase>(p)).ForEachField(
          [&](const char*, uint64_t v) { add(h.phases, v); });
    }
  }
  return h;
}

void ExpectCounters(const CounterHashes& h, uint64_t core, uint64_t phases) {
  EXPECT_EQ(h.core, core) << std::hex << "counters hash 0x" << h.core;
  EXPECT_EQ(h.phases, phases) << std::hex << "phase stats hash 0x" << h.phases;
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

EdgeList<WeightedEdgeData> WeightedGraph() {
  return AssignUniformWeights(GenerateTruncatedPowerLaw(300, 2.2, 2, 40, 17), 0.5f, 6.0f, 23);
}

// Every op kind over three epochs. Vertex 4 takes five accepted edits, so a
// merge threshold of 4 folds the overlay once mid-run.
MutationLog ChurnLog(const Csr<WeightedEdgeData>& csr) {
  MutationLog log(kSeed);
  const vertex_id_t a = csr.Neighbors(4)[0].neighbor;
  const vertex_id_t b = csr.Neighbors(9)[0].neighbor;
  log.Append(1, {Ins(4, 200, 3.5f), Ins(9, 120, 0.75f), Rew(4, a, 8.0f), Ins(50, 51, 2.0f)});
  log.Append(3, {Del(9, b), Del(4, 299), Ins(120, 9, 1.5f), Rew(4, 200, 0.25f),
                 Ins(0, 7, 5.0f)});
  log.Append(5, {Ins(4, 201, 1.0f), Del(50, 51), Rew(0, 7, 0.5f)});
  return log;
}

TEST(EngineGoldenTest, WeightedDeepWalkOverMutationsMatchesRecordedHash) {
  const auto edges = WeightedGraph();
  const MutationLog log = ChurnLog(Csr<WeightedEdgeData>::FromEdgeList(edges));
  WalkEngineOptions opts = BaseOptions(WorkersFromEnv());
  opts.mutation_log = &log;
  opts.merge_threshold = 4;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(400, {.walk_length = 12}));
  const MutationCounters mc = engine.mutation_counters();
  EXPECT_EQ(engine.mutation_batches_applied(), log.num_batches());
  EXPECT_GT(mc.merges, 0u);
  EXPECT_GT(mc.rows_materialized, 0u);
  const uint64_t hash = FlatPathsHash(engine);
  EXPECT_EQ(hash, 0xdddd2e3f71fcb4c9ULL) << std::hex << "paths hash 0x" << hash;
}

TEST(EngineGoldenTest, Node2VecUnderFaultsMatchesRecordedHash) {
  const auto edges = GenerateTruncatedPowerLaw(300, 2.2, 2, 40, 29);
  const Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 10};
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.delay = 0.1;
  policy.duplicate = 0.05;
  FaultInjector injector(policy);
  WalkEngineOptions opts = BaseOptions(WorkersFromEnv());
  opts.fault_injector = &injector;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  const SamplingStats stats =
      engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(300, params));
  EXPECT_GT(stats.queries_remote, 0u);
  EXPECT_GT(stats.outlier_hits, 0u);
  EXPECT_GT(injector.counters().dropped, 0u);
  ExpectCounters(CountersHash(engine, stats), 0x461843c8a7d01691ULL, 0xd4aba7ae6d34e5ebULL);
  const uint64_t hash = FlatPathsHash(engine);
  EXPECT_EQ(hash, 0x386f4769f907ea1bULL) << std::hex << "paths hash 0x" << hash;
}

TEST(EngineGoldenTest, PprMatchesRecordedHash) {
  const auto edges = GenerateTruncatedPowerLaw(300, 2.2, 2, 40, 31);
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                   BaseOptions(WorkersFromEnv()));
  const SamplingStats stats =
      engine.Run(PprTransition<EmptyEdgeData>(), PprWalkers(600, {.terminate_prob = 0.1}));
  ExpectCounters(CountersHash(engine, stats), 0xd1d8defe43caf9e0ULL, 0x0da3e70201b122ffULL);
  const uint64_t hash = FlatPathsHash(engine);
  EXPECT_EQ(hash, 0xb79b8e473ad403b0ULL) << std::hex << "paths hash 0x" << hash;
}

// The snapshot a 12-step weighted DeepWalk over the churn log leaves when it
// checkpoints every 8 supersteps: the one taken at superstep 8. Each walker
// record has four padding bytes between `step` and `rng` whose content the
// language leaves unspecified, and the trailer checksums them; both are
// excluded from the hash, every other byte is pinned.
TEST(EngineGoldenTest, CheckpointAtSuperstep8MatchesRecordedHash) {
  const auto edges = WeightedGraph();
  const MutationLog log = ChurnLog(Csr<WeightedEdgeData>::FromEdgeList(edges));
  WalkEngineOptions opts = BaseOptions(/*workers=*/0);
  opts.mutation_log = &log;
  opts.merge_threshold = 4;
  opts.checkpoint_every = 8;
  opts.checkpoint_path = testing::TempDir() + "kk_golden_ckpt.bin";
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(400, {.walk_length = 12}));
  EXPECT_EQ(engine.checkpoint_stats().checkpoints, 2u);

  std::vector<uint8_t> file;
  {
    std::FILE* f = std::fopen(opts.checkpoint_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) {
      file.push_back(static_cast<uint8_t>(c));
    }
    std::fclose(f);
  }
  std::remove(opts.checkpoint_path.c_str());
  CheckpointHeader h;
  ASSERT_GE(file.size(), sizeof(h) + sizeof(uint64_t));
  std::memcpy(&h, file.data(), sizeof(h));
  EXPECT_EQ(h.superstep, 8u);
  EXPECT_EQ(h.mutation_batches, log.num_batches());

  using WalkerT = Walker<>;
  const WalkerT probe;
  const auto* base = reinterpret_cast<const uint8_t*>(&probe);
  const size_t pad_begin = static_cast<size_t>(reinterpret_cast<const uint8_t*>(&probe.step) -
                                               base) + sizeof(step_t);
  const size_t pad_end = static_cast<size_t>(reinterpret_cast<const uint8_t*>(&probe.rng) - base);
  ASSERT_EQ(h.walker_bytes, sizeof(WalkerT));
  // Walks the sections (progress, history, then per node: stats, active,
  // parked, in-flight, path log) and zeroes each active walker's padding.
  size_t at = sizeof(h);
  auto count_at = [&](size_t pos) {
    uint64_t n = 0;
    std::memcpy(&n, file.data() + pos, sizeof(n));
    return n;
  };
  at += sizeof(uint64_t) + count_at(at) * sizeof(step_t);    // progress
  at += sizeof(uint64_t) + count_at(at) * sizeof(uint64_t);  // history
  const size_t record_bytes[4] = {h.walker_bytes, h.pending_bytes, h.inflight_bytes,
                                  h.pathentry_bytes};
  for (uint32_t n = 0; n < h.num_nodes; ++n) {
    at += sizeof(uint64_t) + count_at(at);  // stats
    for (size_t section = 0; section < 4; ++section) {
      const uint64_t records = count_at(at);
      at += sizeof(uint64_t);
      ASSERT_LE(at + records * record_bytes[section], file.size());
      if (section == 0) {
        for (uint64_t r = 0; r < records; ++r) {
          const size_t rec = at + r * record_bytes[0];
          std::memset(file.data() + rec + pad_begin, 0, pad_end - pad_begin);
        }
      } else if (section != 3) {
        EXPECT_EQ(records, 0u);  // no parked trials or in-flight copies fault-free
      }
      at += records * record_bytes[section];
    }
  }
  ASSERT_EQ(at + sizeof(uint64_t), file.size());
  const uint64_t hash = Fnv1a64(file.data(), at);
  EXPECT_EQ(hash, 0x719ded6028a2e618ULL) << std::hex << "checkpoint hash 0x" << hash;
}

}  // namespace
}  // namespace knightking
