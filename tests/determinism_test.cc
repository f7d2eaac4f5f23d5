// Deterministic-simulation tests: the same seed must yield byte-identical
// walk output regardless of cluster shape (num_nodes) and thread count
// (workers_per_node). This is the load-bearing guarantee behind the
// fault-injection suite — every walker carries its own counter-block RNG
// stream, so placement and scheduling cannot perturb its draws.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/metapath.h"
#include "src/apps/node2vec.h"
#include "src/apps/ppr.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/testing/fault_injector.h"
#include "src/util/rng.h"

namespace knightking {
namespace {

// Cluster shapes exercising every required value of workers_per_node
// ({0, 1, 4}) and num_nodes ({1, 4, 8}); the first entry is the reference.
struct ClusterShape {
  node_rank_t num_nodes;
  size_t workers;
};

constexpr ClusterShape kShapes[] = {
    {1, 0}, {1, 1}, {1, 4}, {4, 0}, {4, 4}, {8, 1}, {8, 4},
};

constexpr uint64_t kSeed = 20260806;

template <typename EdgeData, typename WalkerState, typename QueryResponse,
          typename WalkerSpecT>
std::vector<PathEntry> RunShape(
    const EdgeList<EdgeData>& edges, const ClusterShape& shape,
    const TransitionSpec<EdgeData, WalkerState, QueryResponse>& spec,
    const WalkerSpecT& walkers) {
  WalkEngineOptions opts;
  opts.num_nodes = shape.num_nodes;
  opts.workers_per_node = shape.workers;
  opts.collect_paths = true;
  opts.seed = kSeed;
  WalkEngine<EdgeData, WalkerState, QueryResponse> engine(
      Csr<EdgeData>::FromEdgeList(edges), opts);
  engine.Run(spec, walkers);
  return engine.TakePathEntries();
}

// node2vec rebuilds its spec per engine (the outlier closure captures the
// graph), so it gets its own driver below; the other apps share this one.
template <typename EdgeData, typename WalkerState, typename QueryResponse,
          typename WalkerSpecT>
void ExpectIdenticalAcrossShapes(
    const EdgeList<EdgeData>& edges,
    const TransitionSpec<EdgeData, WalkerState, QueryResponse>& spec,
    const WalkerSpecT& walkers) {
  std::vector<PathEntry> reference = RunShape(edges, kShapes[0], spec, walkers);
  ASSERT_FALSE(reference.empty());
  for (const ClusterShape& shape : kShapes) {
    EXPECT_EQ(RunShape(edges, shape, spec, walkers), reference)
        << "nodes=" << shape.num_nodes << " workers=" << shape.workers;
  }
}

TEST(DeterminismTest, DeepWalkIdenticalAcrossClusterShapes) {
  auto edges = GenerateUniformDegree(300, 8, 101);
  DeepWalkParams params{.walk_length = 30};
  ExpectIdenticalAcrossShapes(edges, DeepWalkTransition<EmptyEdgeData>(),
                              DeepWalkWalkers(200, params));
}

TEST(DeterminismTest, PprIdenticalAcrossClusterShapes) {
  auto edges = GenerateUniformDegree(300, 8, 102);
  PprParams params{.terminate_prob = 1.0 / 20.0};
  ExpectIdenticalAcrossShapes(edges, PprTransition<EmptyEdgeData>(),
                              PprWalkers(200, params));
}

TEST(DeterminismTest, MetaPathIdenticalAcrossClusterShapes) {
  auto edges = AssignEdgeTypes(GenerateUniformDegree(300, 12, 103), 3, 7);
  MetaPathParams params;
  params.schemes = {{0, 1, 2}, {2, 0, 1}};
  params.walk_length = 12;
  ExpectIdenticalAcrossShapes(edges, MetaPathTransition<TypedEdgeData>(params),
                              MetaPathWalkers(200, params));
}

TEST(DeterminismTest, Node2VecIdenticalAcrossClusterShapes) {
  auto edges = GenerateUniformDegree(300, 8, 104);
  Node2VecParams params{.p = 0.25, .q = 4.0, .walk_length = 15};
  // The faulted input drops, delays and duplicates messages, so parked
  // trials go through re-issues, duplicate answers and late answers to old
  // slots. Walks must still match the fault-free reference byte for byte.
  // Which answers count depends on message content only, never on the slot
  // merge order gave a trial, so the protocol counters must agree across
  // worker counts for a given cluster size. One node has no cross-node
  // channel, so there the faults hit its local channels (include_local),
  // which then carry every state query too.
  using Counters = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>;
  std::vector<PathEntry> reference;
  std::map<node_rank_t, Counters> faulted_counters;
  for (bool faulted : {false, true}) {
    for (const ClusterShape& shape : kShapes) {
      FaultPolicy policy;
      policy.drop = 0.1;
      policy.delay = 0.1;
      policy.duplicate = 0.1;
      policy.include_local = shape.num_nodes == 1;
      FaultInjector injector(policy);
      WalkEngineOptions opts;
      opts.num_nodes = shape.num_nodes;
      opts.workers_per_node = shape.workers;
      opts.collect_paths = true;
      opts.seed = kSeed;
      if (faulted) {
        opts.fault_injector = &injector;
      }
      WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
      SamplingStats stats = engine.Run(Node2VecTransition(engine.graph(), params),
                                       Node2VecWalkers(150, params));
      std::vector<PathEntry> got = engine.TakePathEntries();
      if (reference.empty()) {
        reference = std::move(got);
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(got, reference) << "faulted=" << faulted << " nodes=" << shape.num_nodes
                                  << " workers=" << shape.workers;
      }
      if (!faulted) {
        continue;
      }
      EXPECT_GT(stats.walker_retransmits, 0u) << "fault policy never hit a walker move";
      EXPECT_GT(stats.query_retries, 0u) << "fault policy never hit a query";
      EXPECT_GT(stats.stale_responses, 0u) << "no duplicate or late answer arrived";
      Counters counters{stats.iterations, stats.query_retries, stats.stale_responses,
                        stats.walker_retransmits, stats.duplicates_suppressed};
      auto [it, first] = faulted_counters.emplace(shape.num_nodes, counters);
      EXPECT_TRUE(first || it->second == counters)
          << "nodes=" << shape.num_nodes << " workers=" << shape.workers;
    }
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto edges = GenerateUniformDegree(200, 8, 106);
  DeepWalkParams params{.walk_length = 20};
  auto run = [&](uint64_t seed) {
    WalkEngineOptions opts;
    opts.collect_paths = true;
    opts.seed = seed;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(50, params));
    return engine.TakePathEntries();
  };
  EXPECT_NE(run(1), run(2));
}

// RNG stream audit: adjacent walker streams must be uncorrelated. The old
// sequential derivation Seed(f(master, i)) could hand two walkers
// overlapping SplitMix64 init sequences; SeedStream's disjoint counter
// blocks cannot. Spot-check no shared state words and no identical draws.
TEST(DeterminismTest, WalkerStreamsAreDisjoint) {
  constexpr uint64_t kMaster = 42;
  constexpr size_t kStreams = 64;
  constexpr size_t kDraws = 32;
  std::vector<std::vector<uint64_t>> draws(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    Rng rng;
    rng.SeedStream(kMaster, s);
    for (size_t d = 0; d < kDraws; ++d) {
      draws[s].push_back(rng.Next());
    }
  }
  for (size_t a = 0; a < kStreams; ++a) {
    for (size_t b = a + 1; b < kStreams; ++b) {
      // No aligned collision and no single-offset shift relation.
      size_t equal = 0;
      for (size_t d = 0; d < kDraws; ++d) {
        equal += draws[a][d] == draws[b][d] ? 1u : 0u;
      }
      EXPECT_EQ(equal, 0u) << "streams " << a << " and " << b;
      size_t shifted = 0;
      for (size_t d = 0; d + 1 < kDraws; ++d) {
        shifted += draws[a][d + 1] == draws[b][d] ? 1u : 0u;
      }
      EXPECT_EQ(shifted, 0u) << "streams " << a << " and " << b;
    }
  }
}

// The deployment stream (start-vertex draws) must not alias any walker
// stream for realistic walker counts.
TEST(DeterminismTest, DeployStreamDistinctFromWalkerStreams) {
  Rng deploy;
  deploy.SeedStream(7, kDeployStream);
  uint64_t first = deploy.Next();
  for (uint64_t i = 0; i < 1000; ++i) {
    Rng w;
    w.SeedStream(7, i);
    EXPECT_NE(w.Next(), first) << "walker stream " << i;
  }
}

}  // namespace
}  // namespace knightking
