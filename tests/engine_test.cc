// Tests for the KnightKing WalkEngine: walk validity, exactness of rejection
// sampling (empirical next-hop distributions vs. Ps * Pd), determinism
// across cluster sizes and thread counts, termination semantics, stats
// accounting, and the lower-bound / outlier optimizations.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

using UnweightedEngine = WalkEngine<EmptyEdgeData>;
using WeightedEngine = WalkEngine<WeightedEdgeData>;

Csr<EmptyEdgeData> SmallGraph() {
  return Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(200, 8, 42));
}

TEST(WalkEngineTest, StaticWalkProducesValidPaths) {
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(SmallGraph(), opts);
  TransitionSpec<EmptyEdgeData> transition;
  WalkerSpec<> walkers;
  walkers.num_walkers = 100;
  walkers.max_steps = 10;
  SamplingStats stats = engine.Run(transition, walkers);
  auto paths = engine.TakePaths();
  ASSERT_EQ(paths.size(), 100u);
  uint64_t steps = 0;
  for (const auto& path : paths) {
    ASSERT_GE(path.size(), 1u);
    EXPECT_LE(path.size(), 11u);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(engine.graph().HasNeighbor(path[i], path[i + 1]))
          << "path uses non-existent edge " << path[i] << "->" << path[i + 1];
    }
    steps += path.size() - 1;
  }
  EXPECT_EQ(stats.steps, steps);
}

TEST(WalkEngineTest, FixedLengthWalksAllReachMaxSteps) {
  // On a graph with no dead ends, every walk must be exactly max_steps long.
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 50;
  walkers.max_steps = 20;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  for (const auto& path : engine.TakePaths()) {
    EXPECT_EQ(path.size(), 21u);
  }
}

TEST(WalkEngineTest, DefaultStartVerticesAreRoundRobin) {
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 250;  // > |V| = 200, wraps around
  walkers.max_steps = 1;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  auto paths = engine.TakePaths();
  for (walker_id_t i = 0; i < 250; ++i) {
    EXPECT_EQ(paths[i].front(), i % 200);
  }
}

TEST(WalkEngineTest, CustomStartVertices) {
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 30;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng&) { return vertex_id_t{7}; };
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  for (const auto& path : engine.TakePaths()) {
    EXPECT_EQ(path.front(), 7u);
  }
}

TEST(WalkEngineTest, TerminationProbabilityGivesGeometricLengths) {
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 5000;
  walkers.max_steps = 0;  // unbounded
  walkers.terminate_prob = 0.125;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  double mean_len = 0.0;
  for (const auto& path : engine.TakePaths()) {
    mean_len += static_cast<double>(path.size() - 1);
  }
  mean_len /= 5000.0;
  // Geometric with stop prob 1/8 => mean walk length 7.
  EXPECT_NEAR(mean_len, 7.0, 0.35);
}

TEST(WalkEngineTest, ZeroDegreeVertexEndsWalkImmediately) {
  EdgeList<EmptyEdgeData> list;
  list.num_vertices = 3;
  list.edges = {{0, 1, {}}, {1, 0, {}}};  // vertex 2 isolated; 0<->1 only
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(Csr<EmptyEdgeData>::FromEdgeList(list), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 3;
  walkers.max_steps = 5;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  auto paths = engine.TakePaths();
  EXPECT_EQ(paths[2].size(), 1u);  // starts at isolated vertex 2, cannot move
  EXPECT_EQ(paths[0].size(), 6u);
  EXPECT_EQ(paths[1].size(), 6u);
}

TEST(WalkEngineTest, LockstepIterationCountEqualsWalkLength) {
  UnweightedEngine engine(SmallGraph(), WalkEngineOptions{});
  WalkerSpec<> walkers;
  walkers.num_walkers = 20;
  walkers.max_steps = 15;
  SamplingStats stats = engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  EXPECT_EQ(stats.iterations, 15u);
  EXPECT_EQ(engine.active_history().size(), 15u);
  EXPECT_EQ(engine.active_history().front(), 20u);
}

// The next-hop distribution of a *biased static* walk must match Ps exactly.
TEST(WalkEngineTest, BiasedStaticMatchesWeights) {
  auto weighted = AssignUniformWeights(GenerateUniformDegree(60, 6, 5), 1.0f, 5.0f, 9);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(weighted);
  const vertex_id_t start = 11;
  auto neighbors = csr.Neighbors(start);
  std::vector<double> weights;
  std::map<vertex_id_t, size_t> index;
  for (const auto& adj : neighbors) {
    index[adj.neighbor] = weights.size();
    weights.push_back(adj.data.weight);
  }
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WeightedEngine engine(std::move(csr), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 60000;
  walkers.max_steps = 1;
  walkers.start_vertex = [start](walker_id_t, Rng&) { return start; };
  engine.Run(TransitionSpec<WeightedEdgeData>{}, walkers);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (const auto& path : engine.TakePaths()) {
    ASSERT_EQ(path.size(), 2u);
    ++counts[index.at(path[1])];
  }
  EXPECT_LT(ChiSquareVsWeights(counts, weights), Chi2Critical999(ChiSquareDof(weights)));
}

// A dynamic first-order walk through rejection sampling must reproduce
// Ps * Pd exactly (the paper's exactness claim, §4.1).
TEST(WalkEngineTest, DynamicFirstOrderExactness) {
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(60, 10, 6));
  const vertex_id_t start = 3;
  auto neighbors = csr.Neighbors(start);
  // Pd depends on the destination id: deterministic and very skewed.
  auto pd_of = [](vertex_id_t dst) { return 0.05f + 0.95f * ((dst % 7) == 0); };
  std::vector<double> weights;
  std::map<vertex_id_t, size_t> index;
  for (const auto& adj : neighbors) {
    index[adj.neighbor] = weights.size();
    weights.push_back(pd_of(adj.neighbor));
  }
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(std::move(csr), opts);
  TransitionSpec<EmptyEdgeData> transition;
  transition.dynamic_comp = [pd_of](const Walker<>&, vertex_id_t, const AdjUnit<EmptyEdgeData>& e,
                                    const std::optional<uint8_t>&) { return pd_of(e.neighbor); };
  transition.dynamic_upper_bound = [](vertex_id_t, vertex_id_t) { return 1.0f; };
  WalkerSpec<> walkers;
  walkers.num_walkers = 60000;
  walkers.max_steps = 1;
  walkers.start_vertex = [start](walker_id_t, Rng&) { return start; };
  SamplingStats stats = engine.Run(transition, walkers);
  EXPECT_GT(stats.trials, stats.steps);  // rejections actually happened
  std::vector<uint64_t> counts(weights.size(), 0);
  for (const auto& path : engine.TakePaths()) {
    ASSERT_EQ(path.size(), 2u);
    ++counts[index.at(path[1])];
  }
  EXPECT_LT(ChiSquareVsWeights(counts, weights), Chi2Critical999(ChiSquareDof(weights)));
}

// Combined bias: Ps from weights and Pd dynamic; product must be exact. At
// 1/500 of the envelope almost every walker exhausts kMaxTrialsPerStep, so
// the first hops mostly come from FallbackScan, which must keep the law.
TEST(WalkEngineTest, BiasedDynamicProductExactness) {
  auto weighted = AssignUniformWeights(GenerateUniformDegree(50, 8, 7), 1.0f, 5.0f, 10);
  const vertex_id_t start = 21;
  for (float pd_scale : {1.0f, 1.0f / 500.0f}) {
    SCOPED_TRACE("pd_scale=" + std::to_string(pd_scale));
    auto csr = Csr<WeightedEdgeData>::FromEdgeList(weighted);
    auto pd_of = [pd_scale](vertex_id_t dst) { return pd_scale * (dst % 2 == 0 ? 0.2f : 1.0f); };
    std::vector<double> weights;
    std::map<vertex_id_t, size_t> index;
    for (const auto& adj : csr.Neighbors(start)) {
      index[adj.neighbor] = weights.size();
      weights.push_back(static_cast<double>(adj.data.weight) *
                        static_cast<double>(pd_of(adj.neighbor)));
    }
    WalkEngineOptions opts;
    opts.collect_paths = true;
    WeightedEngine engine(std::move(csr), opts);
    TransitionSpec<WeightedEdgeData> transition;
    transition.dynamic_comp = [pd_of](const Walker<>&, vertex_id_t,
                                      const AdjUnit<WeightedEdgeData>& e,
                                      const std::optional<uint8_t>&) { return pd_of(e.neighbor); };
    transition.dynamic_upper_bound = [](vertex_id_t, vertex_id_t) { return 1.0f; };
    WalkerSpec<> walkers;
    walkers.num_walkers = 60000;
    walkers.max_steps = 1;
    walkers.start_vertex = [start](walker_id_t, Rng&) { return start; };
    SamplingStats stats = engine.Run(transition, walkers);
    if (pd_scale < 1.0f) {
      EXPECT_GT(stats.fallback_scans, walkers.num_walkers / 2);
    }
    std::vector<uint64_t> counts(weights.size(), 0);
    for (const auto& path : engine.TakePaths()) {
      ASSERT_EQ(path.size(), 2u);
      ++counts[index.at(path[1])];
    }
    EXPECT_LT(ChiSquareVsWeights(counts, weights), Chi2Critical999(ChiSquareDof(weights)));
  }
}

// Lower-bound pre-acceptance must not change the sampled distribution, only
// skip Pd computations.
TEST(WalkEngineTest, LowerBoundPreservesDistributionAndSavesWork) {
  auto graph = GenerateUniformDegree(60, 10, 8);
  auto pd_of = [](vertex_id_t dst) { return dst % 2 == 0 ? 0.5f : 1.0f; };  // in {0.5, 1}

  auto run = [&](bool use_lower) {
    WalkEngineOptions opts;
    opts.collect_paths = true;
    UnweightedEngine engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
    TransitionSpec<EmptyEdgeData> transition;
    transition.dynamic_comp = [pd_of](const Walker<>&, vertex_id_t,
                                      const AdjUnit<EmptyEdgeData>& e,
                                      const std::optional<uint8_t>&) {
      return pd_of(e.neighbor);
    };
    transition.dynamic_upper_bound = [](vertex_id_t, vertex_id_t) { return 1.0f; };
    if (use_lower) {
      transition.dynamic_lower_bound = [](vertex_id_t, vertex_id_t) { return 0.5f; };
    }
    WalkerSpec<> walkers;
    walkers.num_walkers = 40000;
    walkers.max_steps = 1;
    walkers.start_vertex = [](walker_id_t, Rng&) { return vertex_id_t{5}; };
    SamplingStats stats = engine.Run(transition, walkers);
    return std::make_pair(engine.TakePaths(), stats);
  };

  auto [paths_naive, stats_naive] = run(false);
  auto [paths_lb, stats_lb] = run(true);
  EXPECT_EQ(stats_naive.pre_accepts, 0u);
  EXPECT_GT(stats_lb.pre_accepts, 0u);
  EXPECT_LT(stats_lb.pd_computations, stats_naive.pd_computations);

  // Compare the two empirical distributions against the same target.
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(graph);
  std::vector<double> weights;
  std::map<vertex_id_t, size_t> index;
  for (const auto& adj : csr.Neighbors(5)) {
    index[adj.neighbor] = weights.size();
    weights.push_back(pd_of(adj.neighbor));
  }
  for (const auto* paths : {&paths_naive, &paths_lb}) {
    std::vector<uint64_t> counts(weights.size(), 0);
    for (const auto& path : *paths) {
      ++counts[index.at(path.at(1))];
    }
    EXPECT_LT(ChiSquareVsWeights(counts, weights), Chi2Critical999(ChiSquareDof(weights)));
  }
}

// Deterministic: identical paths regardless of the logical cluster size.
TEST(WalkEngineTest, PathsIdenticalAcrossClusterSizes) {
  auto graph = GenerateTruncatedPowerLaw(300, 2.0, 3, 60, 9);
  std::vector<std::vector<std::vector<vertex_id_t>>> all_paths;
  for (node_rank_t nodes : {1u, 2u, 5u}) {
    WalkEngineOptions opts;
    opts.num_nodes = nodes;
    opts.collect_paths = true;
    opts.seed = 77;
    UnweightedEngine engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
    WalkerSpec<> walkers;
    walkers.num_walkers = 200;
    walkers.max_steps = 12;
    engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
    all_paths.push_back(engine.TakePaths());
  }
  EXPECT_EQ(all_paths[0], all_paths[1]);
  EXPECT_EQ(all_paths[0], all_paths[2]);
}

// Deterministic: identical paths regardless of worker threads and light mode.
TEST(WalkEngineTest, PathsIdenticalAcrossThreadingModes) {
  auto graph = GenerateTruncatedPowerLaw(300, 2.0, 3, 60, 10);
  std::vector<std::vector<std::vector<vertex_id_t>>> all_paths;
  for (int mode = 0; mode < 3; ++mode) {
    WalkEngineOptions opts;
    opts.num_nodes = 2;
    opts.workers_per_node = mode == 0 ? 0 : 3;
    opts.enable_light_mode = mode == 2;
    opts.light_mode_threshold = 100;
    opts.collect_paths = true;
    opts.seed = 123;
    UnweightedEngine engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
    WalkerSpec<> walkers;
    walkers.num_walkers = 300;
    walkers.max_steps = 10;
    engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
    all_paths.push_back(engine.TakePaths());
  }
  EXPECT_EQ(all_paths[0], all_paths[1]);
  EXPECT_EQ(all_paths[0], all_paths[2]);
}

TEST(WalkEngineTest, SingleNodeHasNoCrossNodeTraffic) {
  UnweightedEngine engine(SmallGraph(), WalkEngineOptions{});
  WalkerSpec<> walkers;
  walkers.num_walkers = 100;
  walkers.max_steps = 10;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  EXPECT_EQ(engine.cross_node_messages(), 0u);
  EXPECT_EQ(engine.cross_node_bytes(), 0u);
}

TEST(WalkEngineTest, MultiNodeGeneratesWalkerTraffic) {
  WalkEngineOptions opts;
  opts.num_nodes = 4;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 200;
  walkers.max_steps = 10;
  SamplingStats stats = engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  EXPECT_GT(engine.cross_node_messages(), 0u);
  EXPECT_EQ(stats.walker_moves_remote, engine.cross_node_messages());
}

TEST(WalkEngineTest, ReusableForMultipleRuns) {
  WalkEngineOptions opts;
  opts.collect_paths = true;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 10;
  walkers.max_steps = 5;
  SamplingStats s1 = engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  auto p1 = engine.TakePaths();
  SamplingStats s2 = engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  auto p2 = engine.TakePaths();
  EXPECT_EQ(s1.steps, s2.steps);
  EXPECT_EQ(p1, p2);  // same seed => same walks
}

TEST(WalkEngineTest, StatsStepsMatchWalkLengths) {
  WalkEngineOptions opts;
  opts.num_nodes = 3;
  UnweightedEngine engine(SmallGraph(), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 123;
  walkers.max_steps = 17;
  SamplingStats stats = engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  EXPECT_EQ(stats.steps, 123u * 17u);
}

}  // namespace
}  // namespace knightking
