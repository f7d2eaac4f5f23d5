// Property-based tests (parameterized sweeps) on the core invariants:
//   * alias sampling is exact for arbitrary weight vectors,
//   * rejection sampling's measured trial count matches Eq. (3),
//   * CSR faithfully round-trips arbitrary edge lists,
//   * the partitioner covers and balances arbitrary degree sequences,
//   * walks are valid on every generator family.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/partition.h"
#include "src/sampling/alias_table.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

std::vector<real_t> RandomWeights(size_t n, uint64_t seed, double zero_fraction) {
  Rng rng(seed);
  std::vector<real_t> w(n);
  bool any_positive = false;
  for (auto& x : w) {
    if (rng.NextDouble() < zero_fraction) {
      x = 0.0f;
    } else {
      x = static_cast<real_t>(rng.NextDouble() * 10.0 + 0.01);
      any_positive = true;
    }
  }
  if (!any_positive) {
    w[0] = 1.0f;
  }
  return w;
}

class SamplerExactnessTest : public testing::TestWithParam<std::tuple<size_t, uint64_t, double>> {
};

TEST_P(SamplerExactnessTest, AliasMatchesWeights) {
  auto [n, seed, zero_frac] = GetParam();
  auto weights = RandomWeights(n, seed, zero_frac);
  AliasTable table(weights);
  Rng rng(seed ^ 0xabcdef);
  std::vector<uint64_t> counts(n, 0);
  size_t draws = std::max<size_t>(20000, n * 300);
  for (size_t i = 0; i < draws; ++i) {
    ++counts[table.Sample(rng)];
  }
  std::vector<double> dweights(weights.begin(), weights.end());
  ExpectChiSquareOk(counts, dweights);
}

INSTANTIATE_TEST_SUITE_P(WeightVectors, SamplerExactnessTest,
                         testing::Combine(testing::Values<size_t>(1, 2, 3, 17, 128),
                                          testing::Values<uint64_t>(1, 2, 3),
                                          testing::Values(0.0, 0.3)));

// Eq. (3): E[trials per step] = Q * sum(Ps) / sum(Ps * Pd). With Ps == 1 and
// Pd(e) in {low, 1}: E = Q * n / (n_low * low + n_high).
class RejectionTrialCountTest : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RejectionTrialCountTest, MeasuredTrialsMatchEquation3) {
  auto [low_pd, high_fraction] = GetParam();
  const vertex_id_t degree = 20;
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(400, degree, 13));

  // Deterministic Pd: "high" (1.0) iff hash of dst falls below the fraction.
  auto is_high = [high_fraction = high_fraction](vertex_id_t dst) {
    uint64_t h = HashCombine64(0x9999, dst);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < high_fraction;
  };
  auto pd_of = [=](vertex_id_t dst) {
    return is_high(dst) ? 1.0f : static_cast<real_t>(low_pd);
  };

  // Analytic expectation, averaged over vertices weighted by visit counts —
  // approximate by the global edge mix (uniform graph, uniform visits).
  double sum_pd = 0.0;
  uint64_t edges = 0;
  for (vertex_id_t v = 0; v < csr.num_vertices(); ++v) {
    for (const auto& adj : csr.Neighbors(v)) {
      sum_pd += static_cast<double>(pd_of(adj.neighbor));
      ++edges;
    }
  }
  double expected_trials = static_cast<double>(edges) / sum_pd;  // Q = 1

  WalkEngineOptions opts;
  opts.seed = 7;
  WalkEngine<EmptyEdgeData> engine(std::move(csr), opts);
  TransitionSpec<EmptyEdgeData> transition;
  transition.dynamic_comp = [pd_of](const Walker<>&, vertex_id_t, const AdjUnit<EmptyEdgeData>& e,
                                    const std::optional<uint8_t>&) { return pd_of(e.neighbor); };
  transition.dynamic_upper_bound = [](vertex_id_t, vertex_id_t) { return 1.0f; };
  WalkerSpec<> walkers;
  walkers.num_walkers = 2000;
  walkers.max_steps = 40;
  SamplingStats stats = engine.Run(transition, walkers);
  EXPECT_NEAR(stats.TrialsPerStep(), expected_trials, expected_trials * 0.08)
      << "Eq. (3) violated for low_pd=" << low_pd << " high_fraction=" << high_fraction;
}

INSTANTIATE_TEST_SUITE_P(PdShapes, RejectionTrialCountTest,
                         testing::Combine(testing::Values(0.1, 0.25, 0.5, 0.9),
                                          testing::Values(0.1, 0.5, 0.9)));

class CsrRoundTripTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CsrRoundTripTest, CsrMatchesReferenceAdjacency) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 50;
  std::set<std::pair<vertex_id_t, vertex_id_t>> used;
  size_t num_edges = 200 + rng.NextUInt64(300);
  for (size_t i = 0; i < num_edges; ++i) {
    auto u = static_cast<vertex_id_t>(rng.NextUInt64(50));
    auto v = static_cast<vertex_id_t>(rng.NextUInt64(50));
    if (u == v || !used.insert({u, v}).second) {
      continue;
    }
    list.edges.push_back({u, v, {static_cast<real_t>(rng.NextDouble())}});
  }
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(list);
  // Reference adjacency.
  std::map<vertex_id_t, std::map<vertex_id_t, real_t>> ref;
  for (const auto& e : list.edges) {
    ref[e.src][e.dst] = e.data.weight;
  }
  EXPECT_EQ(csr.num_edges(), list.edges.size());
  for (vertex_id_t v = 0; v < 50; ++v) {
    auto neighbors = csr.Neighbors(v);
    EXPECT_EQ(neighbors.size(), ref[v].size());
    vertex_id_t last = 0;
    bool first = true;
    for (const auto& adj : neighbors) {
      if (!first) {
        EXPECT_GT(adj.neighbor, last);  // sorted strictly (simple graph)
      }
      last = adj.neighbor;
      first = false;
      ASSERT_TRUE(ref[v].count(adj.neighbor));
      EXPECT_FLOAT_EQ(adj.data.weight, ref[v][adj.neighbor]);
    }
    for (const auto& [dst, w] : ref[v]) {
      EXPECT_TRUE(csr.HasNeighbor(v, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRoundTripTest, testing::Range<uint64_t>(1, 9));

class PartitionPropertyTest
    : public testing::TestWithParam<std::tuple<uint64_t, node_rank_t>> {};

TEST_P(PartitionPropertyTest, CoversBalancesAndRoutes) {
  auto [seed, num_nodes] = GetParam();
  Rng rng(seed);
  size_t n = 100 + rng.NextUInt64(2000);
  std::vector<vertex_id_t> degrees(n);
  double total_work = 0.0;
  vertex_id_t max_degree = 0;
  for (auto& d : degrees) {
    // Mix of tiny and huge degrees.
    d = rng.NextBernoulli(0.05) ? static_cast<vertex_id_t>(rng.NextUInt64(5000))
                                : static_cast<vertex_id_t>(rng.NextUInt64(20));
    total_work += 1.0 + d;
    max_degree = std::max(max_degree, d);
  }
  Partition p = Partition::FromDegrees(degrees, num_nodes);
  ASSERT_EQ(p.num_nodes(), num_nodes);
  // Coverage + contiguity.
  vertex_id_t covered = 0;
  for (node_rank_t k = 0; k < num_nodes; ++k) {
    EXPECT_EQ(p.Begin(k), covered);
    covered = p.End(k);
  }
  EXPECT_EQ(covered, n);
  // Routing agrees with ranges.
  for (vertex_id_t v = 0; v < n; v += 7) {
    EXPECT_TRUE(p.Owns(p.OwnerOf(v), v));
  }
  // Greedy balance bound: every node's work <= ideal + heaviest vertex.
  double ideal = total_work / num_nodes;
  for (node_rank_t k = 0; k < num_nodes; ++k) {
    double work = 0.0;
    for (vertex_id_t v = p.Begin(k); v < p.End(k); ++v) {
      work += 1.0 + degrees[v];
    }
    EXPECT_LE(work, ideal + max_degree + 1.0) << "node " << k << " overloaded";
  }
}

INSTANTIATE_TEST_SUITE_P(DegreeSequences, PartitionPropertyTest,
                         testing::Combine(testing::Values<uint64_t>(1, 2, 3, 4),
                                          testing::Values<node_rank_t>(1, 2, 8, 16)));

enum class GeneratorKind { kUniform, kPowerLaw, kHotspot, kRmat, kErdosRenyi };

class WalkValidityTest : public testing::TestWithParam<GeneratorKind> {};

TEST_P(WalkValidityTest, StaticWalksOnlyUseRealEdges) {
  EdgeList<EmptyEdgeData> list;
  switch (GetParam()) {
    case GeneratorKind::kUniform:
      list = GenerateUniformDegree(500, 8, 5);
      break;
    case GeneratorKind::kPowerLaw:
      list = GenerateTruncatedPowerLaw(500, 2.0, 2, 100, 5);
      break;
    case GeneratorKind::kHotspot:
      list = GenerateHotspot(500, 6, 2, 200, 5);
      break;
    case GeneratorKind::kRmat:
      list = GenerateRmat(9, 8, 0.57, 0.19, 0.19, 5);
      break;
    case GeneratorKind::kErdosRenyi:
      list = GenerateErdosRenyi(500, 2000, 5);
      break;
  }
  WalkEngineOptions opts;
  opts.num_nodes = 3;
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(list), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 200;
  walkers.max_steps = 15;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  for (const auto& path : engine.TakePaths()) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      ASSERT_TRUE(engine.graph().HasNeighbor(path[i], path[i + 1]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, WalkValidityTest,
                         testing::Values(GeneratorKind::kUniform, GeneratorKind::kPowerLaw,
                                         GeneratorKind::kHotspot, GeneratorKind::kRmat,
                                         GeneratorKind::kErdosRenyi));

}  // namespace
}  // namespace knightking
