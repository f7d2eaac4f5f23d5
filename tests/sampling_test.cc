// Unit tests for src/sampling: alias tables and static sampler selection.
// Distribution correctness is validated with chi-square tests against the
// target distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/sampling/alias_table.h"
#include "src/sampling/static_sampler.h"
#include "src/util/rng.h"

namespace knightking {
namespace {

// Flat tables' row_weights callback over per-edge weights in CSR order.
auto FlatRows(const std::vector<edge_index_t>& offsets, const std::vector<real_t>& weights) {
  return [&offsets, &weights](vertex_id_t v, std::span<real_t> out) {
    std::copy(weights.begin() + static_cast<ptrdiff_t>(offsets[v]),
              weights.begin() + static_cast<ptrdiff_t>(offsets[v + 1]), out.begin());
  };
}

// Chi-square statistic of observed counts against expected proportional
// weights. dof = (#nonzero weights - 1).
double ChiSquare(const std::vector<uint64_t>& counts, const std::vector<real_t>& weights) {
  double total_w = 0.0;
  uint64_t total_c = 0;
  for (real_t w : weights) {
    total_w += static_cast<double>(w);
  }
  for (uint64_t c : counts) {
    total_c += c;
  }
  double chi2 = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    double expected = static_cast<double>(total_c) * static_cast<double>(weights[i]) / total_w;
    if (weights[i] == 0.0f) {
      EXPECT_EQ(counts[i], 0u) << "zero-weight index " << i << " was sampled";
      continue;
    }
    double diff = static_cast<double>(counts[i]) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

// 99.9th percentile of chi-square, approximated via Wilson-Hilferty.
double Chi2Critical999(size_t dof) {
  double z = 3.09;  // 99.9% normal quantile
  double d = static_cast<double>(dof);
  double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

TEST(AliasTableTest, UniformWeights) {
  std::vector<real_t> weights(8, 1.0f);
  AliasTable table(weights);
  EXPECT_DOUBLE_EQ(table.total_weight(), 8.0);
  Rng rng(1);
  std::vector<uint64_t> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[table.Sample(rng)];
  }
  EXPECT_LT(ChiSquare(counts, weights), Chi2Critical999(7));
}

TEST(AliasTableTest, SkewedWeights) {
  std::vector<real_t> weights = {1.0f, 2.0f, 4.0f, 8.0f, 0.5f};
  AliasTable table(weights);
  Rng rng(2);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (int i = 0; i < 155000; ++i) {
    ++counts[table.Sample(rng)];
  }
  EXPECT_LT(ChiSquare(counts, weights), Chi2Critical999(4));
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  std::vector<real_t> weights = {1.0f, 0.0f, 3.0f, 0.0f};
  AliasTable table(weights);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 0 || s == 2);
  }
}

TEST(AliasTableTest, SingleEntry) {
  std::vector<real_t> weights = {42.0f};
  AliasTable table(weights);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Sample(rng), 0u);
  }
}

TEST(AliasTableTest, ExtremeSkew) {
  // One dominant weight among many tiny ones: alias must stay exact.
  std::vector<real_t> weights(100, 0.001f);
  weights[37] = 1000.0f;
  AliasTable table(weights);
  Rng rng(5);
  uint64_t hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += table.Sample(rng) == 37 ? 1u : 0u;
  }
  // P(37) = 1000 / 1000.099 > 0.9998.
  EXPECT_GT(hits, static_cast<uint64_t>(n * 0.999));
}

TEST(FlatAliasTest, PerVertexSampling) {
  std::vector<edge_index_t> offsets = {0, 3, 3, 7};  // vertex 1 has no edges
  std::vector<real_t> weights = {1.0f, 2.0f, 1.0f, 4.0f, 1.0f, 1.0f, 2.0f};
  FlatAliasTables tables;
  tables.Build(offsets, FlatRows(offsets, weights));
  EXPECT_DOUBLE_EQ(tables.TotalWeight(0), 4.0);
  EXPECT_DOUBLE_EQ(tables.TotalWeight(1), 0.0);
  EXPECT_DOUBLE_EQ(tables.TotalWeight(2), 8.0);
  EXPECT_FLOAT_EQ(tables.MaxWeight(2), 4.0f);
  Rng rng(11);
  std::vector<uint64_t> counts(4, 0);
  for (int i = 0; i < 80000; ++i) {
    ++counts[tables.Sample(2, rng)];
  }
  EXPECT_LT(ChiSquare(counts, {4.0f, 1.0f, 1.0f, 2.0f}), Chi2Critical999(3));
}

TEST(StaticSamplerTest, AutoPicksUniformForUnweighted) {
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(100, 6, 13));
  StaticSamplerSet<EmptyEdgeData> sampler;
  sampler.Build(csr, StaticSamplerKind::kAuto, nullptr);
  EXPECT_EQ(sampler.kind(), StaticSamplerKind::kUniform);
  EXPECT_FLOAT_EQ(sampler.MaxWeight(0), 1.0f);
  EXPECT_DOUBLE_EQ(sampler.TotalWeight(0), static_cast<double>(csr.OutDegree(0)));
}

TEST(StaticSamplerTest, AutoPicksAliasForWeighted) {
  auto weighted = AssignUniformWeights(GenerateUniformDegree(100, 6, 14), 1.0f, 5.0f, 3);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(weighted);
  StaticSamplerSet<WeightedEdgeData> sampler;
  sampler.Build(csr, StaticSamplerKind::kAuto, nullptr);
  EXPECT_EQ(sampler.kind(), StaticSamplerKind::kAlias);
}

TEST(StaticSamplerTest, WeightedSamplingMatchesWeights) {
  auto weighted = AssignUniformWeights(GenerateUniformDegree(50, 8, 15), 1.0f, 5.0f, 4);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(weighted);
  StaticSamplerSet<WeightedEdgeData> sampler;
  sampler.Build(csr, StaticSamplerKind::kAlias, nullptr);
  vertex_id_t v = 0;
  auto neighbors = csr.Neighbors(v);
  std::vector<real_t> weights;
  for (const auto& adj : neighbors) {
    weights.push_back(adj.data.weight);
  }
  Rng rng(16);
  std::vector<uint64_t> counts(neighbors.size(), 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[sampler.Sample(v, rng)];
  }
  EXPECT_LT(ChiSquare(counts, weights), Chi2Critical999(weights.size() - 1));
}

TEST(StaticSamplerTest, CustomStaticComp) {
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(50, 5, 17));
  StaticSamplerSet<EmptyEdgeData> sampler;
  // Ps = neighbor id + 1: deterministic custom component.
  sampler.Build(csr, StaticSamplerKind::kAlias,
                [](vertex_id_t, const AdjUnit<EmptyEdgeData>& e) {
                  return static_cast<real_t>(e.neighbor + 1);
                });
  vertex_id_t v = 3;
  auto neighbors = csr.Neighbors(v);
  std::vector<real_t> weights;
  double total = 0.0;
  for (const auto& adj : neighbors) {
    weights.push_back(static_cast<real_t>(adj.neighbor + 1));
    total += adj.neighbor + 1;
  }
  EXPECT_NEAR(sampler.TotalWeight(v), total, 1e-6);
  Rng rng(18);
  std::vector<uint64_t> counts(neighbors.size(), 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[sampler.Sample(v, rng)];
  }
  EXPECT_LT(ChiSquare(counts, weights), Chi2Critical999(weights.size() - 1));
}

}  // namespace
}  // namespace knightking
