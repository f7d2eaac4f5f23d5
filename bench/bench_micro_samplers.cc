// Micro-benchmarks for the sampling substrates: alias table build and draw
// costs (§3's O(n) build, O(1) sample), a single rejection trial vs a full
// scan per vertex degree (the asymptotic claim of §4.1 at micro scale), and
// one edge reweight on a dynamic row vs rebuilding the row's alias table.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/sampling/alias_table.h"
#include "src/sampling/weight_class.h"
#include "src/util/rng.h"

namespace knightking {
namespace {

std::vector<real_t> MakeWeights(size_t n, uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<real_t> w(n);
  for (auto& x : w) {
    x = static_cast<real_t>(rng.NextDouble() * 4.0 + 1.0);
  }
  return w;
}

void BM_AliasBuild(benchmark::State& state) {
  auto weights = MakeWeights(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    AliasTable table(weights);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AliasBuild)->Range(8, 1 << 16);

void BM_AliasSample(benchmark::State& state) {
  auto weights = MakeWeights(static_cast<size_t>(state.range(0)));
  AliasTable table(weights);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Range(8, 1 << 16);

// One rejection trial: uniform candidate + one Pd evaluation. Cost is flat
// in the degree...
void BM_RejectionTrial(benchmark::State& state) {
  auto degree = static_cast<size_t>(state.range(0));
  auto pd = [](size_t i) { return i % 2 == 0 ? 0.5f : 1.0f; };
  Rng rng(13);
  for (auto _ : state) {
    size_t candidate = rng.NextUInt64(degree);
    float y = rng.NextFloat();
    benchmark::DoNotOptimize(y < pd(candidate));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RejectionTrial)->Range(8, 1 << 16);

// ...whereas the full scan recomputes Pd for every edge and builds a CDF.
void BM_FullScanStep(benchmark::State& state) {
  auto degree = static_cast<size_t>(state.range(0));
  auto pd = [](size_t i) { return i % 2 == 0 ? 0.5f : 1.0f; };
  Rng rng(13);
  std::vector<double> cdf(degree);
  for (auto _ : state) {
    double sum = 0.0;
    for (size_t i = 0; i < degree; ++i) {
      sum += static_cast<double>(pd(i));
      cdf[i] = sum;
    }
    double r = rng.NextDouble(sum);
    benchmark::DoNotOptimize(std::upper_bound(cdf.begin(), cdf.end(), r));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(degree));
}
BENCHMARK(BM_FullScanStep)->Range(8, 1 << 16);

// One edge reweight on a LazyAliasRow, the dynamic sampler of a dirty row:
// O(1) whatever the degree (the rebuild of a stale class waits for the
// next draw that lands in it)...
void BM_LazyAliasReweight(benchmark::State& state) {
  const auto degree = static_cast<uint32_t>(state.range(0));
  LazyAliasRow row;
  row.Build(MakeWeights(degree));
  Rng rng(17);
  benchmark::DoNotOptimize(&row);
  for (auto _ : state) {
    row.Reweight(static_cast<uint32_t>(rng.NextUInt64(degree)),
                 static_cast<real_t>(rng.NextDouble() * 4.0 + 1.0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LazyAliasReweight)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// ...whereas a static alias row must be rebuilt, O(degree), after each one.
void BM_AliasRowRebuild(benchmark::State& state) {
  const auto degree = static_cast<size_t>(state.range(0));
  auto weights = MakeWeights(degree);
  std::vector<real_t> prob(degree);
  std::vector<uint32_t> alias(degree);
  alias_internal::AliasScratch scratch;
  benchmark::DoNotOptimize(prob.data());
  benchmark::DoNotOptimize(alias.data());
  Rng rng(17);
  for (auto _ : state) {
    weights[rng.NextUInt64(degree)] = static_cast<real_t>(rng.NextDouble() * 4.0 + 1.0);
    benchmark::DoNotOptimize(alias_internal::BuildAliasRow(weights, prob, alias, scratch));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasRowRebuild)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

}  // namespace
}  // namespace knightking
