// Micro-benchmarks for the graph substrate: generator throughput, CSR
// construction, neighbor queries (the inner operation of node2vec's
// distance checks), partitioning, a mutating graph's batch apply and
// overlay merge, and a whole DeepWalk Run with and without the churn log.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/engine/mutable_graph.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/generators.h"
#include "src/graph/partition.h"
#include "src/sampling/static_sampler.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace knightking {
namespace {

void BM_GenerateUniform(benchmark::State& state) {
  auto n = static_cast<vertex_id_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    auto list = GenerateUniformDegree(n, 16, seed++);
    benchmark::DoNotOptimize(list);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * 16);
}
BENCHMARK(BM_GenerateUniform)->Range(1 << 10, 1 << 15);

void BM_GeneratePowerLaw(benchmark::State& state) {
  auto n = static_cast<vertex_id_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    auto list = GenerateTruncatedPowerLaw(n, 2.0, 4, n / 4, seed++);
    benchmark::DoNotOptimize(list);
  }
}
BENCHMARK(BM_GeneratePowerLaw)->Range(1 << 10, 1 << 15);

void BM_CsrBuild(benchmark::State& state) {
  auto list = GenerateUniformDegree(static_cast<vertex_id_t>(state.range(0)), 32, 5);
  for (auto _ : state) {
    auto csr = Csr<EmptyEdgeData>::FromEdgeList(list);
    benchmark::DoNotOptimize(csr);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(list.edges.size()));
}
BENCHMARK(BM_CsrBuild)->Range(1 << 10, 1 << 15);

void BM_NeighborQuery(benchmark::State& state) {
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(
      GenerateTruncatedPowerLaw(1 << 14, 2.0, 4, static_cast<vertex_id_t>(state.range(0)), 9));
  Rng rng(3);
  vertex_id_t n = csr.num_vertices();
  for (auto _ : state) {
    auto u = static_cast<vertex_id_t>(rng.NextUInt64(n));
    auto v = static_cast<vertex_id_t>(rng.NextUInt64(n));
    benchmark::DoNotOptimize(csr.HasNeighbor(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborQuery)->Arg(64)->Arg(1024)->Arg(8192);

void BM_PartitionBuild(benchmark::State& state) {
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(1 << 15, 16, 4));
  std::vector<vertex_id_t> degrees(csr.num_vertices());
  for (vertex_id_t v = 0; v < csr.num_vertices(); ++v) {
    degrees[v] = csr.OutDegree(v);
  }
  for (auto _ : state) {
    Partition p = Partition::FromDegrees(degrees, static_cast<node_rank_t>(state.range(0)));
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PartitionBuild)->Arg(2)->Arg(8)->Arg(64);

void BM_OwnerLookup(benchmark::State& state) {
  std::vector<vertex_id_t> degrees(1 << 15, 16);
  Partition p = Partition::FromDegrees(degrees, static_cast<node_rank_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    auto v = static_cast<vertex_id_t>(rng.NextUInt64(degrees.size()));
    benchmark::DoNotOptimize(p.OwnerOf(v));
  }
}
BENCHMARK(BM_OwnerLookup)->Arg(2)->Arg(8)->Arg(64);


// The graph and mutation log shape of kkbench's deepwalk_churn: 60k vertices
// with power-law degrees 4..100 and weights in [0.5, 4); 79 batches of 600
// mutations (60% reweights, 25% inserts, 15% deletes), a tenth of them on
// sources drawn by a Zipf law over degree rank.
struct ChurnWorkload {
  Csr<WeightedEdgeData> csr;
  MutationLog log;
};

const ChurnWorkload& Churn() {
  static const ChurnWorkload* const workload = [] {
    constexpr vertex_id_t kVertices = 60000;
    constexpr size_t kBatches = 79;
    constexpr size_t kPerBatch = 600;
    auto* w = new ChurnWorkload{
        Csr<WeightedEdgeData>::FromEdgeList(AssignUniformWeights(
            GenerateTruncatedPowerLaw(kVertices, 2.0, 4, 100, 20190707), 0.5f, 4.0f, 41)),
        MutationLog(1)};
    const Csr<WeightedEdgeData>& csr = w->csr;
    std::vector<std::vector<vertex_id_t>> rows(kVertices);
    std::vector<vertex_id_t> by_degree(kVertices);
    for (vertex_id_t v = 0; v < kVertices; ++v) {
      for (const auto& adj : csr.Neighbors(v)) {
        rows[v].push_back(adj.neighbor);
      }
      by_degree[v] = v;
    }
    std::stable_sort(by_degree.begin(), by_degree.end(), [&csr](vertex_id_t a, vertex_id_t b) {
      return csr.OutDegree(a) > csr.OutDegree(b);
    });
    std::vector<double> zipf_cdf(kVertices);
    double total = 0.0;
    for (size_t r = 0; r < kVertices; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf[r] = total;
    }
    Rng rng(7);
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<EdgeMutation> muts;
      while (muts.size() < kPerBatch) {
        vertex_id_t src = static_cast<vertex_id_t>(rng.NextUInt64(kVertices));
        if (rng.NextDouble() < 0.1) {
          const auto rank = static_cast<size_t>(
              std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.NextDouble() * total) -
              zipf_cdf.begin());
          src = by_degree[std::min<size_t>(rank, kVertices - 1)];
        }
        auto& row = rows[src];
        const uint64_t kind = rng.NextUInt64(100);
        const auto weight = static_cast<real_t>(0.5 + rng.NextDouble() * 3.5);
        if (kind < 60) {
          muts.push_back({src, row[rng.NextUInt64(row.size())], weight, MutationOp::kReweight});
        } else if (kind < 85) {
          const auto dst = static_cast<vertex_id_t>(rng.NextUInt64(kVertices));
          muts.push_back({src, dst, weight, MutationOp::kInsert});
          row.push_back(dst);
        } else if (row.size() > 2) {
          const size_t j = rng.NextUInt64(row.size());
          muts.push_back({src, row[j], 0.0f, MutationOp::kDelete});
          row[j] = row.back();
          row.pop_back();
        }
      }
      w->log.Append(b + 1, std::move(muts));
    }
    return w;
  }();
  return *workload;
}

// The churn workload on a MutableGraph with the engine's hooks for a
// weighted first-order walk: Ps is the edge weight, no Pd envelope, and the
// static state is the alias tables. `incremental` passes the merge's
// reusable rows to the tables' Build, as the engine does.
class ChurnGraph {
 public:
  ChurnGraph(uint32_t merge_threshold, bool incremental) : graph_(Churn().csr) {
    sampler_.Build(graph_.csr(), StaticSamplerKind::kAlias, nullptr);
    using Graph = MutableGraph<WeightedEdgeData>;
    Graph::Hooks hooks{
        .ps = [](vertex_id_t, const AdjUnit<WeightedEdgeData>& e) { return e.data.weight; },
        .refresh_envelope = [](vertex_id_t, vertex_id_t) {},
        .prepare_static =
            [this, incremental](const Graph::RowReuseFn& reuse) {
              sampler_.Build(graph_.csr(), StaticSamplerKind::kAlias, nullptr, nullptr,
                             incremental ? reuse : nullptr);
            },
        .pool = nullptr};
    graph_.BeginRun(&Churn().log, merge_threshold, /*weighted=*/true, std::move(hooks));
  }

  // Applies every batch of the log.
  void ApplyAll() { graph_.ApplyDue(Churn().log.num_batches(), nullptr); }

  const MutableGraph<WeightedEdgeData>& graph() const { return graph_; }

 private:
  MutableGraph<WeightedEdgeData> graph_;
  StaticSamplerSet<WeightedEdgeData> sampler_;
};

// Batch apply without merges: per mutation, the first touch of a row
// (overlay copy and weight-class row build) amortized, the row edit, and
// the O(1) weight-class update.
void BM_ChurnBatchApply(benchmark::State& state) {
  const auto mutations = static_cast<double>(Churn().log.num_mutations());
  for (auto _ : state) {
    state.PauseTiming();
    ChurnGraph churn(/*merge_threshold=*/0, /*incremental=*/true);
    state.ResumeTiming();
    churn.ApplyAll();
    benchmark::DoNotOptimize(churn.graph().counters());
  }
  state.counters["per_mutation"] = benchmark::Counter(
      mutations, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChurnBatchApply)->Unit(benchmark::kMillisecond);

// One overlay merge at the engine's default threshold (64): the CSR fold
// and the alias tables' rebuild, reported per merge. Arg 1 rebuilds the
// dirty rows only (the engine's path), arg 0 every row.
void BM_MergeOverlay(benchmark::State& state) {
  for (auto _ : state) {
    ChurnGraph churn(/*merge_threshold=*/64, state.range(0) != 0);
    churn.ApplyAll();
    const uint64_t merges = churn.graph().counters().merges;
    state.SetIterationTime(static_cast<double>(churn.graph().merge_micros()) * 1e-6 /
                           static_cast<double>(std::max<uint64_t>(merges, 1)));
    state.counters["merges"] = static_cast<double>(merges);
  }
}
BENCHMARK(BM_MergeOverlay)->Arg(1)->Arg(0)->UseManualTime()->Unit(benchmark::kMillisecond);

// One DeepWalk Run (a walker per vertex, 80 steps, four nodes, no worker
// threads) over the churn graph: arg 0 on the static graph, arg 1 beside the
// churn log at the engine's default merge threshold. Items are walks, so
// items_per_second is walks/s, and the churn/static ratio of the two rows
// is the throughput share the mutation path keeps.
void BM_DeepWalkRun(benchmark::State& state) {
  constexpr step_t kWalkLength = 80;
  const vertex_id_t walkers = Churn().csr.num_vertices();
  WalkEngineOptions opts;
  opts.num_nodes = 4;
  opts.seed = 7;
  if (state.range(0) != 0) {
    opts.mutation_log = &Churn().log;
  }
  for (auto _ : state) {
    state.PauseTiming();
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>(Churn().csr), opts);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Run(DeepWalkTransition<WeightedEdgeData>(),
                                        DeepWalkWalkers(walkers, {.walk_length = kWalkLength})));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(walkers));
}
BENCHMARK(BM_DeepWalkRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace knightking
