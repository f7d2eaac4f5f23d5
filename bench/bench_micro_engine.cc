// Micro-benchmarks for the engine substrate: mailbox exchange throughput,
// thread-pool dispatch overhead (the cost light mode avoids), the fixed
// cost of a superstep with few walkers, and end-to-end walk step rates per
// algorithm class.
#include <benchmark/benchmark.h>

#include "src/apps/deepwalk.h"
#include "src/apps/node2vec.h"
#include "src/apps/ppr.h"
#include "src/engine/mailbox.h"
#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/thread_pool.h"

namespace knightking {
namespace {

void BM_MailboxExchange(benchmark::State& state) {
  node_rank_t nodes = 8;
  Mailbox<uint64_t> mail(nodes);
  auto batch = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> payload(batch, 42);
  for (auto _ : state) {
    for (node_rank_t s = 0; s < nodes; ++s) {
      for (node_rank_t d = 0; d < nodes; ++d) {
        auto copy = payload;
        mail.Post(s, d, std::move(copy));
      }
    }
    mail.Exchange();
    for (node_rank_t d = 0; d < nodes; ++d) {
      benchmark::DoNotOptimize(mail.Inbox(d).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes * nodes * static_cast<int64_t>(batch));
}
BENCHMARK(BM_MailboxExchange)->Range(64, 1 << 12);

// The per-iteration coordination cost of a worker pool: this is what a node
// pays in full mode even when almost no walkers remain, and what light mode
// eliminates (§6.2).
void BM_PoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    pool.ParallelFor(256, [](size_t, size_t) {});
  }
}
BENCHMARK(BM_PoolDispatch)->Arg(0)->Arg(2)->Arg(8)->Arg(16);

// Time per superstep of a Run with few walkers, where the driver's fixed
// cost per node and phase dominates the trials. Arg 0 is num_nodes; arg 1
// picks the Run: 0 is shaped like one PPR query's live remainder in
// WalkService (24 walkers from one vertex, reuse_static_state,
// collect_paths), 1 is a single walker taking 300 steps.
void BM_SuperstepFloor(benchmark::State& state) {
  WalkEngineOptions opts;
  opts.num_nodes = static_cast<node_rank_t>(state.range(0));
  opts.reuse_static_state = true;
  opts.collect_paths = true;
  opts.seed = 97;
  WalkEngine<EmptyEdgeData> engine(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(30000, 2.0, 4, 100, 20190707)),
      opts);
  const bool lone_query = state.range(1) == 0;
  WalkerSpec<> spec;
  spec.num_walkers = lone_query ? 24 : 1;
  const auto start = static_cast<vertex_id_t>(state.range(2));
  spec.start_vertex = [start](walker_id_t, Rng&) { return start; };
  spec.max_steps = lone_query ? 0 : 300;
  spec.terminate_prob = lone_query ? 1.0 / 80.0 : 0.0;
  const TransitionSpec<EmptyEdgeData> transition = PprTransition<EmptyEdgeData>();
  uint64_t supersteps = 0;
  for (auto _ : state) {
    const SamplingStats stats = engine.Run(transition, spec);
    benchmark::DoNotOptimize(stats.steps);
    supersteps += stats.iterations;
  }
  state.counters["superstep"] = benchmark::Counter(
      static_cast<double>(supersteps), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SuperstepFloor)
    ->ArgNames({"nodes", "run", "start"})
    ->Args({1, 0, 12345})
    ->Args({4, 0, 12345})
    ->Args({1, 1, 12345})
    ->Args({4, 1, 12345});

void BM_StaticWalkSteps(benchmark::State& state) {
  WalkEngineOptions opts;
  WalkEngine<EmptyEdgeData> engine(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(20000, 16, 3)), opts);
  DeepWalkParams params{.walk_length = 80};
  uint64_t steps = 0;
  for (auto _ : state) {
    steps += engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(2000, params))
                 .steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_StaticWalkSteps);

void BM_Node2VecWalkSteps(benchmark::State& state) {
  WalkEngineOptions opts;
  WalkEngine<EmptyEdgeData> engine(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(20000, 16, 3)), opts);
  Node2VecParams params{.p = 2.0, .q = 0.5, .walk_length = 80};
  uint64_t steps = 0;
  for (auto _ : state) {
    steps += engine.Run(Node2VecTransition(engine.graph(), params),
                        Node2VecWalkers(2000, params))
                 .steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_Node2VecWalkSteps);

void BM_Node2VecDistributedSteps(benchmark::State& state) {
  WalkEngineOptions opts;
  opts.num_nodes = static_cast<node_rank_t>(state.range(0));
  WalkEngine<EmptyEdgeData> engine(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(20000, 16, 3)), opts);
  Node2VecParams params{.p = 2.0, .q = 0.5, .walk_length = 80};
  uint64_t steps = 0;
  for (auto _ : state) {
    steps += engine.Run(Node2VecTransition(engine.graph(), params),
                        Node2VecWalkers(2000, params))
                 .steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_Node2VecDistributedSteps)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace knightking
