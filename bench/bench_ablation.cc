// Ablations of KnightKing design choices called out in DESIGN.md §5 (beyond
// the paper's own Table 5 / Fig. 8 ablations, which have dedicated benches):
//
//   1. alias vs. ITS as the static (Ps) sampler (§3);
//   2. phase-time breakdown of a second-order walk.
//
// The engine fixes the rest: same-node state queries are answered inline
// (§5.1), the scheduling chunk is kDefaultChunkSize (128, §6.2), and a
// lockstep walker throws at most kMaxTrialsPerStep (64) darts before the
// exact fallback scan.
#include <cstdio>

#include "bench/bench_common.h"

using namespace knightking;
using namespace knightking::bench;

int main() {
  auto list = BuildSimDataset(SimDataset::kFriendsterSim, kGraphSeed);
  Node2VecParams n2v{.p = 2.0, .q = 0.5, .walk_length = 80};

  std::printf("Ablation 1: static sampler kind (weighted DeepWalk + weighted node2vec)\n");
  PrintRule(70);
  auto weighted = AssignUniformWeights(list, 1.0f, 5.0f, kWeightSeed);
  for (auto kind : {StaticSamplerKind::kAlias, StaticSamplerKind::kIts}) {
    WalkEngineOptions opts;
    opts.seed = kRunSeed;
    opts.sampler_kind = kind;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(weighted), opts);
    DeepWalkParams dw{.walk_length = 80};
    auto r1 = TimedRun(engine, DeepWalkTransition<WeightedEdgeData>(),
                       DeepWalkWalkers(weighted.num_vertices, dw));
    auto r2 = TimedRun(engine, Node2VecTransition(engine.graph(), n2v),
                       Node2VecWalkers(weighted.num_vertices, n2v));
    std::printf("  %-8s DeepWalk %8.2fs   node2vec %8.2fs\n", StaticSamplerKindName(kind),
                r1.seconds, r2.seconds);
  }

  std::printf("\nAblation 2: phase breakdown (node2vec, 4 nodes)\n");
  PrintRule(70);
  {
    WalkEngineOptions opts;
    opts.seed = kRunSeed;
    opts.num_nodes = 4;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(list), opts);
    auto r = TimedRun(engine, Node2VecTransition(engine.graph(), n2v),
                      Node2VecWalkers(list.num_vertices, n2v));
    const EnginePhaseTimes& t = engine.phase_times();
    std::printf("  total %.2fs = sample %.2fs + respond %.2fs + resolve %.2fs + "
                "exchange %.2fs (+ init)\n",
                r.seconds, t.sample, t.respond, t.resolve, t.exchange);
  }
  return 0;
}
