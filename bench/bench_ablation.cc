// An ablation called out in DESIGN.md §5, beyond the paper's own Table 5 /
// Fig. 8 ablations (which have dedicated benches): the phase-time breakdown
// of a second-order walk.
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

  std::printf("Ablation: phase breakdown (node2vec, 4 nodes)\n");
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
