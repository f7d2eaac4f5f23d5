// Figure 9: impact of straggler-aware scheduling (light mode).
//
// The two straggler-prone algorithms of §6.2: PPR with Pt = 0.149 (heavily
// non-deterministic termination -> long geometric tail) and node2vec
// (rejection stragglers). A node in full mode keeps its whole worker pool
// synchronized every iteration; light mode drops to inline execution when
// its active walker count falls below the threshold (4000 in the paper and
// here). Paper result: up to 66.1% run-time reduction, largest on the
// smallest graph where the tail dominates.
#include <cstdio>

#include "bench/bench_common.h"

using namespace knightking;
using namespace knightking::bench;

namespace {

// Average of 5 runs, like the paper's methodology (§7.1).
template <typename MakeTransition, typename Walkers>
double RunMode(const EdgeList<EmptyEdgeData>& list, bool light,
               const MakeTransition& make_transition, const Walkers& walkers) {
  WalkEngineOptions opts;
  opts.seed = kRunSeed;
  opts.num_nodes = 2;
  opts.workers_per_node = 8;  // the pool whose upkeep light mode avoids
  opts.light_mode_threshold = light ? 4000 : 0;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(list), opts);
  constexpr int kRepeats = 5;
  double total = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    Timer timer;
    engine.Run(make_transition(engine.graph()), walkers);
    total += timer.Seconds();
  }
  return total / kRepeats;
}

}  // namespace

int main() {
  std::printf("Figure 9: straggler-aware light mode (2 logical nodes x 8 workers, "
              "threshold 4000)\n");
  PrintRule(84);
  std::printf("%-10s %-16s %12s %12s %12s %14s\n", "algo", "graph", "full(s)", "light(s)",
              "reduction", "paper: avg red.");
  PrintRule(84);

  const SimDataset datasets[] = {SimDataset::kLiveJournalSim, SimDataset::kFriendsterSim,
                                 SimDataset::kTwitterSim};

  for (SimDataset dataset : datasets) {
    auto list = BuildSimDataset(dataset, kGraphSeed);
    PprParams ppr_params{.terminate_prob = 0.149};
    auto make_ppr = [](const Csr<EmptyEdgeData>&) { return PprTransition<EmptyEdgeData>(); };
    double full = RunMode(list, false, make_ppr, PprWalkers(list.num_vertices, ppr_params));
    double light = RunMode(list, true, make_ppr, PprWalkers(list.num_vertices, ppr_params));
    std::printf("%-10s %-16s %12.3f %12.3f %11.1f%% %14s\n", "PPR", SimDatasetName(dataset),
                full, light, 100.0 * (full - light) / full, "37.2%");
  }
  for (SimDataset dataset : datasets) {
    auto list = BuildSimDataset(dataset, kGraphSeed);
    Node2VecParams n2v_params{.p = 0.5, .q = 2.0, .walk_length = 80};
    auto make_n2v = [&](const Csr<EmptyEdgeData>& g) {
      return Node2VecTransition(g, n2v_params);
    };
    double full =
        RunMode(list, false, make_n2v, Node2VecWalkers(list.num_vertices, n2v_params));
    double light =
        RunMode(list, true, make_n2v, Node2VecWalkers(list.num_vertices, n2v_params));
    std::printf("%-10s %-16s %12.3f %12.3f %11.1f%% %14s\n", "node2vec",
                SimDatasetName(dataset), full, light, 100.0 * (full - light) / full, "16.3%");
  }
  PrintRule(84);
  std::printf("shape check (paper Fig. 9): light mode helps both algorithms, most on\n"
              "the smallest graph (livejournal-sim) where the long tail dominates.\n");
  return 0;
}
