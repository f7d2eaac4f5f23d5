// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Each bench_* binary regenerates one table or figure from the paper's
// evaluation (§7). Sizes are scaled to a single machine (see DESIGN.md §3);
// like the paper, prohibitively slow full-scan runs execute a sampled subset
// of walkers and report a linear extrapolation, marked with (*).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/apps/deepwalk.h"
#include "src/apps/metapath.h"
#include "src/apps/node2vec.h"
#include "src/apps/ppr.h"
#include "src/baseline/full_scan_engine.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/sampling/stats.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace knightking {
namespace bench {

inline constexpr uint64_t kGraphSeed = 20190707;   // SOSP'19 vintage
inline constexpr uint64_t kWeightSeed = 41;
inline constexpr uint64_t kRunSeed = 97;

// A timed run result.
struct RunResult {
  double seconds = 0.0;
  SamplingStats stats;
  bool extrapolated = false;
  double walker_fraction = 1.0;

  // Walk time scales linearly in the number of walkers (verified by the
  // paper with R^2 >= 0.9998); scale the sampled run up.
  double FullSeconds() const { return seconds / walker_fraction; }
};

// Runs `engine.Run(transition, walkers)` with only `fraction` of the walkers
// (randomly started like the full deployment would be) and extrapolates.
template <typename Engine, typename Transition, typename Walkers>
RunResult TimedRun(Engine& engine, const Transition& transition, Walkers walkers,
                   double fraction = 1.0) {
  RunResult result;
  result.walker_fraction = fraction;
  result.extrapolated = fraction < 1.0;
  if (result.extrapolated) {
    // Start the sampled walkers at uniformly random vertices so the sample
    // is unbiased (the full deployment is one walker per vertex).
    auto num_v = engine.graph().num_vertices();
    walkers.num_walkers = static_cast<walker_id_t>(
        static_cast<double>(walkers.num_walkers) * fraction);
    if (walkers.num_walkers == 0) {
      walkers.num_walkers = 1;
    }
    walkers.start_vertex = [num_v](walker_id_t, Rng& rng) {
      return static_cast<vertex_id_t>(rng.NextUInt64(num_v));
    };
  }
  Timer timer;
  result.stats = engine.Run(transition, walkers);
  result.seconds = timer.Seconds();
  return result;
}

inline std::string FormatTime(const RunResult& r) {
  char buf[64];
  if (r.extrapolated) {
    std::snprintf(buf, sizeof(buf), "%9.2f*", r.FullSeconds());
  } else {
    std::snprintf(buf, sizeof(buf), "%9.2f ", r.seconds);
  }
  return buf;
}

// CPUs this process may run on: its affinity mask on Linux, else the
// hardware thread count; never less than 1.
inline size_t UsableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

// Paper-standard Meta-path setup (§7.1): 5 edge types, 10 cyclic schemes of
// length 5.
inline MetaPathParams PaperMetaPathParams() {
  MetaPathParams params;
  params.schemes = GenerateMetaPathSchemes(10, 5, 5, 2019);
  params.walk_length = 80;
  return params;
}

}  // namespace bench
}  // namespace knightking

#endif  // BENCH_BENCH_COMMON_H_
