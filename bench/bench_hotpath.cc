// Hot-path throughput baseline: machine-recorded walks/sec for the engine's
// two flagship workloads, emitted as BENCH_hotpath.json so the repo's perf
// trajectory is tracked in version control (see docs/PERFORMANCE.md).
//
// Workloads (both on the same truncated-power-law graph):
//   * node2vec  — second-order, query-heavy: exercises phases A/B/C, the
//                 response/ack batching, and the locality sort.
//   * ppr       — first-order lockstep with geometric termination:
//                 exercises the straggling-tail iterations where per-
//                 iteration coordination overhead dominates.
//
// Flags:
//   --small        reduced sizes for CI smoke runs (perf-smoke job)
//   --out FILE     JSON output path          (default BENCH_hotpath.json)
//   --floor FILE   regression floor file: lines of "<workload> <walks/sec>";
//                  exit non-zero if measured walks/sec falls more than 2x
//                  below the floor
//   --workers N    workers per node ceiling  (default 4); the bench lowers
//                  it, and picks parallel or sequential node drivers, to
//                  fit the usable CPUs (SizeThreads)
//   --no-sort      disable the locality batch sort (ablation)
//   --vertices N   graph size (default 60000, 8000 with --small); the same
//                  generator at larger N puts the graph past the LLC
//   --walkers N    walkers per workload (default one per vertex)
//   --metrics-out FILE  write a kk-metrics snapshot (engine ExportMetrics,
//                       one label set per workload) alongside the bench JSON
//   --trace FILE   record per-phase spans and write chrome://tracing JSON
//   --checkpoint-every N   snapshot engine state every N supersteps so the
//                          checkpointing overhead shows up in the bench JSON
//                          (0 = disabled, the perf-floor configuration)
//   --checkpoint-path FILE snapshot destination (default <out>.ckpt)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/util/cache_geometry.h"

namespace knightking {
namespace bench {
namespace {

constexpr node_rank_t kHotpathNodes = 4;

struct HotpathConfig {
  bool small = false;
  bool sort_batches = true;
  size_t workers_per_node = 4;  // ceiling; see SizeThreads
  vertex_id_t vertices = 0;  // 0 = size default
  walker_id_t walkers = 0;   // 0 = one per vertex
  std::string out_path = "BENCH_hotpath.json";
  std::string floor_path;
  std::string metrics_path;
  std::string trace_path;
  uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
};

struct WorkloadResult {
  std::string name;
  walker_id_t walkers = 0;
  double seconds = 0.0;
  double spec_build_seconds = 0.0;  // transition construction, inside `seconds`
  double walks_per_sec = 0.0;
  double steps_per_sec = 0.0;
  SamplingStats stats;
  EnginePhaseTimes phases;
  uint64_t cross_node_messages = 0;
  uint64_t cross_node_bytes = 0;
  CheckpointStats ckpt;
  uint64_t batch_sorts = 0;  // locality passes taken (zero under -DKK_OBS=OFF)
};

// Threads the bench asks the engine for, sized so it never starts more
// runnable threads than the process has CPUs.
struct ThreadBudget {
  size_t usable_cpus = 1;
  bool parallel_nodes = false;
  size_t workers_per_node = 0;
};

ThreadBudget SizeThreads(size_t requested_workers) {
  ThreadBudget budget;
  budget.usable_cpus = UsableCpus();
  if (budget.usable_cpus <= 1) {
    return budget;  // one CPU: every thread past the caller only adds switches
  }
  // Parallel drivers each take one CPU of their node's quarter and leave the
  // rest to its workers; a sequential driver leaves all but one CPU to them.
  budget.parallel_nodes = budget.usable_cpus >= kHotpathNodes;
  budget.workers_per_node =
      std::min(requested_workers, budget.parallel_nodes
                                      ? budget.usable_cpus / kHotpathNodes - 1
                                      : budget.usable_cpus - 1);
  return budget;
}

WalkEngineOptions HotpathOptions(const HotpathConfig& config, const ThreadBudget& budget) {
  WalkEngineOptions opts;
  opts.num_nodes = kHotpathNodes;
  opts.workers_per_node = budget.workers_per_node;
  opts.parallel_nodes = budget.parallel_nodes;
  opts.seed = kRunSeed;
  if (!config.sort_batches) {
    opts.sort_batches = BatchSortMode::kNever;
  }
  if (config.checkpoint_every > 0) {
    opts.checkpoint_every = config.checkpoint_every;
    opts.checkpoint_path = config.checkpoint_path;
  }
  return opts;
}

template <typename MakeSpec, typename Walkers>
WorkloadResult RunWorkload(const std::string& name, const EdgeList<EmptyEdgeData>& edges,
                           const HotpathConfig& config, const ThreadBudget& budget,
                           const MakeSpec& make_spec, const Walkers& walkers,
                           obs::MetricsRegistry* metrics, obs::TraceRecorder* trace) {
  WalkEngineOptions opts = HotpathOptions(config, budget);
  opts.trace = trace;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  WorkloadResult result;
  result.name = name;
  result.walkers = walkers.num_walkers;
  Timer timer;
  const auto spec = make_spec(engine.graph());
  result.spec_build_seconds = timer.Seconds();
  result.stats = engine.Run(spec, walkers);
  result.seconds = timer.Seconds();
  result.walks_per_sec = static_cast<double>(walkers.num_walkers) / result.seconds;
  result.steps_per_sec = static_cast<double>(result.stats.steps) / result.seconds;
  result.phases = engine.phase_times();
  result.cross_node_messages = engine.cross_node_messages();
  result.cross_node_bytes = engine.cross_node_bytes();
  result.ckpt = engine.checkpoint_stats();
  for (node_rank_t n = 0; n < opts.num_nodes; ++n) {
    result.batch_sorts += engine.node_observability(n).batch_sorts;
  }
  if (metrics != nullptr) {
    engine.ExportMetrics(*metrics, {{"workload", name}});
  }
  return result;
}

void WriteTextFile(const std::string& path, const std::string& contents, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%s)\n", path.c_str(), what);
}

void WriteJson(const HotpathConfig& config, const ThreadBudget& budget,
               const std::vector<WorkloadResult>& results, vertex_id_t num_vertices,
               edge_index_t num_edges) {
  const CacheGeometry cache = CacheGeometry::Detect();
  std::FILE* f = std::fopen(config.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s for writing\n",
                 config.out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"hotpath\",\n");
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"small\": %s,\n", config.small ? "true" : "false");
  std::fprintf(f, "    \"sort_batches\": %s,\n", config.sort_batches ? "true" : "false");
  std::fprintf(f, "    \"num_nodes\": %u,\n", static_cast<unsigned>(kHotpathNodes));
  std::fprintf(f, "    \"workers_per_node\": %zu,\n", config.workers_per_node);
  std::fprintf(f, "    \"usable_cpus\": %zu,\n", budget.usable_cpus);
  std::fprintf(f, "    \"parallel_nodes\": %s,\n", budget.parallel_nodes ? "true" : "false");
  std::fprintf(f, "    \"l1d_bytes\": %llu,\n", static_cast<unsigned long long>(cache.l1d_bytes));
  std::fprintf(f, "    \"l2_bytes\": %llu,\n", static_cast<unsigned long long>(cache.l2_bytes));
  std::fprintf(f, "    \"llc_bytes\": %llu,\n", static_cast<unsigned long long>(cache.llc_bytes));
  std::fprintf(f, "    \"checkpoint_every\": %llu,\n",
               static_cast<unsigned long long>(config.checkpoint_every));
  std::fprintf(f, "    \"graph_vertices\": %llu,\n",
               static_cast<unsigned long long>(num_vertices));
  std::fprintf(f, "    \"graph_edges\": %llu\n", static_cast<unsigned long long>(num_edges));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"walkers\": %llu,\n", static_cast<unsigned long long>(r.walkers));
    std::fprintf(f, "      \"seconds\": %.6f,\n", r.seconds);
    std::fprintf(f, "      \"walks_per_sec\": %.1f,\n", r.walks_per_sec);
    std::fprintf(f, "      \"steps_per_sec\": %.1f,\n", r.steps_per_sec);
    std::fprintf(f, "      \"steps\": %llu,\n", static_cast<unsigned long long>(r.stats.steps));
    std::fprintf(f, "      \"iterations\": %llu,\n",
                 static_cast<unsigned long long>(r.stats.iterations));
    std::fprintf(f, "      \"edges_per_step\": %.4f,\n", r.stats.EdgesPerStep());
    std::fprintf(f, "      \"phase_seconds\": {\n");
    std::fprintf(f, "        \"spec_build_s\": %.6f,\n", r.spec_build_seconds);
    std::fprintf(f, "        \"prepare\": %.6f,\n", r.phases.prepare);
    std::fprintf(f, "        \"deploy\": %.6f,\n", r.phases.deploy);
    std::fprintf(f, "        \"sample\": %.6f,\n", r.phases.sample);
    std::fprintf(f, "        \"respond\": %.6f,\n", r.phases.respond);
    std::fprintf(f, "        \"resolve\": %.6f,\n", r.phases.resolve);
    std::fprintf(f, "        \"exchange\": %.6f\n", r.phases.exchange);
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"cross_node_messages\": %llu,\n",
                 static_cast<unsigned long long>(r.cross_node_messages));
    std::fprintf(f, "      \"cross_node_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.cross_node_bytes));
    std::fprintf(f, "      \"checkpoints\": %llu,\n",
                 static_cast<unsigned long long>(r.ckpt.checkpoints));
    std::fprintf(f, "      \"checkpoint_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.ckpt.checkpoint_bytes));
    std::fprintf(f, "      \"checkpoint_micros\": %llu,\n",
                 static_cast<unsigned long long>(r.ckpt.checkpoint_micros));
    std::fprintf(f, "      \"effective_workers\": %zu,\n", budget.workers_per_node);
    std::fprintf(f, "      \"batch_sorts\": %llu\n",
                 static_cast<unsigned long long>(r.batch_sorts));
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", config.out_path.c_str());
}

// Floor file: one "<workload-name> <min-walks-per-sec>" per line; '#' starts
// a comment line. A workload fails when it runs more than 2x below its floor;
// unknown names are ignored so floors can be staged ahead of new workloads.
bool CheckFloor(const HotpathConfig& config, const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(config.floor_path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hotpath: cannot read floor file %s\n",
                 config.floor_path.c_str());
    return false;
  }
  bool ok = true;
  size_t checked = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char name[128];
    double floor = 0.0;
    if (line[0] == '#' || std::sscanf(line, "%127s %lf", name, &floor) != 2) {
      continue;
    }
    checked += 1;
    for (const WorkloadResult& r : results) {
      if (r.name != name) {
        continue;
      }
      if (r.walks_per_sec * 2.0 < floor) {
        std::fprintf(stderr,
                     "FAIL: %s walks/sec %.1f is >2x below the checked-in floor %.1f\n",
                     name, r.walks_per_sec, floor);
        ok = false;
      } else {
        std::printf("floor ok: %s %.1f walks/sec (floor %.1f)\n", name, r.walks_per_sec,
                    floor);
      }
    }
  }
  std::fclose(f);
  if (checked == 0) {
    std::fprintf(stderr, "bench_hotpath: floor file %s has no usable entries\n",
                 config.floor_path.c_str());
    return false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  HotpathConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      config.small = true;
    } else if (std::strcmp(argv[i], "--no-sort") == 0) {
      config.sort_batches = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      config.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
      config.floor_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers_per_node = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--vertices") == 0 && i + 1 < argc) {
      config.vertices = static_cast<vertex_id_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--walkers") == 0 && i + 1 < argc) {
      config.walkers = static_cast<walker_id_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      config.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      config.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 && i + 1 < argc) {
      config.checkpoint_every = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--checkpoint-path") == 0 && i + 1 < argc) {
      config.checkpoint_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--small] [--out FILE] [--floor FILE] "
                   "[--workers N] [--no-sort] [--vertices N] [--walkers N] "
                   "[--metrics-out FILE] [--trace FILE] "
                   "[--checkpoint-every N] [--checkpoint-path FILE]\n");
      return 2;
    }
  }
  if (config.checkpoint_every > 0 && config.checkpoint_path.empty()) {
    config.checkpoint_path = config.out_path + ".ckpt";
  }

  const vertex_id_t num_vertices =
      config.vertices > 0 ? config.vertices : (config.small ? 8000 : 60000);
  const walker_id_t num_walkers = config.walkers > 0 ? config.walkers : num_vertices;
  auto edges = GenerateTruncatedPowerLaw(num_vertices, 2.0, 4, 100, kGraphSeed);
  auto num_edges = static_cast<edge_index_t>(edges.edges.size());

  const ThreadBudget budget = SizeThreads(config.workers_per_node);

  std::printf("hotpath baseline: %llu vertices, %llu directed edges, %llu walkers, "
              "%zu workers/node, %s node drivers, %zu usable CPUs%s\n",
              static_cast<unsigned long long>(num_vertices),
              static_cast<unsigned long long>(num_edges),
              static_cast<unsigned long long>(num_walkers), budget.workers_per_node,
              budget.parallel_nodes ? "parallel" : "sequential", budget.usable_cpus,
              config.small ? " [small]" : "");
  PrintRule();

  std::vector<WorkloadResult> results;
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry* metrics_ptr = config.metrics_path.empty() ? nullptr : &metrics;
  obs::TraceRecorder trace;
  obs::TraceRecorder* trace_ptr = config.trace_path.empty() ? nullptr : &trace;

  Node2VecParams n2v{.p = 0.5, .q = 2.0, .walk_length = 80};
  results.push_back(RunWorkload(
      "node2vec", edges, config, budget,
      [&n2v](const auto& g) { return Node2VecTransition(g, n2v); },
      Node2VecWalkers(num_walkers, n2v), metrics_ptr, trace_ptr));

  PprParams ppr;
  results.push_back(RunWorkload(
      "ppr", edges, config, budget, [](const auto&) { return PprTransition<EmptyEdgeData>(); },
      PprWalkers(num_walkers, ppr), metrics_ptr, trace_ptr));

  std::printf("%10s %10s %14s %14s %12s %14s\n", "workload", "time(s)", "walks/sec",
              "steps/sec", "edges/step", "xnode bytes");
  PrintRule();
  for (const WorkloadResult& r : results) {
    std::printf("%10s %10.3f %14.1f %14.1f %12.3f %14llu\n", r.name.c_str(), r.seconds,
                r.walks_per_sec, r.steps_per_sec, r.stats.EdgesPerStep(),
                static_cast<unsigned long long>(r.cross_node_bytes));
  }

  WriteJson(config, budget, results, num_vertices, num_edges);
  if (metrics_ptr != nullptr) {
    WriteTextFile(config.metrics_path, metrics.ToJson(), "metrics snapshot");
  }
  if (trace_ptr != nullptr) {
    WriteTextFile(config.trace_path, trace.ToChromeJson(), "chrome trace");
  }
  if (!config.floor_path.empty() && !CheckFloor(config, results)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace knightking

int main(int argc, char** argv) { return knightking::bench::Main(argc, argv); }
