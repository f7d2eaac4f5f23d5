// Streaming-mutation cost baseline: machine-recorded numbers for the two
// claims the dynamic-graph subsystem makes (docs/DYNAMIC_GRAPHS.md), emitted
// as BENCH_mutation.json so the repo's perf trajectory is tracked in version
// control.
//
//   * update_cost — a single edge update against a LazyAliasRow is O(1):
//     the per-update cost is measured across row degrees spanning 64..4096
//     and compared against the rebuild-per-update strategy a static alias
//     table would force (a full AliasTable::Build of the row). The speedup
//     column is the headline (it should grow linearly with degree).
//   * workloads  — walk throughput with a live mutation log ("churn")
//     against the same walk on the frozen graph ("static"), so the overlay's
//     read-path tax (one dirty-row branch per sample) and the merge cost are
//     visible in walks/sec. With --faults, message faults plus a scheduled
//     node crash are layered on the churn run: the recovered run exercises
//     checkpoint-v2 mutation replay end to end and the recovery count lands
//     in the JSON.
//
// Flags:
//   --small       reduced sizes for CI smoke runs (mutation-soak job)
//   --faults      layer message faults + two node crashes over the churn run
//   --out FILE    JSON output path (default BENCH_mutation.json)
//   --workers N   workers per node (default 4)
//   --merge-threshold N  per-row delta count that triggers a merge
//                        (default 64; 0 = never merge)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/graph/delta_store.h"
#include "src/sampling/alias_table.h"
#include "src/sampling/weight_class.h"
#include "src/testing/fault_injector.h"

namespace knightking {
namespace bench {
namespace {

constexpr uint64_t kMutationSeed = 0x6d757462ULL;  // "mutb"

struct MutationConfig {
  bool small = false;
  bool faults = false;
  size_t workers_per_node = 4;
  uint32_t merge_threshold = 64;
  std::string out_path = "BENCH_mutation.json";
};

// ---------------------------------------------------------------------------
// Part 1: per-update cost vs row degree (the O(1) claim).
// ---------------------------------------------------------------------------

struct UpdateCostResult {
  uint32_t degree = 0;
  uint64_t updates = 0;
  double incremental_ns = 0.0;  // one LazyAliasRow::Reweight
  double rebuild_ns = 0.0;      // full row rebuild per update (alias strategy)
  double speedup = 0.0;
  double sampled_checksum = 0.0;  // defeats dead-code elimination
};

UpdateCostResult MeasureUpdateCost(uint32_t degree, uint64_t updates) {
  Rng rng(kMutationSeed ^ degree);
  std::vector<real_t> weights(degree);
  for (real_t& w : weights) {
    w = 0.5f + static_cast<real_t>(rng.NextDouble()) * 4.0f;
  }
  UpdateCostResult result;
  result.degree = degree;
  result.updates = updates;

  LazyAliasRow row;
  row.Build(weights);
  {
    Timer timer;
    for (uint64_t i = 0; i < updates; ++i) {
      const uint32_t idx = static_cast<uint32_t>(rng.NextUInt64(degree));
      const real_t w = 0.5f + static_cast<real_t>(rng.NextDouble()) * 4.0f;
      row.Reweight(idx, w);
    }
    result.incremental_ns = timer.Seconds() * 1e9 / static_cast<double>(updates);
  }
  result.sampled_checksum = row.total_weight();

  // Rebuild-per-update baseline: what a static per-row alias table costs
  // when the row changes. Scaled down — O(degree) per update makes the full
  // count prohibitive at the top of the sweep — and normalized per update.
  const uint64_t rebuild_updates = updates / 64 > 0 ? updates / 64 : 1;
  AliasTable table;
  {
    Timer timer;
    for (uint64_t i = 0; i < rebuild_updates; ++i) {
      const uint32_t idx = static_cast<uint32_t>(rng.NextUInt64(degree));
      weights[idx] = 0.5f + static_cast<real_t>(rng.NextDouble()) * 4.0f;
      table.Build(weights);
    }
    result.rebuild_ns = timer.Seconds() * 1e9 / static_cast<double>(rebuild_updates);
  }
  result.speedup = result.rebuild_ns / result.incremental_ns;
  return result;
}

// ---------------------------------------------------------------------------
// Part 2: walk throughput under mutation churn.
// ---------------------------------------------------------------------------

struct WorkloadResult {
  std::string name;
  walker_id_t walkers = 0;
  double seconds = 0.0;
  double walks_per_sec = 0.0;
  double steps_per_sec = 0.0;
  SamplingStats stats;
  MutationCounters mutations;
  CheckpointStats ckpt;
  uint64_t batches = 0;
  uint64_t merge_micros = 0;
};

// A churn log: `batches` epoch-spaced batches of `per_batch` mutations over
// random vertices — ~60% reweights, ~25% inserts, ~15% deletes, matching a
// weight-refresh-heavy serving workload.
MutationLog BuildChurnLog(const Csr<WeightedEdgeData>& csr, size_t batches,
                          size_t per_batch) {
  MutationLog log(kRunSeed);
  Rng rng(kMutationSeed);
  const vertex_id_t num_v = csr.num_vertices();
  for (size_t b = 0; b < batches; ++b) {
    std::vector<EdgeMutation> muts;
    muts.reserve(per_batch);
    for (size_t i = 0; i < per_batch; ++i) {
      const auto src = static_cast<vertex_id_t>(rng.NextUInt64(num_v));
      const uint64_t kind = rng.NextUInt64(100);
      const auto w = static_cast<real_t>(0.25 + rng.NextDouble() * 4.0);
      if (kind < 60 && csr.OutDegree(src) > 0) {
        const auto j = static_cast<vertex_id_t>(rng.NextUInt64(csr.OutDegree(src)));
        muts.push_back({src, csr.Neighbors(src)[j].neighbor, w, MutationOp::kReweight});
      } else if (kind < 85) {
        const auto dst = static_cast<vertex_id_t>(rng.NextUInt64(num_v));
        muts.push_back({src, dst, w, MutationOp::kInsert});
      } else if (csr.OutDegree(src) > 0) {
        const auto j = static_cast<vertex_id_t>(rng.NextUInt64(csr.OutDegree(src)));
        muts.push_back({src, csr.Neighbors(src)[j].neighbor, 0.0f, MutationOp::kDelete});
      }
    }
    log.Append(b + 1, std::move(muts));
  }
  return log;
}

WorkloadResult RunWalkWorkload(const std::string& name,
                               const EdgeList<WeightedEdgeData>& edges,
                               const MutationConfig& config, const MutationLog* log,
                               FaultInjector* injector, walker_id_t num_walkers,
                               step_t walk_length) {
  WalkEngineOptions opts;
  opts.num_nodes = 4;
  opts.workers_per_node = config.workers_per_node;
  opts.parallel_nodes = true;
  opts.seed = kRunSeed;
  if (log != nullptr) {
    opts.mutation_log = log;
    opts.merge_threshold = config.merge_threshold;
  }
  if (injector != nullptr) {
    opts.fault_injector = injector;
    opts.checkpoint_every = 4;
    opts.checkpoint_path = config.out_path + ".ckpt";
  }
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  WorkloadResult result;
  result.name = name;
  result.walkers = num_walkers;
  Timer timer;
  result.stats = engine.Run(DeepWalkTransition<WeightedEdgeData>(),
                            DeepWalkWalkers(num_walkers, {.walk_length = walk_length}));
  result.seconds = timer.Seconds();
  result.walks_per_sec = static_cast<double>(num_walkers) / result.seconds;
  result.steps_per_sec = static_cast<double>(result.stats.steps) / result.seconds;
  result.mutations = engine.mutation_counters();
  result.ckpt = engine.checkpoint_stats();
  result.batches = engine.mutation_batches_applied();
  result.merge_micros = engine.merge_micros();
  if (!opts.checkpoint_path.empty()) {
    std::remove(opts.checkpoint_path.c_str());
  }
  return result;
}

void WriteJson(const MutationConfig& config, const std::vector<UpdateCostResult>& costs,
               const std::vector<WorkloadResult>& workloads, vertex_id_t num_vertices,
               edge_index_t num_edges) {
  std::FILE* f = std::fopen(config.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_mutation: cannot open %s for writing\n",
                 config.out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"mutation\",\n");
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"small\": %s,\n", config.small ? "true" : "false");
  std::fprintf(f, "    \"faults\": %s,\n", config.faults ? "true" : "false");
  std::fprintf(f, "    \"num_nodes\": 4,\n");
  std::fprintf(f, "    \"workers_per_node\": %zu,\n", config.workers_per_node);
  std::fprintf(f, "    \"merge_threshold\": %u,\n", config.merge_threshold);
  std::fprintf(f, "    \"graph_vertices\": %llu,\n",
               static_cast<unsigned long long>(num_vertices));
  std::fprintf(f, "    \"graph_edges\": %llu\n",
               static_cast<unsigned long long>(num_edges));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"update_cost\": [\n");
  for (size_t i = 0; i < costs.size(); ++i) {
    const UpdateCostResult& c = costs[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"degree\": %u,\n", c.degree);
    std::fprintf(f, "      \"updates\": %llu,\n",
                 static_cast<unsigned long long>(c.updates));
    std::fprintf(f, "      \"incremental_ns_per_update\": %.2f,\n", c.incremental_ns);
    std::fprintf(f, "      \"rebuild_ns_per_update\": %.2f,\n", c.rebuild_ns);
    std::fprintf(f, "      \"speedup\": %.2f\n", c.speedup);
    std::fprintf(f, "    }%s\n", i + 1 < costs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadResult& r = workloads[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"walkers\": %llu,\n",
                 static_cast<unsigned long long>(r.walkers));
    std::fprintf(f, "      \"seconds\": %.6f,\n", r.seconds);
    std::fprintf(f, "      \"walks_per_sec\": %.1f,\n", r.walks_per_sec);
    std::fprintf(f, "      \"steps_per_sec\": %.1f,\n", r.steps_per_sec);
    std::fprintf(f, "      \"steps\": %llu,\n",
                 static_cast<unsigned long long>(r.stats.steps));
    std::fprintf(f, "      \"mutation_batches\": %llu,\n",
                 static_cast<unsigned long long>(r.batches));
    std::fprintf(f, "      \"mutations_applied\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.applied()));
    std::fprintf(f, "      \"mutations_rejected\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.rejected));
    std::fprintf(f, "      \"rows_materialized\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.rows_materialized));
    std::fprintf(f, "      \"sampler_full_builds\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.full_builds));
    std::fprintf(f, "      \"sampler_bucket_builds\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.bucket_builds));
    std::fprintf(f, "      \"sampler_incremental_updates\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.incremental_updates));
    std::fprintf(f, "      \"merges\": %llu,\n",
                 static_cast<unsigned long long>(r.mutations.merges));
    std::fprintf(f, "      \"merge_micros\": %llu,\n",
                 static_cast<unsigned long long>(r.merge_micros));
    std::fprintf(f, "      \"recoveries\": %llu\n",
                 static_cast<unsigned long long>(r.ckpt.recoveries));
    std::fprintf(f, "    }%s\n", i + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", config.out_path.c_str());
}

int Main(int argc, char** argv) {
  MutationConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      config.small = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      config.faults = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      config.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers_per_node = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--merge-threshold") == 0 && i + 1 < argc) {
      config.merge_threshold = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_mutation [--small] [--faults] [--out FILE] "
                   "[--workers N] [--merge-threshold N]\n");
      return 2;
    }
  }

  // Part 1: update cost sweep.
  const uint64_t updates = config.small ? 100000 : 1000000;
  std::vector<uint32_t> degrees = {64, 256, 1024};
  if (!config.small) {
    degrees.push_back(4096);
  }
  std::printf("update cost: %llu incremental updates per degree\n",
              static_cast<unsigned long long>(updates));
  PrintRule();
  std::printf("%8s %22s %20s %10s\n", "degree", "incremental ns/update",
              "rebuild ns/update", "speedup");
  std::vector<UpdateCostResult> costs;
  for (uint32_t degree : degrees) {
    costs.push_back(MeasureUpdateCost(degree, updates));
    const UpdateCostResult& c = costs.back();
    std::printf("%8u %22.1f %20.1f %9.1fx\n", c.degree, c.incremental_ns, c.rebuild_ns,
                c.speedup);
  }
  PrintRule();

  // Part 2: walk throughput under churn.
  const vertex_id_t num_vertices = config.small ? 8000 : 60000;
  auto edges = AssignUniformWeights(
      GenerateTruncatedPowerLaw(num_vertices, 2.0, 4, 100, kGraphSeed), 0.5f, 4.0f,
      kWeightSeed);
  const auto num_edges = static_cast<edge_index_t>(edges.edges.size());
  const auto num_walkers = static_cast<walker_id_t>(config.small ? 4000 : 30000);
  const step_t walk_length = 20;
  const size_t churn_batches = 10;
  const size_t per_batch = config.small ? 400 : 3000;

  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildChurnLog(csr, churn_batches, per_batch);
  std::printf("walk workloads: %llu vertices, %llu edges, %llu walkers, "
              "%llu mutations over %zu batches%s\n",
              static_cast<unsigned long long>(num_vertices),
              static_cast<unsigned long long>(num_edges),
              static_cast<unsigned long long>(num_walkers),
              static_cast<unsigned long long>(log.num_mutations()), churn_batches,
              config.faults ? " [faults]" : "");
  PrintRule();

  std::vector<WorkloadResult> workloads;
  workloads.push_back(RunWalkWorkload("deepwalk_static", edges, config, nullptr, nullptr,
                                      num_walkers, walk_length));
  workloads.push_back(RunWalkWorkload("deepwalk_churn", edges, config, &log, nullptr,
                                      num_walkers, walk_length));
  if (config.faults) {
    FaultPolicy policy;
    policy.drop = 0.05;
    policy.delay = 0.05;
    FaultInjector injector(policy);
    injector.CrashNode(1, 3);
    injector.CrashOnMutationBatch(2, log.batch(6).id);
    workloads.push_back(RunWalkWorkload("deepwalk_churn_faults", edges, config, &log,
                                        &injector, num_walkers, walk_length));
    // The faulted leg must demonstrate *real* recovery, not merely survive:
    // both scheduled crashes consumed, a checkpoint+replay recovery per
    // crash, and a completed walk. Any shortfall fails the bench run (the CI
    // mutation-soak leg asserts this exit code).
    const WorkloadResult& faulted = workloads.back();
    if (faulted.ckpt.recoveries < 2) {
      std::fprintf(stderr,
                   "bench_mutation: fault run recovered %llu crashes, expected 2\n",
                   static_cast<unsigned long long>(faulted.ckpt.recoveries));
      return 1;
    }
    if (injector.pending_crashes() != 0 || injector.pending_batch_crashes() != 0) {
      std::fprintf(stderr,
                   "bench_mutation: fault run left %zu epoch + %zu batch crashes "
                   "unconsumed\n",
                   injector.pending_crashes(), injector.pending_batch_crashes());
      return 1;
    }
    if (faulted.ckpt.checkpoints == 0) {
      std::fprintf(stderr, "bench_mutation: fault run committed no checkpoints\n");
      return 1;
    }
    if (faulted.stats.steps == 0 || faulted.batches != churn_batches) {
      std::fprintf(stderr,
                   "bench_mutation: fault run did not complete (%llu steps, "
                   "%llu/%zu batches)\n",
                   static_cast<unsigned long long>(faulted.stats.steps),
                   static_cast<unsigned long long>(faulted.batches), churn_batches);
      return 1;
    }
  }
  for (const WorkloadResult& r : workloads) {
    std::printf("%-22s %10.2fs %12.0f walks/s  %llu mutations, %llu merges, "
                "%llu recoveries\n",
                r.name.c_str(), r.seconds, r.walks_per_sec,
                static_cast<unsigned long long>(r.mutations.applied()),
                static_cast<unsigned long long>(r.mutations.merges),
                static_cast<unsigned long long>(r.ckpt.recoveries));
  }
  PrintRule();

  WriteJson(config, costs, workloads, num_vertices, num_edges);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace knightking

int main(int argc, char** argv) { return knightking::bench::Main(argc, argv); }
